"""Adversarial and counting procedures: energy partitions, shift counts,
structure attacks, and evasiveness audits.

Everything here either certifies a structural property by brute force or
attacks one by randomized search.  Searches are best-effort and seeded:
absence of a witness is an ordinary outcome, but any witness that is returned
has been re-verified exhaustively before the verified flag is set.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import anf, rng
from .anf import Polynomial, eval_bits, monomial_order
from .constructions import EvasiveDescriptor, lift_point
from .errors import PreconditionError, RetryExhaustedError, check_budget
from .gf2 import (
    XorBasis,
    check_words,
    enumerate_span,
    nullspace_basis,
    span_rank,
    subset_xor,
    word_string,
)
from .reports import AuditReport

__all__ = [
    "EnergyPartition",
    "AttackWitness",
    "additive_energy",
    "energy_partition",
    "cw_shift_count",
    "sample_vanishing_poly",
    "disperser_attack",
    "verify_constancy",
    "monochromatic_sumset_search",
    "subspace_evasive_audit",
    "sumset_evasive_audit",
    "dichotomy_check",
    "subspace_count",
]

PAIR_BUDGET = 1 << 26
SHIFT_BUDGET = 1 << 24
#: Most members of an explicit attack family, one polynomial per seed y in F_2^n.
FAMILY_BUDGET = 1 << 12


def additive_energy(x: Sequence[int], y: Sequence[int]) -> int:
    """Number of quadruples (x, y, x', y') with x + y = x' + y', on packed words.

    Computed as the sum of squared sum-multiplicities; equals |X| * |Y| exactly
    when all pairwise sums are distinct.
    """
    check_budget("pair enumeration", PAIR_BUDGET, len(x) * len(y))
    counts: dict[int, int] = {}
    for xb in x:
        for yb in y:
            s = xb ^ yb
            counts[s] = counts.get(s, 0) + 1
    return sum(c * c for c in counts.values())


#: Sums per sorted block in ``_max_fiber`` (64 KiB of int64 words), unless
#: one pair alone holds more, as at t = 0 where one part holds every point.
LIVE_SUMS = 1 << 13


def _pack(parts: Sequence[Sequence[int]]) -> np.ndarray:
    """Equal-size parts of packed words as a (parts, part_size) array.

    Words below 2^63 fit int64, and so do their XORs; a wider word makes it
    an object array of Python ints, on which XOR, sorting, searching and
    equality behave the same.
    """
    words = [w for part in parts for w in part]
    if min(words) < 0:
        raise PreconditionError("points must be nonnegative words")
    dtype = np.int64 if max(words).bit_length() <= 63 else object
    return np.array(words, dtype=dtype).reshape(len(parts), -1)


def _energies(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """E(X_i, Y_j) for every row pair of two packed part arrays, as int64.

    By the difference identity E(A, B) = sum_d r_A(d) * r_B(d), where r_A(d)
    counts the ordered pairs of A with a + a' = d (multisets too): one count
    table per side over the differences that both sides form inside their
    parts, and one float64 matmul.  That is exact, as no partial sum exceeds
    E_ij <= (|X_i| * |Y_j|)^2 < 2^53 under PAIR_BUDGET.
    """
    dx, dy = ((p[:, :, None] ^ p[:, None, :]).reshape(len(p), -1) for p in (xs, ys))
    sx, sy = np.sort(dx, axis=None), np.sort(dy, axis=None)
    first = np.ones(sx.size, dtype=bool)
    first[1:] = sx[1:] != sx[:-1]
    ux = sx[first]
    shared = ux[sy[np.searchsorted(sy, ux).clip(max=sy.size - 1)] == ux]  # holds 0, formed by every part
    tables = []
    for diffs in (dx, dy):
        cols = np.searchsorted(shared, diffs).clip(max=len(shared) - 1)
        cols[shared[cols] != diffs] = len(shared)  # a difference the other side never forms
        flat = (cols + (len(shared) + 1) * np.arange(len(cols))[:, None]).ravel()
        counts = np.bincount(flat, minlength=len(cols) * (len(shared) + 1))
        tables.append(counts.reshape(len(cols), -1)[:, :-1].astype(np.float64))
    return (tables[0] @ tables[1].T).astype(np.int64)


def _max_fiber(xs: np.ndarray, ys: np.ndarray) -> tuple[int, int]:
    """Largest sum-fiber |{(x, y) in X_i x Y_j : x + y = w}| over all i, j, w,
    and the largest pair energy E(X_i, Y_j).

    A pair's fibers add up to |X_i| * |Y_j| and their squares to E(X_i, Y_j),
    so they are all 1 exactly when the two agree, for multisets too.  Only
    the other pairs are sorted, LIVE_SUMS sums (or one pair) at a time, and
    their fibers read off as runs of equal sums; the squared runs must add up
    to the pair's energy, so every energy above that floor is counted twice.
    """
    energies = _energies(xs, ys)
    width = xs.shape[1] * ys.shape[1]
    live_x, live_y = divmod(np.flatnonzero(energies > width), energies.shape[1])
    step = max(1, LIVE_SUMS // width)
    biggest = 1
    for at in range(0, len(live_x), step):
        i, j = live_x[at : at + step], live_y[at : at + step]
        sums = np.sort((xs[i, :, None] ^ ys[j, None, :]).reshape(len(i), width), axis=1)
        first = np.ones(sums.shape, dtype=bool)
        first[:, 1:] = sums[:, 1:] != sums[:, :-1]
        starts = np.flatnonzero(first)
        runs = np.diff(starts, append=sums.size)
        per_pair = np.add.reduceat(runs * runs, np.searchsorted(starts, np.arange(0, sums.size, width)))
        if (per_pair != energies[i, j]).any():
            raise AssertionError("sum-fiber runs disagree with the pair energies; this is a bug")
        biggest = max(biggest, int(runs.max()))
    return biggest, int(energies.max())


@dataclass(frozen=True)
class EnergyPartition:
    """Equal random partitions of X and Y with all sum-fibers capped at ell.

    The cap on every fiber |A_w^(i,j)| <= ell certifies the pairwise energy
    bound E(X_i, Y_j) <= ell^2 * 2^(2(k-t)); ``max_energy`` is the largest
    E(X_i, Y_j), from the same pass that found ``max_fiber``.
    """

    x_parts: tuple[tuple[int, ...], ...]
    y_parts: tuple[tuple[int, ...], ...]
    t: int
    ell: int
    max_fiber: int
    max_energy: int
    retries_used: int

    def energy_cap(self) -> int:
        if not self.x_parts:
            raise PreconditionError("a partition with no parts has no energy cap")
        part = len(self.x_parts[0])
        return self.ell * self.ell * part * part

    def verify(self, x: Sequence[int], y: Sequence[int]) -> bool:
        """Re-check the partition property and the fiber cap from scratch.

        The largest fiber and pair energy are recounted from the parts by
        ``_max_fiber``, which checks its sorted runs against the pair
        energies; the stored ``max_fiber`` and ``max_energy`` must equal
        them, and the fiber must respect ``ell``.
        """
        for parts, points in ((self.x_parts, x), (self.y_parts, y)):
            if Counter(v for part in parts for v in part) != Counter(points):
                return False
        sizes = {len(p) for p in self.x_parts} | {len(p) for p in self.y_parts}
        if not x or sizes != {len(x) >> self.t}:
            return False
        fiber, energy = _max_fiber(_pack(self.x_parts), _pack(self.y_parts))
        return (fiber, energy) == (self.max_fiber, self.max_energy) and fiber <= self.ell


def energy_partition(
    x: Sequence[int],
    y: Sequence[int],
    t: int,
    ell: int,
    stream: Random,
    retries: int = 100,
) -> EnergyPartition:
    """Resample whole uniform partitions until every sum-fiber has <= ell pairs.

    X and Y are packed words; |X| = |Y| = 2^k <= 2^13 (PAIR_BUDGET), t <= k.  The stated
    sufficient condition ell >= 4, t >= (k/(ell-1)) * (1 + ell/2) is advisory:
    parameters outside it only trigger a warning, since the resampling loop
    may still succeed.

    Both sets are packed once; each resample shuffles indices, gathers the parts
    and reads their largest fiber (``_max_fiber``); the first within ell is returned.
    """
    size = len(x)
    if size == 0 or size & (size - 1) or len(y) != size:
        raise PreconditionError("need |X| = |Y| = 2^k")
    check_budget("pair enumeration", PAIR_BUDGET, size * size)
    k = size.bit_length() - 1
    if not 0 <= t <= k:
        raise PreconditionError("need 0 <= t <= k so 2^t parts divide the sets")
    if ell < 4 or t < (k / max(ell - 1, 1)) * (1 + ell / 2):
        warnings.warn(
            "parameters violate the sufficient condition ell >= 4, "
            "t >= (k/(ell-1))(1+ell/2); the partition search may stall",
            stacklevel=2,
        )
    shape = (1 << t, size >> t)
    x_words, y_words = _pack([x])[0], _pack([y])[0]
    for attempt in range(retries):
        # shuffle reads the stream by length only, so shuffling indices draws
        # the same permutations as shuffling the points themselves
        ix, iy = list(range(size)), list(range(size))
        rng.shuffle(stream, ix)
        rng.shuffle(stream, iy)
        xs, ys = x_words[ix].reshape(shape), y_words[iy].reshape(shape)
        max_fiber, max_energy = _max_fiber(xs, ys)
        if max_fiber <= ell:
            x_parts, y_parts = (tuple(map(tuple, parts.tolist())) for parts in (xs, ys))
            return EnergyPartition(
                x_parts=x_parts,
                y_parts=y_parts,
                t=t,
                ell=ell,
                max_fiber=max_fiber,
                max_energy=max_energy,
                retries_used=attempt,
            )
    raise RetryExhaustedError(f"no admissible partition within {retries} resamples")


def cw_shift_count(
    f: Polynomial, n: int, v_basis: Sequence[int]
) -> tuple[int, Union[int, Fraction], bool]:
    """Count x whose whole V-shift orbit, V given as n-bit words, stays inside the zero set of f.

    f must vanish on span(V) — verified first, error otherwise.  The returned
    bound is 2^(n - sum_{j<d} (d-j) C(t, j)) with d the actual degree of f
    and t = dim span(V); the verdict says whether count >= bound.  Costs t
    passes over f's 2^n-point table, each doubling the span that ``ok`` covers.
    """
    if n != f.order.n:
        raise PreconditionError("basis vectors must match the polynomial's width")
    check_budget(f"shift counting (n={n})", SHIFT_BUDGET, log2=n)
    check_words(n, v_basis)
    basis = XorBasis()
    kept = [v for v in v_basis if basis.add(v)]
    ok = anf.truth_table(f) == 0
    for b in kept:
        ok = ok & ok[np.arange(ok.size) ^ b]
    if not ok[0]:
        raise PreconditionError("f does not vanish on span(V)")
    count = int(ok.sum())
    d = f.degree()
    exponent = n - sum((d - j) * comb(len(kept), j) for j in range(d))
    bound = 1 << exponent if exponent >= 0 else Fraction(1, 1 << -exponent)
    return count, bound, count >= bound


def sample_vanishing_poly(
    n: int, d: int, v_basis: Sequence[int], stream: Random
) -> Polynomial:
    """Uniform degree-<=d polynomial vanishing on span(V), V given as n-bit words.

    The constraints are the evaluation vectors of every span point; a uniform
    combination of the nullspace basis is exact by construction.
    """
    check_words(n, v_basis)
    order = monomial_order(n, d)
    span = enumerate_span(v_basis)
    rows = [eval_bits(p, order) for p in span]
    basis = nullspace_basis(rows, order.size)
    return Polynomial(order, subset_xor(basis, stream.getrandbits(len(basis))))


@dataclass(frozen=True)
class AttackWitness:
    """Two sets of n-bit words on which the attacked function is constant.

    ``verified`` is only ever True after an exhaustive re-evaluation of every
    pair confirmed the constant value.
    """

    n: int
    set_a: tuple[int, ...]
    set_b: tuple[int, ...]
    value: int
    verified: bool
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "set_a": [word_string(self.n, v) for v in self.set_a],
            "set_b": [word_string(self.n, v) for v in self.set_b],
            "value": self.value,
            "verified": self.verified,
            "params": dict(self.params),
        }


def verify_constancy(
    family: Sequence[Polynomial],
    n: int,
    xs: Sequence[int],
    ys: Sequence[int],
    value: int,
) -> bool:
    """Exhaustively confirm f_y(x) = value for all x in X, y in Y, both sets of n-bit words."""
    if not xs or not ys:
        return False
    check_words(n, xs, ys)
    order = family[0].order
    evals = [eval_bits(x, order) for x in xs]
    for y in ys:
        coeffs = family[y].coeffs
        for e in evals:
            if ((coeffs & e).bit_count() & 1) != value:
                return False
    return True


def disperser_attack(
    family: Sequence[Polynomial],
    t: int,
    budget: int,
    stream: Random,
) -> AttackWitness:
    """Hunt a subspace X and a large set Y with f_y constant on X for all y in Y.

    Fixes b as the majority value of y -> f_y(0) (ties resolved to 0), keeps
    only seeds agreeing at 0, then repeatedly samples a random t-dimensional
    subspace and collects every y whose shifted polynomial vanishes on it.
    Succeeds as soon as 2^t seeds survive; otherwise returns the best witness
    seen (always re-verified), and errors only if every trial came up empty.
    """
    size = len(family)
    if size == 0 or size & (size - 1):
        raise PreconditionError("family must have 2^n members")
    n = size.bit_length() - 1
    check_budget(f"attack family (n={n})", FAMILY_BUDGET, log2=n)
    order = family[0].order
    if any(p.order is not order for p in family):
        raise PreconditionError("family members must share one monomial order")
    if not 1 <= t <= n:
        raise PreconditionError("need 1 <= t <= n")
    if budget < 1:
        raise PreconditionError("budget must be positive")
    coeff_by_y = [f.coeffs for f in family]
    ones = sum(c & 1 for c in coeff_by_y)
    b = 1 if 2 * ones > size else 0
    pool = [y for y in range(size) if (coeff_by_y[y] & 1) == b]
    target = 1 << t
    best_y: list[int] = []
    best_span: list[int] = []
    for _ in range(budget):
        basis_words: list[int] = []
        basis = XorBasis()
        tries = 0
        while len(basis_words) < t and tries < 64 * t:
            cand = stream.getrandbits(n)
            tries += 1
            if basis.add(cand):
                basis_words.append(cand)
        if len(basis_words) < t:
            continue
        span = enumerate_span(basis_words)
        evals = [eval_bits(p, order) for p in span]
        survivors = []
        for y in pool:
            c = coeff_by_y[y]
            for e in evals:
                if ((c & e).bit_count() & 1) != b:
                    break
            else:
                survivors.append(y)
        if len(survivors) > len(best_y):
            best_y = survivors
            best_span = span
        if len(survivors) >= target:
            break
    if not best_y:
        raise RetryExhaustedError(f"no constant witness in {budget} subspace trials")
    xs, ys = tuple(best_span), tuple(best_y)
    verified = verify_constancy(family, n, xs, ys, b)
    if not verified:
        raise AssertionError("survivor set failed re-verification; this is a bug")
    return AttackWitness(
        n=n,
        set_a=xs,
        set_b=ys,
        value=b,
        verified=verified,
        params={"t": t, "n": n, "target": target, "success": len(best_y) >= target},
    )


def _grow_sumset(
    draw: Callable[[], int],
    inside_for: Callable[[int], Callable[[int], bool]],
    target: int,
    budget: int,
) -> tuple[Optional[tuple[list[int], list[int]]], int]:
    """Greedy alternating growth of A and B with every sum a + b inside a set.

    A restart draws a seed pair, dropped unless ``inside_for(a0 ^ b0)``, the
    membership test for that seed, holds on a0 ^ b0.  The sides then take
    turns absorbing a fresh draw whose cross sums all pass; anything else is
    a stall, and max(64, 16 * target) stalls in a row restart.  ``budget``
    counts evaluations, one per candidate and one per seed pair, over all
    restarts.  A + B is re-tested once both sides reach ``target``.  Returns
    the sorted sides, or None, and the evaluations spent.
    """
    spent = 0
    stall_limit = max(64, 16 * target)
    while spent < budget:
        a0, b0 = draw(), draw()
        spent += 1
        inside = inside_for(a0 ^ b0)
        if not inside(a0 ^ b0):
            continue
        set_a, set_b = {a0}, {b0}
        stalls = 0
        grow_a = True
        while spent < budget and stalls < stall_limit:
            cand = draw()
            spent += 1
            mine, other = (set_a, set_b) if grow_a else (set_b, set_a)
            if cand not in mine and all(inside(cand ^ o) for o in other):
                mine.add(cand)
                stalls = 0
            else:
                stalls += 1
            grow_a = not grow_a
            if len(set_a) >= target and len(set_b) >= target:
                xs, ys = sorted(set_a), sorted(set_b)
                if not all(inside(x ^ y) for x in xs for y in ys):
                    raise AssertionError("greedy sumset growth broke its invariant; this is a bug")
                return (xs, ys), spent
    return None, spent


def monochromatic_sumset_search(
    f: Polynomial,
    s: int,
    budget: int,
    stream: Random,
) -> Optional[AttackWitness]:
    """Greedy alternating search for A, B of size >= s with f constant on A + B.

    A random seed pair fixes the color f(a0 + b0); the A side and B side
    then take turns absorbing random candidates that keep every cross sum on
    that color, and stalls trigger a restart (see ``_grow_sumset``).
    ``budget`` counts candidate evaluations across all restarts.  Returns a
    verified witness or None — absence is an ordinary outcome.
    """
    if s < 1:
        raise PreconditionError("target size must be positive")
    if budget < 1:
        raise PreconditionError("budget must be positive")
    n = f.order.n
    coeffs = f.coeffs
    order = f.order

    def val(xb: int) -> int:
        return (coeffs & eval_bits(xb, order)).bit_count() & 1

    def inside_for(seed_sum: int) -> Callable[[int], bool]:
        color = val(seed_sum)
        return lambda xb: val(xb) == color

    found, spent = _grow_sumset(lambda: stream.getrandbits(n), inside_for, s, budget)
    if found is None:
        return None
    xs, ys = found
    return AttackWitness(
        n=n,
        set_a=tuple(xs),
        set_b=tuple(ys),
        value=val(xs[0] ^ ys[0]),
        verified=True,
        params={"target": s, "n": n, "evaluations": spent},
    )


def subspace_count(ambient: int, ell: int) -> int:
    """Number of ell-dimensional subspaces of F_2^ambient (Gaussian binomial)."""
    num = 1
    den = 1
    for i in range(ell):
        num *= (1 << ambient) - (1 << i)
        den *= (1 << ell) - (1 << i)
    return num // den


def _rref_subspaces(ambient: int, ell: int):
    """Yield one RREF basis (list of packed rows) per ell-dim subspace."""
    for pivots in combinations(range(ambient), ell):
        pivot_set = set(pivots)
        free_cells = [
            [j for j in range(c + 1, ambient) if j not in pivot_set] for c in pivots
        ]
        total = sum(len(cells) for cells in free_cells)
        for assign in range(1 << total):
            rows = []
            pos = 0
            for i, c in enumerate(pivots):
                row = 1 << c
                for j in free_cells[i]:
                    if (assign >> pos) & 1:
                        row |= 1 << j
                    pos += 1
                rows.append(row)
            yield rows


def _ambient(subject: Union[EvasiveDescriptor, tuple[int, Sequence[int]]]) -> int:
    """Length of the audited points, read without building them; refuses a bad explicit set."""
    if isinstance(subject, EvasiveDescriptor):
        return subject.k + subject.r
    n, words = subject
    if not words:
        raise PreconditionError("point set must be nonempty")
    check_words(n, words)
    return n


def _evasive_point_set(subject: Union[EvasiveDescriptor, tuple[int, Sequence[int]]]) -> set[int]:
    """The audited set as packed words; a descriptor lifts all 2^k domain points."""
    if isinstance(subject, EvasiveDescriptor):
        return {lift_point(subject.polys, xb) for xb in range(1 << subject.k)}
    return set(subject[1])


def subspace_evasive_audit(
    subject: Union[EvasiveDescriptor, tuple[int, Sequence[int]]],
    ell: int,
    threshold: int,
    mode: str = "exhaustive",
    budget: int = 10**6,
    stream: Optional[Random] = None,
) -> AuditReport:
    """Does every ell-dimensional subspace meet the set in < threshold points?

    Exhaustive mode walks all subspaces via their RREF bases (ambient <= 10,
    ell <= 3, subspace count within budget) and gives an exact verdict with a
    violating basis when one exists.  Randomized mode samples ``budget``
    random domain subsets of size ``threshold`` and flags any whose image has
    span dimension <= ell; the flag rate is reported and the verdict is
    "no flags".

    Each mode checks its arguments before it builds the point set, since a
    descriptor's points cost one lift through all r polynomials each; the
    randomized mode lifts only the points it samples.
    """
    if threshold < 1:
        raise PreconditionError("threshold must be positive")
    amb = _ambient(subject)
    if mode == "exhaustive":
        if amb > 10 or ell > 3:
            raise PreconditionError("exhaustive mode is limited to ambient <= 10, ell <= 3")
        total = subspace_count(amb, ell)
        check_budget(f"exhaustive audit of {ell}-dimensional subspaces", budget, total)
        points = _evasive_point_set(subject)
        worst = 0
        witness_rows: Optional[list[int]] = None
        for rows in _rref_subspaces(amb, ell):
            hits = sum(1 for p in enumerate_span(rows) if p in points)
            if hits > worst:
                worst = hits
                if hits >= threshold:
                    witness_rows = rows
                    break
        verdict = worst < threshold
        extra = {
            "mode": "exhaustive",
            "ell": ell,
            "threshold": threshold,
            "ambient": amb,
            "subspaces": total,
            "max_intersection": worst,
            "witness_basis": [word_string(amb, r) for r in witness_rows] if witness_rows else None,
        }
        return AuditReport(
            kind="subspace-evasive",
            verdict=verdict,
            per_source=[extra],
        )
    if mode != "randomized":
        raise PreconditionError(f"unknown mode {mode!r}")
    if stream is None:
        raise PreconditionError("randomized mode needs a stream")
    if budget < 1:
        raise PreconditionError("budget must be positive")
    if isinstance(subject, EvasiveDescriptor):
        k, polys = subject.k, subject.polys
        if threshold > (1 << k):
            raise PreconditionError("threshold exceeds the domain size")

        def draw_image() -> list[int]:
            chosen: set[int] = set()
            while len(chosen) < threshold:
                chosen.add(stream.getrandbits(k))
            return [lift_point(polys, xb) for xb in chosen]
    else:
        pts_list = sorted(_evasive_point_set(subject))
        if threshold > len(pts_list):
            raise PreconditionError("cannot sample more points than the set holds")
        draw_image = lambda: rng.sample(stream, pts_list, threshold)
    flags = 0
    first_flag: Optional[list[str]] = None
    for _ in range(budget):
        image = draw_image()
        if span_rank(image) <= ell:
            flags += 1
            if first_flag is None:
                first_flag = [word_string(amb, p) for p in image]
    extra = {
        "mode": "randomized",
        "ell": ell,
        "threshold": threshold,
        "ambient": amb,
        "trials": budget,
        "flag_rate": flags / budget,
        "first_flagged_image": first_flag,
    }
    return AuditReport(
        kind="subspace-evasive",
        verdict=flags == 0,
        per_source=[extra],
    )


def sumset_evasive_audit(
    subject: Union[EvasiveDescriptor, tuple[int, Sequence[int]]],
    t: int,
    budget: int,
    stream: Random,
) -> AuditReport:
    """Randomized hunt for A + B inside the set with |A| = |B| = 2^t.

    Seeds come from pairs of set elements whose sum stays inside; growth
    alternates sides with membership-checked random candidates (generated in
    the k-bit projection when the set is the graph of a polynomial map).  A
    found witness is verified exhaustively and fails the audit; no witness
    within budget passes it.
    """
    if t < 0:
        raise PreconditionError("t must be nonnegative")
    if budget < 1:
        raise PreconditionError("budget must be positive")
    amb = _ambient(subject)
    points = _evasive_point_set(subject)
    if isinstance(subject, EvasiveDescriptor):
        k, polys = subject.k, subject.polys
        draw = lambda: lift_point(polys, stream.getrandbits(k))
    else:
        pts_list = sorted(points)
        draw = lambda: pts_list[stream.randrange(len(pts_list))]
    found, spent = _grow_sumset(draw, lambda _seed_sum: points.__contains__, 1 << t, budget)
    witness = None if found is None else AttackWitness(
        n=amb,
        set_a=tuple(found[0]),
        set_b=tuple(found[1]),
        value=0,
        verified=True,
        params={"t": t, "evaluations": spent},
    )
    extra = {
        "t": t,
        "target": 1 << t,
        "evaluations": spent,
        "witness": witness.to_json_dict() if witness else None,
    }
    return AuditReport(
        kind="sumset-evasive",
        verdict=witness is None,
        per_source=[extra],
    )


def dichotomy_check(n: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, int, set[int]]:
    """Span dimensions of two nonempty n-bit word sets and their exact inner-product values."""
    if not a or not b:
        raise PreconditionError("both sets must be nonempty")
    check_words(n, a, b)
    check_budget("pair enumeration", PAIR_BUDGET, len(a) * len(b))
    dim_a, dim_b = span_rank(a), span_rank(b)
    values: set[int] = set()
    for x in a:
        for y in b:
            values.add((x & y).bit_count() & 1)
            if len(values) == 2:
                return dim_a, dim_b, values
    return dim_a, dim_b, values

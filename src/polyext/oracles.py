"""Adversarial and counting procedures: energy partitions, shift counts,
structure attacks, and evasiveness audits.

Everything here either certifies a structural property by brute force or
attacks one by randomized search.  Searches are best-effort and seeded:
absence of a witness is an ordinary outcome, but any witness that is returned
has been re-verified exhaustively before the verified flag is set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from random import Random
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import anf
from .anf import Polynomial, eval_bits, monomial_order
from .constructions import EvasiveDescriptor, lift_point
from .errors import BudgetExceededError, PreconditionError, RetryExhaustedError
from .gf2 import BitVector, XorBasis, enumerate_span, nullspace_basis, span_rank
from .reports import AuditReport

__all__ = [
    "EnergyPartition",
    "AttackWitness",
    "additive_energy",
    "pair_energies",
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


def additive_energy(x: Sequence[BitVector], y: Sequence[BitVector]) -> int:
    """Number of quadruples (x, y, x', y') with x + y = x' + y'.

    Computed as the sum of squared sum-multiplicities; equals |X| * |Y| exactly
    when all pairwise sums are distinct.
    """
    if len(x) * len(y) > PAIR_BUDGET:
        raise BudgetExceededError("pair enumeration exceeds the 2^26 budget")
    counts: dict[int, int] = {}
    ybits = [v.bits for v in y]
    for xv in x:
        xb = xv.bits
        for yb in ybits:
            s = xb ^ yb
            counts[s] = counts.get(s, 0) + 1
    return sum(c * c for c in counts.values())


#: Part-pair sums per kernel block (64 KiB of int64 words), unless one pair
#: alone holds more.  Small blocks keep peak memory flat: on the registry's
#: energy-partition experiment (x86-64, numpy 2.4), 2^13 sums add under
#: 1 MiB of peak RSS where 2^16 or more add about 5 MiB, and run no slower.
LIVE_SUMS = 1 << 13


def _pack(parts: Sequence[Sequence[BitVector]]) -> np.ndarray:
    """Equal-size parts as a (parts, part_size) array of packed words.

    Words up to 63 bits wide fit int64 without wrapping; wider vectors fall
    back to an object array of Python ints, on which XOR, sorting and
    equality behave the same.
    """
    width = max(v.n for part in parts for v in part)
    dtype = np.int64 if width <= 63 else object
    return np.array([[v.bits for v in part] for part in parts], dtype=dtype)


def _pair_sums(xs: np.ndarray, ys: np.ndarray):
    """Yield ``(rows, cols, sums)`` blocks that cover every part pair (i, j).

    ``sums[a, b]`` holds all |X_i| * |Y_j| sums x + y of the pair
    (rows.start + a, cols.start + b), formed by one XOR broadcast of the
    parts with each word repeated, resp. tiled, to the row width.  A block
    spans as many pairs as fit in LIVE_SUMS sums, and at least one, so only
    a pair larger than that, as at t = 0 where one part holds every point,
    makes a larger block.
    """
    x_wide = np.repeat(xs, ys.shape[1], axis=1)
    y_wide = np.tile(ys, (1, xs.shape[1]))
    width = x_wide.shape[1]
    y_step = min(len(ys), max(1, LIVE_SUMS // width))
    x_step = max(1, LIVE_SUMS // (width * y_step))
    for i in range(0, len(xs), x_step):
        for j in range(0, len(ys), y_step):
            rows, cols = slice(i, i + x_step), slice(j, j + y_step)
            yield rows, cols, x_wide[rows, None, :] ^ y_wide[None, cols, :]


def _max_fiber(xs: np.ndarray, ys: np.ndarray) -> int:
    """Largest sum-fiber |{(x, y) in X_i x Y_j : x + y = w}| over all i, j, w.

    Each pair's sums are sorted, so equal sums sit in runs, and some run is
    longer than f exactly when a sorted row repeats a value f places on.
    Growing f from 1 until no row does reads off the longest run.  No fiber
    exceeds a part, so that is at most part_size whole-block comparisons, and
    a few for the small fibers of random parts.
    """
    biggest = 1
    for _, _, sums in _pair_sums(xs, ys):
        ordered = np.sort(sums, axis=2)
        while biggest < ordered.shape[2] and (
            ordered[..., biggest:] == ordered[..., :-biggest]
        ).any():
            biggest += 1
    return biggest


def pair_energies(
    x_parts: Sequence[Sequence[BitVector]], y_parts: Sequence[Sequence[BitVector]]
) -> np.ndarray:
    """E(X_i, Y_j) for every part pair, as a (len(x_parts), len(y_parts)) array.

    Batched equivalent of ``additive_energy`` on each pair, LIVE_SUMS sums
    at a time.  It re-verifies an ``energy_partition`` result, so it counts
    along a different route from the fiber check, and a fault in one count
    cannot hide in the other: instead of sorting each pair's sums and
    reading run lengths, it packs every sum with its pair index into one
    key, counts the distinct keys with ``np.unique`` and adds the squared
    counts per pair.  Keys stay int64 while pair index and sum fit in 63
    bits together and become Python ints beyond that.
    """
    xs, ys = _pack(x_parts), _pack(y_parts)
    shift = max(int(xs.max()), int(ys.max())).bit_length()  # every sum is below 2^shift
    energies = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for rows, cols, sums in _pair_sums(xs, ys):
        x_count, y_count, width = sums.shape
        pairs = x_count * y_count
        dtype = np.int64 if shift + pairs.bit_length() <= 63 else object
        pair_of = np.arange(pairs, dtype=dtype).repeat(width)
        keys = (pair_of << shift) | sums.ravel().astype(dtype, copy=False)
        distinct, counts = np.unique(keys, return_counts=True)
        block = np.zeros(pairs, dtype=np.int64)
        np.add.at(block, (distinct >> shift).astype(np.int64), counts * counts)
        energies[rows, cols] = block.reshape(x_count, y_count)
    return energies


@dataclass(frozen=True)
class EnergyPartition:
    """Equal random partitions of X and Y with all sum-fibers capped at ell.

    The cap on every fiber |A_w^(i,j)| <= ell certifies the pairwise energy
    bound E(X_i, Y_j) <= ell^2 * 2^(2(k-t)).
    """

    x_parts: tuple[tuple[BitVector, ...], ...]
    y_parts: tuple[tuple[BitVector, ...], ...]
    t: int
    ell: int
    max_fiber: int
    retries_used: int

    def energy_cap(self) -> int:
        part = len(self.x_parts[0])
        return self.ell * self.ell * part * part

    def verify(self, x: Sequence[BitVector], y: Sequence[BitVector]) -> bool:
        """Re-check the partition property and the fiber cap from scratch.

        The largest fiber is recounted from the parts; the stored
        ``max_fiber`` must equal it and both must respect ``ell``.
        """
        flat_x = [v for part in self.x_parts for v in part]
        flat_y = [v for part in self.y_parts for v in part]
        if sorted(flat_x, key=BitVector.canonical_key) != sorted(x, key=BitVector.canonical_key):
            return False
        if sorted(flat_y, key=BitVector.canonical_key) != sorted(y, key=BitVector.canonical_key):
            return False
        sizes = {len(p) for p in self.x_parts} | {len(p) for p in self.y_parts}
        if sizes != {len(x) >> self.t}:
            return False
        fiber = _max_fiber(_pack(self.x_parts), _pack(self.y_parts))
        return fiber == self.max_fiber and fiber <= self.ell


def energy_partition(
    x: Sequence[BitVector],
    y: Sequence[BitVector],
    t: int,
    ell: int,
    stream: Random,
    retries: int = 100,
) -> EnergyPartition:
    """Resample whole uniform partitions until every sum-fiber has <= ell pairs.

    Requires |X| = |Y| = 2^k with t <= k.  The stated sufficient condition
    ell >= 4, t >= (k/(ell-1)) * (1 + ell/2) is advisory: parameters outside
    it only trigger a warning, since the resampling loop may still succeed.

    Each resample shuffles both sets, packs the parts into word arrays and
    forms every part pair's sums by one XOR broadcast, LIVE_SUMS sums at a
    time; the largest fiber is read off sorted runs (see ``_max_fiber``).
    """
    size = len(x)
    if size == 0 or size & (size - 1) or len(y) != size:
        raise PreconditionError("need |X| = |Y| = 2^k")
    k = size.bit_length() - 1
    if not 0 <= t <= k:
        raise PreconditionError("need 0 <= t <= k so 2^t parts divide the sets")
    if ell < 4 or t < (k / max(ell - 1, 1)) * (1 + ell / 2):
        warnings.warn(
            "parameters violate the sufficient condition ell >= 4, "
            "t >= (k/(ell-1))(1+ell/2); the partition search may stall",
            stacklevel=2,
        )
    parts = 1 << t
    part_size = size >> t
    for attempt in range(retries):
        xs = list(x)
        ys = list(y)
        stream.shuffle(xs)
        stream.shuffle(ys)
        x_parts = [xs[i * part_size : (i + 1) * part_size] for i in range(parts)]
        y_parts = [ys[i * part_size : (i + 1) * part_size] for i in range(parts)]
        max_fiber = _max_fiber(_pack(x_parts), _pack(y_parts))
        if max_fiber <= ell:
            return EnergyPartition(
                x_parts=tuple(tuple(p) for p in x_parts),
                y_parts=tuple(tuple(p) for p in y_parts),
                t=t,
                ell=ell,
                max_fiber=max_fiber,
                retries_used=attempt,
            )
    raise RetryExhaustedError(f"no admissible partition within {retries} resamples")


def cw_shift_count(
    f: Polynomial, v_basis: Sequence[BitVector]
) -> tuple[int, Union[int, object], bool]:
    """Count x whose whole V-shift orbit stays inside the zero set of f.

    f must vanish on span(V) — verified first, error otherwise.  The returned
    bound is 2^(n - sum_{j<d} (d-j) C(t, j)) with d the actual degree of f
    and t = dim span(V); the verdict says whether count >= bound.
    """
    n = f.order.n
    if (1 << n) > SHIFT_BUDGET:
        raise BudgetExceededError("shift counting is capped at 2^24 points")
    if any(v.n != n for v in v_basis):
        raise PreconditionError("basis vectors must match the polynomial's width")
    span = enumerate_span(v.bits for v in v_basis)
    table = anf.truth_table(f)
    for v in span:
        if table[v]:
            raise PreconditionError("f does not vanish on span(V)")
    ok = np.ones(1 << n, dtype=bool)
    idx = np.arange(1 << n)
    for v in span:
        ok &= table[idx ^ v] == 0
    count = int(ok.sum())
    d = f.degree()
    t = span_rank(v.bits for v in v_basis)
    from math import comb

    exponent = n - sum((d - j) * comb(t, j) for j in range(d))
    if exponent >= 0:
        bound: Union[int, object] = 1 << exponent
    else:
        from fractions import Fraction

        bound = Fraction(1, 1 << (-exponent))
    return count, bound, count >= bound


def sample_vanishing_poly(
    n: int, d: int, v_basis: Sequence[BitVector], stream: Random
) -> Polynomial:
    """Uniform degree-<=d polynomial vanishing on span(V), via the constraint nullspace.

    The constraints are the evaluation vectors of every span point; a uniform
    combination of the nullspace basis is exact by construction.
    """
    order = monomial_order(n, d)
    span = enumerate_span(v.bits for v in v_basis)
    rows = [eval_bits(p, order) for p in span]
    basis = nullspace_basis(rows, order.size)
    coeffs = 0
    if basis:
        r = stream.getrandbits(len(basis))
        for i, b in enumerate(basis):
            if (r >> i) & 1:
                coeffs ^= b
    return Polynomial(order, BitVector(order.size, coeffs))


@dataclass(frozen=True)
class AttackWitness:
    """Two point sets on which the attacked function is constant.

    ``verified`` is only ever True after an exhaustive re-evaluation of every
    pair confirmed the constant value.
    """

    set_a: tuple[BitVector, ...]
    set_b: tuple[BitVector, ...]
    value: int
    verified: bool
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "set_a": [v.to_string() for v in self.set_a],
            "set_b": [v.to_string() for v in self.set_b],
            "value": self.value,
            "verified": self.verified,
            "params": dict(self.params),
        }


def verify_constancy(
    family: Sequence[Polynomial],
    xs: Sequence[BitVector],
    ys: Sequence[BitVector],
    value: int,
) -> bool:
    """Exhaustively confirm f_y(x) = value for all x in X, y in Y."""
    if not xs or not ys:
        return False
    order = family[0].order
    evals = [eval_bits(x.bits, order) for x in xs]
    for yv in ys:
        coeffs = family[yv.bits].coeffs.bits
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
    if n > 12:
        raise PreconditionError("explicit family storage is capped at n = 12")
    order = family[0].order
    if any(p.order is not order for p in family):
        raise PreconditionError("family members must share one monomial order")
    if not 1 <= t <= n:
        raise PreconditionError("need 1 <= t <= n")
    ones = sum(f.coeffs.bits & 1 for f in family)
    b = 1 if 2 * ones > size else 0
    pool = [y for y in range(size) if (family[y].coeffs.bits & 1) == b]
    coeff_by_y = [f.coeffs.bits for f in family]
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
    xs = tuple(BitVector(n, p) for p in best_span)
    ys = tuple(BitVector(n, y) for y in best_y)
    verified = verify_constancy(family, xs, ys, b)
    if not verified:
        raise AssertionError("survivor set failed re-verification; this is a bug")
    return AttackWitness(
        set_a=xs,
        set_b=ys,
        value=b,
        verified=verified,
        params={"t": t, "n": n, "target": target, "success": len(best_y) >= target},
    )


def monochromatic_sumset_search(
    f: Polynomial,
    s: int,
    budget: int,
    stream: Random,
) -> Optional[AttackWitness]:
    """Greedy alternating search for A, B of size >= s with f constant on A + B.

    From a random seed pair the A side and B side take turns absorbing random
    candidates that keep every cross sum on the seed color; stalls trigger a
    restart.  ``budget`` counts candidate evaluations across all restarts.
    Returns a verified witness or None — absence is an ordinary outcome.
    """
    if s < 1:
        raise PreconditionError("target size must be positive")
    n = f.order.n
    coeffs = f.coeffs.bits
    order = f.order

    def val(xb: int) -> int:
        return (coeffs & eval_bits(xb, order)).bit_count() & 1

    spent = 0
    stall_limit = max(64, 16 * s)
    while spent < budget:
        a0 = stream.getrandbits(n)
        b0 = stream.getrandbits(n)
        spent += 1
        color = val(a0 ^ b0)
        set_a = {a0}
        set_b = {b0}
        stalls = 0
        grow_a = True
        while spent < budget and stalls < stall_limit:
            cand = stream.getrandbits(n)
            spent += 1
            other = set_b if grow_a else set_a
            mine = set_a if grow_a else set_b
            if cand in mine:
                stalls += 1
                grow_a = not grow_a
                continue
            if all(val(cand ^ o) == color for o in other):
                mine.add(cand)
                stalls = 0
            else:
                stalls += 1
            grow_a = not grow_a
            if len(set_a) >= s and len(set_b) >= s:
                xs = tuple(BitVector(n, x) for x in sorted(set_a))
                ys = tuple(BitVector(n, x) for x in sorted(set_b))
                if all(val(x.bits ^ y.bits) == color for x in xs for y in ys):
                    return AttackWitness(
                        set_a=xs,
                        set_b=ys,
                        value=color,
                        verified=True,
                        params={"target": s, "n": n, "evaluations": spent},
                    )
                raise AssertionError("greedy growth broke the color invariant; bug")
    return None


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


def _evasive_point_set(
    subject: Union[EvasiveDescriptor, Sequence[BitVector]],
) -> tuple[set[int], int]:
    if isinstance(subject, EvasiveDescriptor):
        amb = subject.k + subject.r
        pts = {
            lift_point(subject.polys, BitVector(subject.k, xb))
            for xb in range(1 << subject.k)
        }
        return pts, amb
    pts_list = list(subject)
    if not pts_list:
        raise PreconditionError("point set must be nonempty")
    amb = pts_list[0].n
    return {v.bits for v in pts_list}, amb


def subspace_evasive_audit(
    subject: Union[EvasiveDescriptor, Sequence[BitVector]],
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
    """
    if threshold < 1:
        raise PreconditionError("threshold must be positive")
    points, amb = _evasive_point_set(subject)
    if mode == "exhaustive":
        if amb > 10 or ell > 3:
            raise PreconditionError("exhaustive mode is limited to ambient <= 10, ell <= 3")
        total = subspace_count(amb, ell)
        if total > budget:
            raise BudgetExceededError(
                f"{total} subspaces exceed the exhaustive budget {budget}"
            )
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
            "witness_basis": (
                [BitVector(amb, r).to_string() for r in witness_rows]
                if witness_rows
                else None
            ),
        }
        return AuditReport(
            kind="subspace-evasive",
            verdict=verdict,
            epsilon=None,
            max_distance=None,
            witness_source_index=None,
            per_source=[extra],
        )
    if mode != "randomized":
        raise PreconditionError(f"unknown mode {mode!r}")
    if stream is None:
        raise PreconditionError("randomized mode needs a stream")
    lift: Optional[Callable[[int], int]] = None
    domain_bits: Optional[int] = None
    if isinstance(subject, EvasiveDescriptor):
        if threshold > (1 << subject.k):
            raise PreconditionError("threshold exceeds the domain size")
        domain_bits = subject.k
        lift = lambda xb: lift_point(subject.polys, BitVector(subject.k, xb))
    else:
        pts_list = sorted(points)
    flags = 0
    first_flag: Optional[list[str]] = None
    for _ in range(budget):
        if domain_bits is not None:
            chosen: set[int] = set()
            while len(chosen) < threshold:
                chosen.add(stream.getrandbits(domain_bits))
            image = [lift(xb) for xb in chosen]
        else:
            image = [pts_list[i] for i in _sample_indices(len(pts_list), threshold, stream)]
        if span_rank(image) <= ell:
            flags += 1
            if first_flag is None:
                first_flag = [BitVector(amb, p).to_string() for p in image]
    extra = {
        "mode": "randomized",
        "ell": ell,
        "threshold": threshold,
        "ambient": amb,
        "trials": budget,
        "flag_rate": flags / budget if budget else 0.0,
        "first_flagged_image": first_flag,
    }
    return AuditReport(
        kind="subspace-evasive",
        verdict=flags == 0,
        epsilon=None,
        max_distance=None,
        witness_source_index=None,
        per_source=[extra],
    )


def _sample_indices(n: int, k: int, stream: Random) -> list[int]:
    if k > n:
        raise PreconditionError("cannot sample more points than the set holds")
    return stream.sample(range(n), k)


def sumset_evasive_audit(
    subject: Union[EvasiveDescriptor, Sequence[BitVector]],
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
    target = 1 << t
    graph = isinstance(subject, EvasiveDescriptor)
    points, amb = _evasive_point_set(subject)
    pts_list = sorted(points)

    if graph:
        def random_point(rs: Random) -> int:
            return lift_point(subject.polys, BitVector(subject.k, rs.getrandbits(subject.k)))
    else:
        def random_point(rs: Random) -> int:
            return pts_list[rs.randrange(len(pts_list))]

    spent = 0
    witness: Optional[AttackWitness] = None
    stall_limit = max(64, 16 * target)
    while spent < budget and witness is None:
        a0 = random_point(stream)
        b0 = random_point(stream)
        spent += 1
        if a0 ^ b0 not in points:
            continue
        set_a = {a0}
        set_b = {b0}
        stalls = 0
        grow_a = True
        while spent < budget and stalls < stall_limit:
            cand = random_point(stream)
            spent += 1
            mine = set_a if grow_a else set_b
            other = set_b if grow_a else set_a
            if cand not in mine and all(cand ^ o in points for o in other):
                mine.add(cand)
                stalls = 0
            else:
                stalls += 1
            grow_a = not grow_a
            if len(set_a) >= target and len(set_b) >= target:
                xs = tuple(BitVector(amb, x) for x in sorted(set_a))
                ys = tuple(BitVector(amb, x) for x in sorted(set_b))
                if not all(x.bits ^ y.bits in points for x in xs for y in ys):
                    raise AssertionError("sumset growth broke membership; bug")
                witness = AttackWitness(
                    set_a=xs,
                    set_b=ys,
                    value=0,
                    verified=True,
                    params={"t": t, "evaluations": spent},
                )
                break
    extra = {
        "t": t,
        "target": target,
        "evaluations": spent,
        "witness": witness.to_json_dict() if witness else None,
    }
    return AuditReport(
        kind="sumset-evasive",
        verdict=witness is None,
        epsilon=None,
        max_distance=None,
        witness_source_index=None,
        per_source=[extra],
    )


def dichotomy_check(
    a: Sequence[BitVector], b: Sequence[BitVector]
) -> tuple[int, int, set[int]]:
    """Span dimensions of both sets and the exact set of inner-product values."""
    if not a or not b:
        raise PreconditionError("both sets must be nonempty")
    if len(a) * len(b) > PAIR_BUDGET:
        raise BudgetExceededError("pair enumeration exceeds the 2^26 budget")
    dim_a = span_rank(v.bits for v in a)
    dim_b = span_rank(v.bits for v in b)
    values: set[int] = set()
    bbits = [v.bits for v in b]
    for av in a:
        ab = av.bits
        for yb in bbits:
            values.add((ab & yb).bit_count() & 1)
            if len(values) == 2:
                return dim_a, dim_b, values
    return dim_a, dim_b, values

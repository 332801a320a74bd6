"""The four closed-loop workloads of the polyext benchmark.

Every workload draws its units from a fixed pool of *rounds*.  Round ``j`` of
a workload is fully determined by ``(POOL_SEED, workload, j)``, so one
committed digest per round (``reference.json``) checks the program's output
for any run seed: the run seed only chooses the order in which rounds are
visited (see :func:`round_order`).  A round is the smallest group of units
that is checked together: 1000 special draws (the TV check needs them), one
energy-partition experiment, one pass over 11 registry experiments, or one
Monte-Carlo call per source kind.

Only public polyext API is used, and always through the module attribute
(``ranklab.special_sumset_sampler``, not a local binding), so the tracer's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from polyext import anf, bias, experiments, ranklab, rng, sources
from polyext.gf2 import BitVector, XorBasis

POOL_SEED = 2405_10297
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def digest(obj) -> str:
    """Short stable hash of a JSON-able value (Fractions hash as "a/b")."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def report_digest(report) -> str:
    """Digest of an experiment report's rows, aggregates and verdict only.

    The worker count and the wall time are left out on purpose, so dropping
    the ``workers`` field or changing the timing does not break the reference.
    """
    return digest({"rows": report.rows, "aggregates": report.aggregates, "verdict": report.verdict})


def round_order(workload: str, seed: int, pool_rounds: int) -> list[int]:
    """The run seed's permutation of the pool; a run visits it cyclically."""
    return random.Random(f"perfbench/{workload}/{seed}").sample(range(pool_rounds), pool_rounds)


class UnitError:
    """Stands in for the output of a unit that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"UnitError({self.text})"


class Workload:
    """One pool of rounds plus the checks that judge a round's outputs.

    ``prepare`` is the set-up work (inputs and exact reference values),
    ``unit(j, k)`` runs unit ``k`` of round ``j`` and returns its output,
    and ``check(j, outputs)`` returns (per-unit verdicts, digests), where the
    digests are compared with the committed ``reference.json`` entry.
    """

    name = ""
    units_per_round = 1
    pool_rounds = 1
    trace_rounds = 1  # rounds in one traced pass; fixed, so call counts repeat

    def prepare(self) -> None:
        pass

    def unit(self, j: int, k: int):
        raise NotImplementedError

    def check(self, j: int, outputs: list) -> tuple[list[bool], list[str]]:
        raise NotImplementedError


class SpecialSumset(Workload):
    """Criterion 05's loop body: one special draw plus its two picks."""

    name = "special-sumset"
    units_per_round = 1000
    pool_rounds = 256
    trace_rounds = 4
    TV_BOUND = 0.2

    def prepare(self) -> None:
        self.u6 = sources.uniform_flat(6)

    def unit(self, j: int, k: int):
        stream = rng.derive(POOL_SEED, self.name, j, k)
        draw = ranklab.special_sumset_sampler(self.u6, self.u6, 2, 6, 1000, stream)
        x = draw.x_star[stream.randrange(len(draw.x_star))].bits
        y = draw.y_star[stream.randrange(len(draw.y_star))].bits
        return (draw.full_rank, x, y)

    def check(self, j, outputs):
        good = [o for o in outputs if not isinstance(o, UnitError)]
        tv_ok = bool(good) and max(self._tv(good, 1), self._tv(good, 2)) <= self.TV_BOUND
        verdicts = [
            tv_ok and not isinstance(o, UnitError) and o[0] is True for o in outputs
        ]
        picks = [o.text if isinstance(o, UnitError) else list(o) for o in outputs]
        return verdicts, [digest(picks)]

    @staticmethod
    def _tv(outputs, col: int) -> float:
        counts = [0] * 64
        for o in outputs:
            counts[o[col]] += 1
        total = len(outputs)
        return sum(abs(c / total - 1 / 64) for c in counts) / 2


class EnergyPartition(Workload):
    """Criterion 09: one single-trial energy-partition experiment per unit."""

    name = "energy-partition"
    units_per_round = 1
    pool_rounds = 1024
    trace_rounds = 8

    def unit(self, j, k):
        config = experiments.config_from_dict(
            {"experiment": self.name, "seed": rng.derive_seed(POOL_SEED, self.name, j), "trials": 1}
        )
        return experiments.run_experiment(config)

    def check(self, j, outputs):
        return _report_checks(outputs)


#: The 11 registry experiments other than the two hot paths, at 0.1x the
#: release trial counts of scripts/run_all_experiments.py.
REGISTRY_TRIALS = {
    "bias-concentration": 200,
    "cw-shifts": 20,
    "dichotomy": 50,
    "disperser-attack": 10,
    "high-rank-subsets": 100,
    "interpolating-rank": 10,
    "moment-identity": 20,
    "rank-monotonicity": 100,
    "seeded-structure": 10,
    "two-source-degree": 10,
    "variety-reduction": 10,
}


class RegistryMix(Workload):
    """One pass = every other registry experiment once, on a fresh master seed."""

    name = "registry-mix"
    units_per_round = len(REGISTRY_TRIALS)
    pool_rounds = 128
    trace_rounds = 2
    NAMES = sorted(REGISTRY_TRIALS)

    def unit(self, j, k):
        name = self.NAMES[k]
        config = experiments.config_from_dict(
            {
                "experiment": name,
                "seed": rng.derive_seed(POOL_SEED, self.name, j),
                "trials": REGISTRY_TRIALS[name],
            }
        )
        return experiments.run_experiment(config)

    def check(self, j, outputs):
        return _report_checks(outputs)


def _report_checks(outputs):
    verdicts = [not isinstance(o, UnitError) and o.verdict is True for o in outputs]
    digests = [o.text if isinstance(o, UnitError) else report_digest(o) for o in outputs]
    return verdicts, digests


class BiasMC(Workload):
    """Round-robin Monte-Carlo bias estimates, one (poly, source) pair per kind.

    The five directly sampled kinds output 16 bits and are read by one
    degree-5 polynomial, so evaluating it dominates and those five units cost
    about the same: the median unit latency sits among them whatever a
    Variety change does.  The Variety is n=18 with two quadratics, read by a
    quadratic.
    """

    name = "bias-mc"
    KINDS = ("flat", "affine", "sumset", "local", "polyimage", "variety")
    units_per_round = len(KINDS)
    pool_rounds = 128
    trace_rounds = 2
    SAMPLES = 64
    FAIL_PROB = 0.01
    N = 16

    def prepare(self) -> None:
        s = rng.derive(POOL_SEED, self.name, "pairs")
        n = self.N
        f = anf.sample_poly(n, 5, s)
        basis, xb = [], XorBasis()
        while len(basis) < 8:
            w = s.getrandbits(n)
            if w and xb.add(w):
                basis.append(BitVector(n, w))

        def flat(size: int) -> sources.Flat:
            return sources.Flat(n, tuple(BitVector(n, b) for b in s.sample(range(1 << n), size)))

        local_bits = tuple(
            sources.LocalBit(tuple(s.sample(range(10), 3)), tuple(s.getrandbits(1) for _ in range(8)))
            for _ in range(n)
        )
        variety = sources.Variety(18, (anf.sample_poly(18, 2, s), anf.sample_poly(18, 2, s)))
        self.pairs = [
            (f, flat(256)),
            (f, sources.Affine(n, BitVector(n, s.getrandbits(n)), tuple(basis))),
            (f, sources.Sumset(flat(32), flat(32))),
            (f, sources.Local(3, 10, local_bits)),
            (f, sources.PolynomialImage(6, tuple(anf.sample_poly(6, 2, s) for _ in range(n)))),
            (anf.sample_poly(18, 2, s), variety),
        ]
        self.exact = [bias.bias_exact(p, src) for p, src in self.pairs]

    def unit(self, j, k):
        poly, src = self.pairs[k]
        stream = rng.derive(POOL_SEED, self.name, j, k)
        return bias.bias_mc(poly, src, self.SAMPLES, self.FAIL_PROB, stream)

    def check(self, j, outputs):
        verdicts, digests = [], []
        for k, o in enumerate(outputs):
            if isinstance(o, UnitError):
                verdicts.append(False)
                digests.append(o.text)
                continue
            exact: Fraction = self.exact[k]
            verdicts.append(abs(Fraction(o.estimate) - exact) <= Fraction(o.halfwidth))
            digests.append(digest([o.estimate, o.samples, o.halfwidth, o.fail_prob]))
        return verdicts, digests


WORKLOADS = {w.name: w for w in (SpecialSumset, EnergyPartition, RegistryMix, BiasMC)}


def load_reference(name: str) -> list[list[str]]:
    """Committed per-round digests of one workload, indexed by pool round."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("pool_seed") != POOL_SEED:
        raise ValueError("reference.json was made for another pool seed")
    return data["workloads"][name]

"""Seeded experiment registry and the orchestrator that runs it.

Each experiment is a named pipeline: a per-trial procedure drawing all its
randomness from a stream derived as ``(master seed, experiment, trial)``, plus
an aggregator folding the trial rows into summary statistics and a verdict.
Because every trial stream is a function of the config alone, reports are
byte-identical across re-runs (the wall-time field aside).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from . import rng, sources
from .anf import anf_from_truth_table, check_order, mobius_transform, sample_poly, truth_table
from .bias import moment_by_eval_collision, moment_by_poly_enumeration, moment_walk
from .codes import johnson_check, measured_imbalance
from .constructions import (
    build_seeded,
    build_two_source,
    seeded_table,
    two_source_table,
)
from .errors import PreconditionError, RetryExhaustedError, check_budget
from .gf2 import (
    BitMatrix,
    XorBasis,
    apply_rows,
    binom_sum,
    enumerate_span,
    hamming_ball,
    sample_invertible,
    sample_uniform_matrix,
    subset_xors,
)
from .io import _field, _typed
from .oracles import (
    FAMILY_BUDGET,
    cw_shift_count,
    dichotomy_check,
    disperser_attack,
    energy_partition,
    sample_vanishing_poly,
)
from .ranklab import eval_rank, eval_rank_words, find_high_rank_subsets, special_sumset_sampler
from .reports import ExperimentReport
from .sources import Flat, common_zeros, uniform_flat, variety_reduce

__all__ = ["ExperimentConfig", "EXPERIMENTS", "run_experiment", "config_from_dict"]


@dataclass(frozen=True)
class _Entry:
    defaults: dict
    trial: Callable  # (params, stream) -> row dict
    aggregate: Callable  # (rows, params) -> (aggregates dict, verdict bool)


def _independent_words(n: int, count: int, stream) -> list[int]:
    basis = XorBasis()
    out: list[int] = []
    while len(out) < count:
        w = stream.getrandbits(n)
        if w and basis.add(w):
            out.append(w)
    return out


def _all_ok(flag: str):
    def agg(rows, params):
        bad = sum(1 for r in rows if not r[flag])
        return {"violations": bad}, bad == 0

    return agg


# --- moment identity -------------------------------------------------------

def _moment_trial(params, stream):
    n, d, t, most = params["n"], params["d"], params["t"], params["max_support"]
    # F_2^n holds 2^n points; capping n at the bit length of most keeps the min exact
    cap = min(most, 1 << min(n, most.bit_length()))
    moment_walk(n, d, cap, f"moment-identity (n={n}, d={d}, max_support={most})")
    size = stream.randint(1, cap)
    src = Flat(n, tuple(rng.sample(stream, range(1 << n), size)))
    lhs = moment_by_poly_enumeration(src, n, d, t)
    rhs = moment_by_eval_collision(src, n, d, t)
    return {"support_size": size, "moment": str(lhs), "equal": lhs == rhs}


# --- interpolating rank ----------------------------------------------------

def _interp_trial(params, stream):
    check_order(params["n_max"], params["d_max"], f"interpolating-rank {params}")
    n = stream.randint(1, params["n_max"])
    d = stream.randint(0, min(n, params["d_max"]))
    cert = eval_rank(hamming_ball(n, d), d)
    return {"n": n, "d": d, "rank": cert.rank, "ok": cert.rank == binom_sum(n, d)}


# --- rank monotonicity under linear maps -----------------------------------

def _mono_trial(params, stream):
    widest = max(params["n_max"], params["m_max"])
    check_order(widest, params["d_max"], f"rank-monotonicity {params}")
    n = stream.randint(1, params["n_max"])
    m = stream.randint(1, params["m_max"])
    d = stream.randint(1, min(params["d_max"], n, m))
    size = stream.randint(1, min(params["max_set"], 1 << n))
    points = rng.sample(stream, range(1 << n), size)
    rows = sample_uniform_matrix(m, n, stream)
    image = [apply_rows(rows, p) for p in points]
    r_before = eval_rank_words(n, points, d).rank
    r_after = eval_rank_words(m, image, d).rank
    return {
        "n": n,
        "m": m,
        "d": d,
        "set_size": size,
        "rank_before": r_before,
        "rank_after": r_after,
        "ok": r_before >= r_after,
    }


# --- high-rank subset selection --------------------------------------------

def _subset_trial(params, stream):
    n, m, d = params["n"], params["m"], params["d"]
    if params["set_size"] > 1 << n:
        raise PreconditionError(f"set_size={params['set_size']} exceeds the 2^{n} points of F_2^{n}")
    a = rng.sample(stream, range(1 << n), params["set_size"])
    b = rng.sample(stream, range(1 << n), params["set_size"])
    try:
        sel = find_high_rank_subsets(n, a, b, d, m, params["map_trials"], stream)
    except RetryExhaustedError:
        return {"success": False, "attempts": params["map_trials"], "rank": 0, "sizes": 0}
    return {
        "success": True,
        "attempts": sel.attempts,
        "rank": sel.certificate.rank,
        "sizes": len(sel.a_points),
    }


def _subset_agg(rows, params):
    wins = [r for r in rows if r["success"]]
    floor = binom_sum(params["m"], params["d"])
    want = binom_sum(params["m"], params["d"] // 2)
    rank_ok = all(r["rank"] >= floor and r["sizes"] == want for r in wins)
    rate = len(wins) / len(rows)
    agg = {"success_rate": rate, "rank_floor": floor, "selection_size": want}
    return agg, rank_ok and rate >= params["success_rate"]


# --- special sumset draws --------------------------------------------------

def _sumset_trial(params, stream):
    n, m, d = params["n"], params["m"], params["d"]
    u = uniform_flat(n)
    draw = special_sumset_sampler(u, u, d, m, params["map_trials"], stream)
    pick = stream.randrange(len(draw.x_star))
    return {
        "full_rank": draw.full_rank,
        "x_pick": draw.x_star[pick].bits,
        "y_pick": draw.y_star[stream.randrange(len(draw.y_star))].bits,
    }


def _sumset_agg(rows, params):
    n = params["n"]
    size = 1 << n
    counts_x = np.zeros(size, dtype=np.int64)
    counts_y = np.zeros(size, dtype=np.int64)
    for r in rows:
        counts_x[r["x_pick"]] += 1
        counts_y[r["y_pick"]] += 1
    total = len(rows)
    tv_x = float(np.abs(counts_x / total - 1.0 / size).sum() / 2)
    tv_y = float(np.abs(counts_y / total - 1.0 / size).sum() / 2)
    bad = sum(1 for r in rows if not r["full_rank"])
    agg = {"rank_violations": bad, "tv_x": tv_x, "tv_y": tv_y}
    return agg, bad == 0 and tv_x <= params["tv_bound"] and tv_y <= params["tv_bound"]


# --- bias concentration ----------------------------------------------------

def _bias_trial(params, stream):
    n, d = params["n"], params["d"]
    check_budget(f"bias-concentration truth table (n={n})", sources.ENUMERATION_BUDGET, log2=n)
    f = sample_poly(n, d, stream)
    table = truth_table(f)
    size = table.size
    bias = 1.0 - 2.0 * int(np.count_nonzero(table)) / size
    threshold = 2.0 ** (-n / (4.0 * d))
    return {"bias": bias, "exceed": abs(bias) > threshold}


def _bias_agg(rows, params):
    rate = sum(1 for r in rows if r["exceed"]) / len(rows)
    threshold = 2.0 ** (-params["n"] / (4.0 * params["d"]))
    agg = {"exceed_rate": rate, "threshold": threshold}
    return agg, rate <= params["fail_rate"]


# --- two-source output degree ----------------------------------------------

def _two_source_trial(params, stream):
    n, r = params["n"], params["r"]
    check_budget(f"two-source joint table (n={n})", sources.ENUMERATION_BUDGET, log2=2 * n)
    desc = build_two_source(n, stream.getrandbits(63), r=r)
    degree = anf_from_truth_table(two_source_table(desc)).degree()
    return {"degree": degree, "ok": degree <= 4}


# --- seeded extractor structure --------------------------------------------

def _seeded_left_linear(table: np.ndarray) -> bool:
    """Exhaustive: every seed restriction must agree with its affine extension."""
    n = table.shape[1].bit_length() - 1
    for row in table:
        base = int(row[0])
        diffs = [base ^ int(row[1 << j]) for j in range(n)]
        if not np.array_equal(row, subset_xors(diffs, base)):
            return False
    return True


def _seeded_right_degree(table: np.ndarray) -> int:
    """Largest seed-side degree of any restriction x -> f(x, .), exactly.

    With x fixed, the coefficient of the seed monomial y^T is the sum over S
    of a[S, T] x^S, which is a nonzero function of x iff some a[S, T] is 1.
    So the worst restriction degree is the largest |T| among the monomials
    of the joint ANF of the whole table (seed bits above the n source bits).
    """
    n = table.shape[1].bit_length() - 1
    seeds = np.unique(np.flatnonzero(mobius_transform(table.ravel())) >> n)
    return max((int(y).bit_count() for y in seeds), default=0)


def _seeded_subcode_check(table: np.ndarray, dim: int, stream) -> bool:
    n = table.shape[1].bit_length() - 1
    rows = [
        int.from_bytes(np.packbits(table[:, 1 << i], bitorder="little").tobytes(), "little")
        for i in rng.sample(stream, range(n), min(dim, n))
    ]
    generator = BitMatrix(len(rows), table.shape[0], rows)
    return johnson_check(generator, measured_imbalance(generator)).passed


def _seeded_trial(params, stream):
    n, t, d = params["n"], params["t"], params["d"]
    desc = build_seeded(n, t, d, stream.getrandbits(63))
    small = build_seeded(params["n_right"], t, d, stream.getrandbits(63))
    table = seeded_table(desc)
    left_ok = _seeded_left_linear(table)
    right_degree = _seeded_right_degree(seeded_table(small))
    johnson_ok = _seeded_subcode_check(table, params["subcode_dim"], stream)
    ok = left_ok and right_degree <= d and johnson_ok
    return {
        "left_ok": left_ok,
        "right_degree": right_degree,
        "johnson_ok": johnson_ok,
        "ok": ok,
    }


# --- energy partitions ------------------------------------------------------

def _energy_trial(params, stream):
    k, ell, t = params["k"], params["ell"], params["t"]
    amb = params["ambient"]
    x = rng.sample(stream, range(1 << amb), 1 << k)
    y = rng.sample(stream, range(1 << amb), 1 << k)
    try:
        part = energy_partition(x, y, t, ell, stream, retries=params["retries"])
    except RetryExhaustedError:
        return {"success": False, "retries": params["retries"], "max_energy": -1, "cap_ok": False}
    cap = part.energy_cap()
    return {
        "success": True,
        "retries": part.retries_used,
        "max_energy": part.max_energy,
        "cap_ok": part.max_energy <= cap,
    }


def _energy_agg(rows, params):
    wins = [r for r in rows if r["success"]]
    rate = len(wins) / len(rows)
    cap_ok = all(r["cap_ok"] for r in wins)
    worst = max((r["max_energy"] for r in wins), default=-1)
    agg = {"success_rate": rate, "max_energy": worst}
    return agg, cap_ok and rate >= params["success_rate"]


# --- shift counts on vanishing polynomials ---------------------------------

def _cw_trial(params, stream):
    n = stream.randint(4, params["n_max"])
    d = stream.randint(1, min(params["d_max"], n))
    t = stream.randint(1, min(params["t_max"], n))
    basis = _independent_words(n, t, stream)
    f = sample_vanishing_poly(n, d, basis, stream)
    count, bound, ok = cw_shift_count(f, n, basis)
    return {
        "n": n,
        "d_cap": d,
        "d_actual": f.degree(),
        "t": t,
        "count": count,
        "bound": str(bound),
        "ok": ok,
    }


# --- disperser attack -------------------------------------------------------

def _attack_trial(params, stream):
    n, d, t = params["n"], params["d"], params["t"]
    check_budget(f"attack family (n={n})", FAMILY_BUDGET, log2=n)
    family = [sample_poly(n, d, stream) for _ in range(1 << n)]
    exhausted = {"success": False, "survivors": 0, "verified": True}
    if params["budget"] < 1:  # the attack refuses to search with no budget: nothing found
        return exhausted
    try:
        witness = disperser_attack(family, t, params["budget"], stream)
    except RetryExhaustedError:
        return exhausted
    return {
        "success": bool(witness.params["success"]),
        "survivors": len(witness.set_b),
        "verified": witness.verified,
    }


def _attack_agg(rows, params):
    rate = sum(1 for r in rows if r["success"]) / len(rows)
    all_verified = all(r["verified"] for r in rows)
    agg = {"success_rate": rate}
    return agg, all_verified


# --- inner-product dichotomy ------------------------------------------------

def _dichotomy_trial(params, stream):
    n_max = params["n_max"]
    check_budget(f"dichotomy spans (n_max={n_max})", sources.ENUMERATION_BUDGET, log2=n_max)
    n = stream.randint(2, n_max)
    dim_a = stream.randint(2, n)
    dim_b = stream.randint(n + 2 - dim_a, n)
    a = enumerate_span(sample_invertible(n, stream)[:dim_a])
    b = enumerate_span(sample_invertible(n, stream)[:dim_b])
    da, db, values = dichotomy_check(n, a, b)
    return {
        "n": n,
        "dim_a": da,
        "dim_b": db,
        "values": "".join(str(v) for v in sorted(values)),
        "ok": values == {0, 1},
    }


# --- variety reduction ------------------------------------------------------

def _variety_trial(params, stream):
    n = stream.randint(2, params["n_max"])
    t = stream.randint(1, params["t_max"])
    polys = [sample_poly(n, params["d"], stream) for _ in range(t)]
    reduced, retries = variety_reduce(polys, stream, budget=params["budget"])
    return {
        "n": n,
        "system_size": t,
        "reduced_size": len(reduced),
        "retries": retries,
        "equal": bool(np.array_equal(common_zeros(polys), common_zeros(reduced))),
    }


def _variety_agg(rows, params):
    mean_retries = sum(r["retries"] for r in rows) / len(rows)
    bad = sum(1 for r in rows if not r["equal"])
    agg = {"mean_retries": mean_retries, "violations": bad}
    return agg, bad == 0 and mean_retries <= params["mean_retry_bound"]


EXPERIMENTS: dict[str, _Entry] = {
    "moment-identity": _Entry(
        {"n": 2, "d": 2, "t": 2, "max_support": 4}, _moment_trial, _all_ok("equal")
    ),
    "interpolating-rank": _Entry(
        {"n_max": 10, "d_max": 3}, _interp_trial, _all_ok("ok")
    ),
    "rank-monotonicity": _Entry(
        {"n_max": 8, "m_max": 8, "d_max": 3, "max_set": 24}, _mono_trial, _all_ok("ok")
    ),
    "high-rank-subsets": _Entry(
        {"n": 8, "m": 4, "d": 2, "set_size": 32, "map_trials": 50, "success_rate": 0.99},
        _subset_trial,
        _subset_agg,
    ),
    "special-sumset": _Entry(
        {"n": 6, "m": 6, "d": 2, "map_trials": 1000, "tv_bound": 0.2},
        _sumset_trial,
        _sumset_agg,
    ),
    "bias-concentration": _Entry(
        {"n": 14, "d": 2, "fail_rate": 0.01}, _bias_trial, _bias_agg
    ),
    "two-source-degree": _Entry({"n": 3, "r": 33}, _two_source_trial, _all_ok("ok")),
    "seeded-structure": _Entry(
        {"n": 8, "t": 3, "d": 1, "n_right": 4, "subcode_dim": 3},
        _seeded_trial,
        _all_ok("ok"),
    ),
    "energy-partition": _Entry(
        {
            "k": 8,
            "ell": 5,
            "t": 7,
            "ambient": 10,
            "retries": 100,
            "success_rate": 0.99,
        },
        _energy_trial,
        _energy_agg,
    ),
    "cw-shifts": _Entry(
        {"n_max": 12, "d_max": 3, "t_max": 4}, _cw_trial, _all_ok("ok")
    ),
    "disperser-attack": _Entry(
        {"n": 8, "d": 2, "t": 2, "budget": 40}, _attack_trial, _attack_agg
    ),
    "dichotomy": _Entry({"n_max": 6}, _dichotomy_trial, _all_ok("ok")),
    "variety-reduction": _Entry(
        {"n_max": 10, "t_max": 20, "d": 2, "budget": 64, "mean_retry_bound": 2.0},
        _variety_trial,
        _variety_agg,
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one experiment run.

    The master seed is mandatory — there is deliberately no wall-clock
    fallback, so two runs of the same config are always comparable.
    """

    experiment: str
    seed: int
    trials: int
    params: dict = field(default_factory=dict)
    out: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise PreconditionError(f"unknown experiment {self.experiment!r}; known: {known}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise PreconditionError("master seed must be an integer")
        if self.trials < 1:
            raise PreconditionError("trial count must be >= 1")
        if self.format not in ("json", "csv"):
            raise PreconditionError("format must be json or csv")
        allowed = EXPERIMENTS[self.experiment].defaults
        unknown = set(self.params) - set(allowed)
        if unknown:
            raise PreconditionError(
                f"unknown parameters for {self.experiment}: {sorted(unknown)}; "
                f"accepted: {sorted(allowed)}"
            )


def config_from_dict(data: dict) -> ExperimentConfig:
    """A validated config from its JSON object.

    Every field must have its JSON type, and every param the JSON type of its
    registry default (a float default also takes an int, and no number is a
    bool); a wrong type raises ``ValueError`` naming the field.  An optional
    field that is absent or null takes its default.
    """
    extra = set(data) - {"experiment", "seed", "trials", "params", "out", "format"}
    if extra:
        raise PreconditionError(f"unknown config fields: {sorted(extra)}")
    if "experiment" not in data:
        raise PreconditionError("config needs an 'experiment' field")
    if "seed" not in data:
        raise PreconditionError("config needs a 'seed' field (no wall-clock default)")

    def optional(key: str, kind: type, default):
        return default if data.get(key) is None else _field(data, key, kind)

    config = ExperimentConfig(
        experiment=_field(data, "experiment", str),
        seed=_field(data, "seed", int),
        trials=optional("trials", int, 100),
        params=dict(optional("params", dict, {})),
        out=optional("out", str, None),
        format=optional("format", str, "json"),
    )
    defaults = EXPERIMENTS[config.experiment].defaults
    for key, value in config.params.items():
        kind = type(defaults[key])
        if not (kind is float and type(value) is int):
            _typed(value, kind, f"params.{key}")
    return config


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every trial on its own derived stream and fold up the report.

    Trials run in index order, one row each, so a re-run of the same config
    gives a byte-identical report, wall time aside.
    """
    entry = EXPERIMENTS[config.experiment]
    params = {**entry.defaults, **config.params}
    start = perf_counter()
    rows = []
    for i in range(config.trials):
        stream = rng.derive(config.seed, "experiment", config.experiment, i)
        rows.append({"trial": i, **entry.trial(params, stream)})
    aggregates, verdict = entry.aggregate(rows, params)
    return ExperimentReport(
        experiment=config.experiment,
        seed=config.seed,
        trials=config.trials,
        params=params,
        rows=rows,
        aggregates=aggregates,
        verdict=verdict,
        wall_time_s=round(perf_counter() - start, 6),
    )

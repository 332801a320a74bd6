"""Span tracer that wraps polyext's public functions from the outside.

:meth:`Tracer.install` replaces each function in :data:`TARGETS` at every
polyext module binding that holds it (``ranklab.sample_invertible`` as well
as ``gf2.sample_invertible``), and the listed methods on their class.  Each
wrapper records one span: name, start, end, parent span and unit id.  Spans
stay in flat in-memory arrays until the pass ends; :func:`self_times` then
charges each span its duration minus the part its children cover.

A target that no longer exists is reported in :attr:`Tracer.absent` and its
metrics read 0; the tracer never fails because the program changed shape.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

#: (polyext module, attribute path).  A class wraps its constructor (for
#: ``AffineSolver`` that is the elimination pass); ``Cls.meth`` wraps a method.
TARGETS = (
    ("gf2", "sample_uniform_matrix"),
    ("gf2", "sample_invertible"),
    ("gf2", "AffineSolver"),
    ("gf2", "AffineSolver.sample"),
    ("gf2", "XorBasis.add"),
    ("gf2", "enumerate_span"),
    ("gf2", "nullspace_basis"),
    ("gf2", "weight_slice"),
    ("anf", "eval_bits"),
    ("anf", "truth_table"),
    ("anf", "mobius_transform"),
    ("anf", "anf_from_truth_table"),
    ("anf", "sample_poly"),
    ("anf", "compose_linear"),
    ("ranklab", "special_sumset_sampler"),
    ("ranklab", "full_rank_check"),
    ("ranklab", "eval_rank"),
    ("ranklab", "find_high_rank_subsets"),
    ("oracles", "energy_partition"),
    ("oracles", "additive_energy"),
    ("oracles", "cw_shift_count"),
    ("oracles", "disperser_attack"),
    ("oracles", "dichotomy_check"),
    ("oracles", "sample_vanishing_poly"),
    ("sources", "sample_source"),
    ("sources", "support_of"),
    ("sources", "variety_reduce"),
    ("bias", "bias_mc"),
    ("bias", "bias_exact"),
    ("bias", "moment_by_poly_enumeration"),
    ("bias", "moment_by_eval_collision"),
    ("codes", "measured_imbalance"),
    ("codes", "johnson_check"),
    ("constructions", "build_two_source"),
    ("constructions", "eval_two_source"),
    ("constructions", "build_seeded"),
    ("constructions", "eval_seeded"),
    ("experiments", "run_experiment"),
    ("rng", "derive"),
)

#: ``sample_source`` spans are split by the kind of their first argument.
SOURCE_KINDS = {
    "Flat": "flat",
    "Affine": "affine",
    "Sumset": "sumset",
    "Local": "local",
    "PolynomialImage": "polyimage",
    "Variety": "variety",
}

#: Retry-loop ratios, each reported under the module that owns the loop.
RATIOS = {
    "ranklab": (
        "ranklab.special_sumset_sampler.surjection_attempts_per_draw",
        "ranklab.special_sumset_sampler.mixer_attempts_per_draw",
        "ranklab.find_high_rank_subsets.attempts_per_trial",
    ),
    "oracles": ("oracles.energy_partition.attempts_per_success",),
    "sources": ("sources.variety_reduce.retries_per_system",),
}


def span_names(module: str, path: str) -> list[str]:
    if (module, path) == ("sources", "sample_source"):
        return [f"sources.sample_source.{kind}" for kind in SOURCE_KINDS.values()]
    return [f"{module}.{path}"]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, in order, with its unit."""
    out: dict[str, str] = {}
    modules = list(dict.fromkeys(module for module, _ in TARGETS))
    for module in modules:
        for target in TARGETS:
            if target[0] != module:
                continue
            for name in span_names(*target):
                out[f"{name}.calls"] = "count"
                out[f"{name}.self_ms"] = "ms"
        for ratio in RATIOS.get(module, ()):
            out[ratio] = "ratio"
        out[f"{module}.errors"] = "count"
    out["trace.overhead_ratio"] = "ratio"
    out["trace.absent_bindings"] = "count"
    return out


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from wrappers on one thread with one call stack, so a child
    always lies inside its parent and never overlaps a sibling.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def _observe_report(tracer: "Tracer", report) -> None:
    """Retry counts that only the experiment rows expose."""
    rows = report.rows
    if report.experiment == "high-rank-subsets":
        tracer.tallies["subset_attempts"] += sum(r["attempts"] for r in rows)
        tracer.tallies["subset_trials"] += len(rows)
    elif report.experiment == "energy-partition":
        # retries = index of the accepted resample, or the whole budget on failure
        tracer.tallies["energy_attempts"] += sum(
            r["retries"] + 1 if r["success"] else r["retries"] for r in rows
        )
        tracer.tallies["energy_successes"] += sum(1 for r in rows if r["success"])


def _observe_variety_reduce(tracer: "Tracer", result) -> None:
    tracer.tallies["variety_retries"] += result[1]
    tracer.tallies["variety_systems"] += 1


OBSERVERS = {
    ("experiments", "run_experiment"): _observe_report,
    ("sources", "variety_reduce"): _observe_variety_reduce,
}


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.unit_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.unit = -1  # set by the caller before each unit
        self.errors: Counter = Counter()
        self.tallies: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._last_error: dict[str, BaseException] = {}
        self._patches: list[tuple[object, str, bool, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _error(self, module: str, exc: BaseException) -> None:
        # An exception leaving several spans of one module counts once there.
        if self._last_error.get(module) is not exc:
            self._last_error[module] = exc
            self.errors[module] += 1

    def _wrap(self, module: str, path: str, fn):
        observe = OBSERVERS.get((module, path))
        if (module, path) == ("sources", "sample_source"):
            kinds = {cls: self._id(f"sources.sample_source.{k}") for cls, k in SOURCE_KINDS.items()}
            other = self._id("sources.sample_source.other")

            def name_of(args):
                return kinds.get(type(args[0]).__name__, other) if args else other

        else:
            nid = self._id(f"{module}.{path}")

            def name_of(args):
                return nid

        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.end)
            self.name_id.append(name_of(args))
            self.parent.append(stack[-1] if stack else -1)
            self.unit_id.append(self.unit)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(module, exc)
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    observe(self, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    pass  # the result changed shape; the ratio just stays unfed
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "polyext"]
        for module, path in TARGETS:
            home = sys.modules.get(f"polyext.{module}")
            target = home
            for part in path.split("."):
                target = getattr(target, part, None)
            if target is None or not callable(target):
                self.absent.extend(span_names(module, path))
                continue
            if isinstance(target, type):
                self._patch(target, "__init__", self._wrap(module, path, target.__init__))
            elif "." in path:
                cls_name, meth = path.split(".")
                self._patch(getattr(home, cls_name), meth, self._wrap(module, path, target))
            else:
                wrapper = self._wrap(module, path, target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, had, original in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        self._last_error.clear()

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """(per-layer metrics except the overhead ratio, inclusive ms per name)."""
        selfs = self_times(self.start, self.end, self.parent)
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        incl_ms: Counter = Counter()
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            calls[name] += 1
            self_ms[name] += selfs[i] * 1e3
            incl_ms[name] += (self.end[i] - self.start[i]) * 1e3
        draws = calls["ranklab.special_sumset_sampler"]
        child_calls: Counter = Counter()
        sampler = self._ids.get("ranklab.special_sumset_sampler")
        for i, p in enumerate(self.parent):
            if p >= 0 and self.name_id[p] == sampler:
                child_calls[self.names[self.name_id[i]]] += 1
        t = self.tallies
        ratios = {
            "ranklab.special_sumset_sampler.surjection_attempts_per_draw": _ratio(
                child_calls["gf2.sample_uniform_matrix"], draws
            ),
            "ranklab.special_sumset_sampler.mixer_attempts_per_draw": _ratio(
                child_calls["gf2.sample_invertible"], draws
            ),
            "ranklab.find_high_rank_subsets.attempts_per_trial": _ratio(
                t["subset_attempts"], t["subset_trials"]
            ),
            "oracles.energy_partition.attempts_per_success": _ratio(
                t["energy_attempts"], t["energy_successes"]
            ),
            "sources.variety_reduce.retries_per_system": _ratio(
                t["variety_retries"], t["variety_systems"]
            ),
        }
        metrics: dict[str, float] = {}
        for name, unit in metric_units().items():
            if name in ratios:
                metrics[name] = ratios[name]
            elif name.endswith(".calls"):
                metrics[name] = calls[name[: -len(".calls")]]
            elif name.endswith(".self_ms"):
                metrics[name] = self_ms[name[: -len(".self_ms")]]
            elif name.endswith(".errors"):
                metrics[name] = self.errors[name[: -len(".errors")]]
        metrics["trace.absent_bindings"] = len(self.absent)
        return metrics, dict(incl_ms)

    def write_spans(self, path) -> None:
        """All spans as gzipped CSV, times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent,unit\n")
            for i, nid in enumerate(self.name_id):
                fh.write(
                    f"{i},{self.names[nid]},{(self.start[i] - t0) * 1e6:.3f},"
                    f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]},{self.unit_id[i]}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

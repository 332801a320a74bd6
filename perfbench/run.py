#!/usr/bin/env python3
"""polyext benchmark: four closed-loop workloads, one caller, one thread.

    python3 perfbench/run.py --workload special-sumset --seed 1 --seconds 28 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory and from nowhere else; without it the command exits with
status 2 and prints no result.

With ``--trace 0`` the run sets up ``SETUP_REPS`` times, then sends one unit
at a time until ``--seconds`` have passed (and at least ``MIN_UNITS`` units
ran), and prints the end-to-end metrics.  ``setup_s`` is the import time plus
the median set-up: the wait before the first timed unit of a run that sets up
once, steadied against one slow set-up.  With ``--trace 1`` it repeats a
fixed set of rounds untraced and then traced, alternately, for ``--seconds``
(two traced passes at least), and prints the per-layer metrics of the traced
passes.  Either way every
output is checked against ``reference.json``; the last stdout line is one
JSON object, and the exit status is 0 only if every check passed.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

_LOADAVG = os.getloadavg()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPS = 3
MIN_UNITS = 100
WORKLOAD_NAMES = ("special-sumset", "energy-partition", "registry-mix", "bias-mc")

#: ROADMAP re-anchor figures the traced run is compared with.
ROADMAP_SPECIAL_DRAW_US = 179
ROADMAP_ENERGY_200_S = 12.7
ROADMAP_VARIETY_DRAW_MS = 6.3


def load_program() -> bool:
    """Put this checkout's ``src`` first on the path and import polyext from it."""
    src = ROOT / "src"
    if not (src / "polyext" / "__init__.py").is_file():
        print(f"perfbench: no polyext sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import polyext

    if not Path(polyext.__file__).resolve().is_relative_to(src):
        print(f"perfbench: polyext was imported from {polyext.__file__}", file=sys.stderr)
        return False
    return True


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": [round(x, 2) for x in _LOADAVG],
    }


def run_round(wl, j: int, latencies: list, tracer=None) -> list:
    """Every unit of round ``j`` in order, one at a time; outputs in order."""
    import workloads

    outputs = []
    for k in range(wl.units_per_round):
        if tracer is not None:
            tracer.unit = len(latencies)
        t = perf_counter()
        try:
            out = wl.unit(j, k)
        except Exception as exc:  # a failed unit is counted, not fatal
            out = workloads.UnitError(exc)
        latencies.append(perf_counter() - t)
        outputs.append(out)
    return outputs


def gate(wl, reference: list, rounds: list) -> tuple[int, int, list[str], list]:
    """Judge (round, outputs) pairs: (attempted, failed, notes, digests per round).

    A unit fails if it raised, if its verdict is false, or if its digest (or
    its round's digest, for workloads checked per round) differs from the
    committed reference.
    """
    attempted = failed = 0
    notes, all_digests = [], []
    for j, outs in rounds:
        verdicts, digests = wl.check(j, outs)
        all_digests.append(digests)
        ref = reference[j] if 0 <= j < len(reference) else []
        if len(digests) == len(outs) == len(ref):
            match = [d == r for d, r in zip(digests, ref)]
        else:
            match = [digests == ref] * len(outs)
        for k, (v, m) in enumerate(zip(verdicts, match)):
            attempted += 1
            if not (v and m):
                failed += 1
                if len(notes) < 5:
                    why = outs[k].text if hasattr(outs[k], "text") else (
                        "verdict false" if not v else "digest differs from reference"
                    )
                    notes.append(f"round {j} unit {k}: {why}")
    return attempted, failed, notes, all_digests


def set_up(wl, order: list) -> tuple[list[float], list]:
    """Prepare inputs and exact values, then warm up on one round; SETUP_REPS times."""
    times, warm = [], []
    for _ in range(SETUP_REPS):
        t = perf_counter()
        wl.prepare()
        j = order[-1]
        warm.append((j, run_round(wl, j, [])))
        times.append(perf_counter() - t)
    return times, warm


class Reservoir:
    """Unit latencies: all of them up to ``size``, then a uniform sample.

    Memory stays fixed however many units a run completes, so a faster
    program does not read as a bigger one in ``peak_rss_mib``.
    """

    def __init__(self, size: int = 1 << 16):
        self.size = size
        self.count = 0
        self.sample = array("d")
        self._rng = random.Random(0)

    def append(self, x: float) -> None:
        self.count += 1
        if len(self.sample) < self.size:
            self.sample.append(x)
        else:
            i = self._rng.randrange(self.count)
            if i < self.size:
                self.sample[i] = x

    def __len__(self) -> int:
        return self.count


def timed_phase(wl, order: list, seconds: int, reference: list):
    """Closed loop over the seed's rounds until the time is up (whole rounds).

    Each round is checked as soon as it ends and its outputs dropped; the
    check time is left out of the busy time the throughput divides by.
    """
    lat = Reservoir()
    attempted = failed = rounds = 0
    notes: list[str] = []
    check_s = 0.0
    start = perf_counter()
    deadline = start + seconds
    while True:
        j = order[rounds % len(order)]
        rounds += 1
        outs = run_round(wl, j, lat)
        t = perf_counter()
        a, f, more, _ = gate(wl, reference, [(j, outs)])
        check_s += perf_counter() - t
        attempted, failed, notes = attempted + a, failed + f, notes + more
        if perf_counter() >= deadline and len(lat) >= MIN_UNITS:
            break
    busy = perf_counter() - start - check_s
    return lat, busy, rounds, attempted, failed, notes


def end_to_end(wl, order, seconds, setup_s, reference, warm) -> tuple[dict, int, int, list[str]]:
    attempted, failed, notes, _ = gate(wl, reference, warm)
    lat, busy, rounds, a, f, more = timed_phase(wl, order, seconds, reference)
    attempted, failed, notes = attempted + a, failed + f, notes + more
    n = len(lat)
    p50 = statistics.median(lat.sample) * 1e3
    p90 = statistics.quantiles(lat.sample, n=10)[8] * 1e3
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"timed phase: {rounds} rounds, {n} units in {busy:.3f} s busy")
    print(f"unit_p90_ms {p90:.4f} ms over {n} units ({len(lat.sample)} sampled)")
    print(f"unit_p50_ms {p50:.4f} ms (printed only, not a benchmark metric; see README)")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} units, warm-up included)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (n / busy, "1/s"),
        "unit_p90_ms": (p90, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    return metrics, attempted, failed, notes


def traced(wl, order, seconds, reference, warm, seed) -> tuple[dict, int, int, list[str]]:
    """Alternate untraced and traced passes until the time is up, at least twice.

    A pass is one ``prepare`` (so set-up work such as ``bias_exact`` shows in
    the layers too) plus the seed's first ``trace_rounds`` rounds.  The work
    of a pass is fixed, so its call counts repeat exactly from run to run.
    """
    import tracer as tracing

    work = [order[c % len(order)] for c in range(wl.trace_rounds)]

    def one_pass(tr=None):
        t = perf_counter()
        wl.prepare()
        lat: list = []
        rounds = [(j, run_round(wl, j, lat, tr)) for j in work]
        return rounds, perf_counter() - t, sum(lat)

    attempted, failed, notes, _ = gate(wl, reference, warm)
    walls_u, walls_t, units_u, summaries = [], [], [], []
    first = None
    deadline = perf_counter() + seconds
    while True:
        plain, wall, busy = one_pass()
        walls_u.append(wall)
        units_u.append(busy)
        tr = tracing.Tracer()
        tr.install()
        try:
            seen, wall, _ = one_pass(tr)
            walls_t.append(wall)
        finally:
            tr.uninstall()
        results = [gate(wl, reference, rounds) for rounds in (plain, seen)]
        for a, f, more, _ in results:
            attempted, failed, notes = attempted + a, failed + f, notes + more
        attempted += 1  # the transparency check itself
        if results[0][3] != results[1][3]:
            failed += 1
            notes.append("traced outputs differ from untraced outputs")
        summaries.append(tr.summary())
        if first is None:
            first = tr
        if len(summaries) >= 2 and perf_counter() >= deadline:
            break
    metrics_first, incl_first = summaries[0]
    for i, (s, _) in enumerate(summaries[1:], 2):
        attempted += 1  # the repeat check: every pass does the same work
        if call_counts(s) != call_counts(metrics_first):
            failed += 1
            notes.append(f"call counts of traced pass {i} differ from pass 1")
    overhead = statistics.median(walls_t) / statistics.median(walls_u)
    units = wl.trace_rounds * wl.units_per_round
    print(f"traced passes: {len(walls_t)} x (set-up + {units} units); untraced pass "
          f"{statistics.median(walls_u):.3f} s, traced pass {statistics.median(walls_t):.3f} s")
    if first.absent:
        print("absent bindings: " + ", ".join(first.absent))
    _cross_check(wl, statistics.median(units_u) / units, metrics_first, incl_first)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.csv.gz"
    first.write_spans(spans_path)
    print(f"spans of the first traced pass: {spans_path.relative_to(ROOT)} ({len(first.end)} spans)")
    metrics = {}
    for name, unit in tracing.metric_units().items():
        if name.endswith(".self_ms"):
            value = statistics.median(s[name] for s, _ in summaries)
        elif name == "trace.overhead_ratio":
            value = overhead
        else:
            value = metrics_first[name]
        metrics[name] = (value, unit)
    return metrics, attempted, failed, notes


def call_counts(metrics: dict) -> dict:
    """The ``.calls`` metrics of one traced pass."""
    return {k: v for k, v in metrics.items() if k.endswith(".calls")}


def _cross_check(wl, unit_s: float, metrics: dict, incl_ms: dict) -> None:
    """Per-unit costs beside the ROADMAP re-anchor figures."""
    def per_call(name):
        calls = metrics.get(f"{name}.calls", 0)
        return incl_ms.get(name, 0.0) / calls if calls else None

    if wl.name == "special-sumset":
        print(f"xcheck special draw: {unit_s * 1e6:.1f} us per unit untraced, "
              f"{per_call('ranklab.special_sumset_sampler') * 1e3:.1f} us per draw traced "
              f"(ROADMAP {ROADMAP_SPECIAL_DRAW_US} us)")
    elif wl.name == "energy-partition":
        print(f"xcheck energy-partition: {unit_s * 200:.2f} s per 200 trials untraced "
              f"(ROADMAP {ROADMAP_ENERGY_200_S} s)")
    elif wl.name == "bias-mc":
        print(f"xcheck variety draw n=18: {per_call('sources.sample_source.variety'):.2f} ms "
              f"per draw traced (ROADMAP {ROADMAP_VARIETY_DRAW_MS} ms)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="polyext benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        return 2
    import workloads

    try:
        reference = workloads.load_reference(args.workload)
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot read the reference digests: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - _T0
    wl = workloads.WORKLOADS[args.workload]()
    order = workloads.round_order(wl.name, args.seed, wl.pool_rounds)
    rep_s, warm = set_up(wl, order)
    setup_s = import_s + statistics.median(rep_s)
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed}: imports {import_s:.3f} s, set-ups "
          + ", ".join(f"{s:.3f}" for s in rep_s) + f" s; setup_s {setup_s:.3f} s")
    if args.trace:
        metrics, attempted, failed, notes = traced(wl, order, args.seconds, reference, warm, args.seed)
    else:
        metrics, attempted, failed, notes = end_to_end(
            wl, order, args.seconds, setup_s, reference, warm
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes[:5]:
        print(f"FAILED {note}")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

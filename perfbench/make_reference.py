#!/usr/bin/env python3
"""Regenerate ``reference.json``: the digests of every pool round.

    python3 perfbench/make_reference.py

Runs every pool round of all four workloads with the program in ``src/``,
requires every unit's verdict to hold, and writes ``reference.json`` afresh.
Regenerating is only right when the program's outputs are meant to change;
the benchmark's gate exists to catch the times they are not.
"""

import json
import sys
import time

import run


def main() -> int:
    if not run.load_program():
        return 2
    import workloads

    data = {"pool_seed": workloads.POOL_SEED, "workloads": {}}
    bad = 0
    for name in run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]()
        wl.prepare()
        start = time.perf_counter()
        digests = []
        for j in range(wl.pool_rounds):
            outs = run.run_round(wl, j, [])
            verdicts, ds = wl.check(j, outs)
            if not all(verdicts):
                bad += 1
                print(f"{name} round {j}: verdicts {verdicts} outputs {outs}", file=sys.stderr)
            digests.append(ds)
        data["workloads"][name] = digests
        print(f"{name}: {wl.pool_rounds} rounds in {time.perf_counter() - start:.1f} s")
    if bad:
        print(f"{bad} rounds failed their checks; reference.json left unchanged", file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

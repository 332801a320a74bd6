#!/usr/bin/env python3
"""Run every registered experiment at full scale and write one report each.

The trial counts below are the release-level counts the acceptance suite
pins.  Exit status is 0 only if every experiment's verdict holds.
"""

import argparse
import sys
from pathlib import Path

from polyext.experiments import EXPERIMENTS, config_from_dict, run_experiment

FULL_TRIALS = {
    "bias-concentration": 2000,
    "cw-shifts": 200,
    "dichotomy": 500,
    "disperser-attack": 100,
    "energy-partition": 200,
    "high-rank-subsets": 1000,
    "interpolating-rank": 100,
    "moment-identity": 200,
    "rank-monotonicity": 1000,
    "seeded-structure": 100,
    # one pooled pick per trial over 2^6 cells: the TV estimate needs
    # several hundred picks before the 0.2 bound clears sampling noise
    "special-sumset": 1000,
    "two-source-degree": 100,
    "variety-reduction": 100,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True, help="master seed")
    ap.add_argument("--out-dir", default="reports", help="directory for the JSON reports")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for name in sorted(EXPERIMENTS):
        trials = FULL_TRIALS[name]
        config = config_from_dict({"experiment": name, "seed": args.seed, "trials": trials})
        report = run_experiment(config)
        path = out_dir / f"{name}.json"
        path.write_text(report.to_json())
        flag = "ok  " if report.verdict else "FAIL"
        print(f"{flag} {name:<20} trials={trials:<5} wall={report.wall_time_s:7.2f}s  -> {path}")
        all_ok = all_ok and report.verdict
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

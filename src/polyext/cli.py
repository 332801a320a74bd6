"""Command-line front end.

One verb per procedure: sampling, bias measurement, rank certification,
distribution audits, extractor construction, the adversarial oracles, and the
seeded experiment registry.  Exit status is 0 for a passing verdict, 1 for a
failing verdict, and 2 for errors (bad input, budget exhaustion, unknown
names), so scripts can tell "checked and false" from "could not check".
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import io, rng
from .anf import Polynomial, sample_poly
from .bias import bias_exact, bias_mc, extractor_audit, disperser_audit
from .constructions import EvasiveDescriptor, build_evasive_h, build_seeded, build_two_source
from .errors import PolyextError, check_budget
from .experiments import EXPERIMENTS, config_from_dict, run_experiment
from .gf2 import BitVector, common_length
from .oracles import (
    FAMILY_BUDGET,
    additive_energy,
    cw_shift_count,
    disperser_attack,
    energy_partition,
    monochromatic_sumset_search,
    subspace_evasive_audit,
    sumset_evasive_audit,
)
from .ranklab import eval_rank
from .reports import render_json
from .sources import Source

__all__ = ["main", "build_parser"]


def _require_seed(args) -> int:
    if args.seed is None:
        raise PolyextError("this command draws randomness; pass --seed (no wall-clock default)")
    return args.seed


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_vectors(path: str) -> list[BitVector]:
    mat = io.parse_matrix(Path(path).read_text())
    return [mat.row(i) for i in range(mat.rows)]


def _read_word_sets(args) -> tuple[list[int], list[int]]:
    x, y = _read_vectors(args.x), _read_vectors(args.y)
    common_length(x, y)
    return [v.bits for v in x], [v.bits for v in y]


def _read_poly(path: str) -> Polynomial:
    return io.parse_polynomial(Path(path).read_text())


def _read_source(path: str) -> Source:
    return io.parse_source(Path(path).read_text())


def _report_text(args, report) -> str:
    return report.to_csv() if args.format == "csv" else report.to_json()


# --- handlers ---------------------------------------------------------------

def _cmd_sample_poly(args) -> int:
    stream = rng.derive(_require_seed(args), "cli", "sample-poly", args.n, args.d)
    _emit(args, io.emit_polynomial(sample_poly(args.n, args.d, stream)))
    return 0


def _cmd_bias(args) -> int:
    f = _read_poly(args.poly)
    source = _read_source(args.source)
    if args.samples is None:
        value = bias_exact(f, source)
        _emit(args, render_json({"bias": str(value), "mode": "exact"}))
    else:
        stream = rng.derive(_require_seed(args), "cli", "bias")
        rep = bias_mc(f, source, args.samples, args.fail_prob, stream)
        _emit(
            args,
            render_json(
                {
                    "bias": rep.estimate,
                    "halfwidth": rep.halfwidth,
                    "samples": rep.samples,
                    "fail_prob": rep.fail_prob,
                    "mode": "monte-carlo",
                }
            ),
        )
    return 0


def _cmd_rank(args) -> int:
    cert = eval_rank(_read_vectors(args.points), args.degree)
    _emit(args, render_json(cert.to_json_dict()))
    return 0


def _cmd_audit(args) -> int:
    sources = [_read_source(p) for p in args.sources]
    if args.kind == "extractor":
        polys = [_read_poly(p) for p in args.polys]
        report = extractor_audit(polys, sources, Fraction(args.epsilon))
    else:
        report = disperser_audit(_read_poly(args.polys[0]), sources)
    _emit(args, _report_text(args, report))
    return 0 if report.verdict else 1


def _cmd_construct(args) -> int:
    seed = _require_seed(args)
    if args.kind == "two-source":
        if args.n is None:
            raise PolyextError("construct two-source needs --n")
        desc = build_two_source(args.n, seed, r=args.r)
    elif args.kind == "seeded":
        if None in (args.n, args.t, args.d):
            raise PolyextError("construct seeded needs --n, --t, --d")
        desc = build_seeded(args.n, args.t, args.d, seed)
    else:
        if None in (args.k, args.d):
            raise PolyextError("construct evasive needs --k, --d")
        desc = build_evasive_h(args.k, args.d, seed, r=args.r)
    _emit(args, render_json(io.descriptor_to_dict(desc)))
    return 0


def _cmd_oracle_energy(args) -> int:
    x, y = _read_word_sets(args)
    energy = additive_energy(x, y)
    floor = len(x) * len(y)
    _emit(args, render_json({"energy": energy, "floor": floor, "minimal": energy == floor}))
    return 0


def _cmd_oracle_partition(args) -> int:
    stream = rng.derive(_require_seed(args), "cli", "partition")
    part = energy_partition(*_read_word_sets(args), args.t, args.ell, stream, args.retries)
    _emit(
        args,
        render_json(
            {
                "t": part.t,
                "ell": part.ell,
                "parts": len(part.x_parts),
                "part_size": len(part.x_parts[0]),
                "max_fiber": part.max_fiber,
                "retries_used": part.retries_used,
                "energy_cap": part.energy_cap(),
            }
        ),
    )
    return 0


def _cmd_oracle_cw(args) -> int:
    count, bound, ok = cw_shift_count(_read_poly(args.poly), _read_vectors(args.basis))
    _emit(args, render_json({"count": count, "bound": str(bound), "ok": ok}))
    return 0 if ok else 1


def _cmd_oracle_attack(args) -> int:
    stream = rng.derive(_require_seed(args), "cli", "attack")
    if args.family:
        family = io.parse_family(Path(args.family).read_text())
    else:
        if args.n is None or args.d is None:
            raise PolyextError("pass --family or both --n and --d for a random family")
        check_budget(f"attack family (n={args.n})", FAMILY_BUDGET, log2=args.n)
        family = [sample_poly(args.n, args.d, stream) for _ in range(1 << args.n)]
    witness = disperser_attack(family, args.t, args.budget, stream)
    _emit(args, render_json(witness.to_json_dict()))
    return 0 if witness.params["success"] else 1


def _cmd_oracle_sumset_search(args) -> int:
    stream = rng.derive(_require_seed(args), "cli", "sumset-search")
    witness = monochromatic_sumset_search(_read_poly(args.poly), args.size, args.budget, stream)
    _emit(args, render_json(witness.to_json_dict() if witness else None))
    return 0 if witness is not None else 1


def _cmd_oracle_evasive_audit(args) -> int:
    if args.descriptor:
        subject = io.descriptor_from_dict(io.load_json(args.descriptor))
        if not isinstance(subject, EvasiveDescriptor):
            kind = type(subject).__name__
            raise PolyextError(f"evasive-audit needs an evasive descriptor, not {kind}")
    else:
        subject = _read_vectors(args.points)
    if args.kind == "subspace":
        stream = rng.derive(args.seed, "cli", "evasive") if args.seed is not None else None
        report = subspace_evasive_audit(
            subject, args.ell, args.threshold, mode=args.mode, budget=args.budget, stream=stream
        )
    else:
        stream = rng.derive(_require_seed(args), "cli", "evasive")
        report = sumset_evasive_audit(subject, args.t, args.budget, stream)
    _emit(args, _report_text(args, report))
    return 0 if report.verdict else 1


def _cmd_experiment(args) -> int:
    data = io.load_json(args.config) if args.config else {}
    if "experiment" in data and data["experiment"] != args.name:
        raise PolyextError(
            f"config names experiment {data['experiment']!r} but the command line says {args.name!r}"
        )
    data["experiment"] = args.name
    if args.seed is not None:
        data["seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    if args.out is not None:
        data["out"] = args.out
    if args.format is not None:
        data["format"] = args.format
    config = config_from_dict(data)
    report = run_experiment(config)
    # the config's fields, with any flags merged in above, decide the output
    args.out, args.format = config.out, config.format
    _emit(args, _report_text(args, report))
    return 0 if report.verdict else 1


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering a flag given before the
    # subcommand with its own default.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, help="master seed (required whenever randomness is drawn)")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=["json", "csv"], help="report format (default json)")

    parser = argparse.ArgumentParser(
        prog="polyext",
        description="Low-degree polynomial extractors: constructions, audits, attacks.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(owner, name, **kw):
        return owner.add_parser(name, parents=[common], **kw)

    p = add_parser(sub, "sample-poly", help="sample a uniform degree-<=d polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_sample_poly)

    p = add_parser(sub, "bias", help="bias of a polynomial on a source (exact or sampled)")
    p.add_argument("--poly", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--samples", type=int, default=None, help="Monte-Carlo sample count (omit for exact)")
    p.add_argument("--fail-prob", type=float, default=1e-6)
    p.set_defaults(func=_cmd_bias)

    p = add_parser(sub, "rank", help="eval-rank certificate of a point set")
    p.add_argument("--points", required=True, help="file with one 0/1 vector per line")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_rank)

    p = add_parser(sub, "audit", help="distribution audit of an extractor or disperser")
    p.add_argument("kind", choices=["extractor", "disperser"])
    p.add_argument("--polys", nargs="+", required=True, help="output polynomial files")
    p.add_argument("--sources", nargs="+", required=True, help="source description files")
    p.add_argument("--epsilon", type=str, default="0", help="closeness bound (fraction, e.g. 1/8)")
    p.set_defaults(func=_cmd_audit)

    p = add_parser(sub, "construct", help="build an extractor descriptor")
    p.add_argument("kind", choices=["two-source", "seeded", "evasive"])
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=_cmd_construct)

    oracle = add_parser(sub, "oracle", help="counting and attack procedures").add_subparsers(
        dest="oracle_kind", required=True
    )

    p = add_parser(oracle, "energy", help="exact additive energy of two vector sets")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_oracle_energy)

    p = add_parser(oracle, "partition", help="fiber-capped random equal partition")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--retries", type=int, default=100)
    p.set_defaults(func=_cmd_oracle_partition)

    p = add_parser(oracle, "cw", help="shift-orbit zero count against the lower bound")
    p.add_argument("--poly", required=True)
    p.add_argument("--basis", required=True, help="file with one basis vector per line")
    p.set_defaults(func=_cmd_oracle_cw)

    p = add_parser(oracle, "attack", help="subspace-constancy attack on a polynomial family")
    p.add_argument("--family", default=None, help="JSON array of polynomials (else random)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget", type=int, default=100)
    p.set_defaults(func=_cmd_oracle_attack)

    p = add_parser(oracle, "sumset-search", help="monochromatic sumset search on one polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**5)
    p.set_defaults(func=_cmd_oracle_sumset_search)

    p = add_parser(oracle, "evasive-audit", help="subspace- or sumset-evasiveness audit")
    p.add_argument("kind", choices=["subspace", "sumset"])
    subject = p.add_mutually_exclusive_group(required=True)
    subject.add_argument("--descriptor", help="evasive descriptor JSON")
    subject.add_argument("--points", help="explicit point set (one vector per line)")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--mode", choices=["exhaustive", "randomized"], default="exhaustive")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--budget", type=int, default=10**5)
    p.set_defaults(func=_cmd_oracle_evasive_audit)

    p = add_parser(sub, "experiment", help="run a registered experiment")
    p.add_argument("name", help="one of: " + ", ".join(sorted(EXPERIMENTS)))
    p.add_argument("--config", default=None, help="JSON config (flags override its fields)")
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Global flags default to SUPPRESS so a subparser never clobbers a value
    # given before the subcommand; backfill the unset ones here.
    for dest in ("seed", "out", "format"):
        if not hasattr(args, dest):
            setattr(args, dest, None)
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"polyext: warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except PolyextError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())

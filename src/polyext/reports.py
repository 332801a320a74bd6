"""Report containers shared by the audits, the experiments, and the CLI.

JSON output is canonical: sorted keys, compact separators, trailing newline.
CSV output is a snake_case header, one row per trial/source, then aggregate
lines in a trailing comment block prefixed ``#``.  Wall time is kept in a
single top-level field so reproducibility comparisons can drop it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Optional, Sequence

__all__ = [
    "frac_dict",
    "AuditReport",
    "ExperimentReport",
    "render_json",
    "render_csv",
]


def frac_dict(x: Fraction) -> dict:
    """Exact rational as a {"numerator", "denominator"} pair.

    :func:`_plain` calls it on ``Fraction`` values only; a ``None`` field stays
    JSON null there and never reaches it.
    """
    return {"numerator": x.numerator, "denominator": x.denominator}


def _plain(value: Any) -> Any:
    """Coerce report values into JSON-serializable form."""
    if isinstance(value, Fraction):
        return frac_dict(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def render_json(payload: dict) -> str:
    return json.dumps(_plain(payload), sort_keys=True, separators=(",", ":")) + "\n"


def _csv_cell(value: Any) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def render_csv(rows: Sequence[dict], aggregates: dict) -> str:
    """Rows share a header derived from the first row's keys."""
    lines = []
    if rows:
        header = list(rows[0].keys())
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_csv_cell(row.get(k)) for k in header))
    for key in sorted(aggregates):
        lines.append(f"# {key}={_csv_cell(aggregates[key])}")
    return "\n".join(lines) + "\n"


@dataclass
class AuditReport:
    """Outcome of an extractor or disperser audit over a batch of sources."""

    kind: str  # "extractor" | "disperser"
    verdict: bool
    epsilon: Optional[Fraction] = None
    max_distance: Optional[Fraction] = None
    witness_source_index: Optional[int] = None
    per_source: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return render_json(asdict(self))

    def to_csv(self) -> str:
        aggregates = {
            "kind": self.kind,
            "verdict": self.verdict,
            "max_distance": self.max_distance,
            "witness_source_index": self.witness_source_index,
        }
        return render_csv(self.per_source, aggregates)


@dataclass
class ExperimentReport:
    """One experiment run: parameter echo, per-trial rows, aggregates, verdict."""

    experiment: str
    seed: int
    trials: int
    params: dict
    rows: list[dict]
    aggregates: dict
    verdict: bool
    wall_time_s: float

    def payload(self, include_wall_time: bool = True) -> dict:
        out = asdict(self)
        if not include_wall_time:
            del out["wall_time_s"]
        return out

    def to_json(self) -> str:
        return render_json(self.payload())

    def to_csv(self) -> str:
        aggregates = dict(self.aggregates)
        aggregates.update({f"param_{k}": v for k, v in self.params.items()})
        aggregates.update(
            experiment=self.experiment,
            seed=self.seed,
            trials=self.trials,
            verdict=self.verdict,
            wall_time_s=self.wall_time_s,
        )
        return render_csv(self.rows, aggregates)

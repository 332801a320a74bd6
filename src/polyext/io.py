"""Parsers and emitters for the on-disk formats.

Matrices travel as 0/1 text; everything else is JSON with a
``type``/``kind`` discriminator.  Emission is canonical (sorted keys, compact
separators, trailing newline), so ``emit(parse(text)) == text`` holds
byte-for-byte for canonical files.  Parsers validate eagerly and raise
:class:`ValueError` naming the offending field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .anf import Polynomial
from .constructions import (
    EvasiveDescriptor,
    SeededDescriptor,
    TwoSourceDescriptor,
    build_evasive_h,
    build_seeded,
    build_two_source,
)
from .gf2 import BitMatrix, BitVector
from .reports import render_json
from .sources import (
    Affine,
    Flat,
    Local,
    LocalBit,
    PolynomialImage,
    Source,
    Sumset,
    Variety,
)

__all__ = [
    "parse_matrix",
    "emit_matrix",
    "parse_polynomial",
    "emit_polynomial",
    "source_to_dict",
    "source_from_dict",
    "parse_source",
    "emit_source",
    "descriptor_to_dict",
    "descriptor_from_dict",
    "load_json",
]

Descriptor = Union[TwoSourceDescriptor, SeededDescriptor, EvasiveDescriptor]


def parse_matrix(text: str) -> BitMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("matrix file is empty")
    width = len(lines[0])
    for i, ln in enumerate(lines):
        if len(ln) != width or any(c not in "01" for c in ln):
            raise ValueError(f"matrix row {i} is not a width-{width} 0/1 string")
    return BitMatrix.from_string("\n".join(lines))


def emit_matrix(m: BitMatrix) -> str:
    return m.to_string() + "\n"


def parse_polynomial(text: str) -> Polynomial:
    return Polynomial.from_json_dict(_load_obj(text))


def emit_polynomial(p: Polynomial) -> str:
    return render_json(p.to_json_dict())


def _load_obj(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    return data


def _vec(raw, n: int, where: str) -> BitVector:
    if not isinstance(raw, str) or len(raw) != n:
        raise ValueError(f"{where}: expected a length-{n} 0/1 string, got {raw!r}")
    return BitVector.from_string(raw)


def source_to_dict(src: Source) -> dict:
    if isinstance(src, Flat):
        return {
            "type": "flat",
            "n": src.n,
            "support": [v.to_string() for v in src.support],
        }
    if isinstance(src, Affine):
        return {
            "type": "affine",
            "n": src.n,
            "offset": src.offset.to_string(),
            "basis": [v.to_string() for v in src.basis],
        }
    if isinstance(src, Sumset):
        return {"type": "sumset", "x": source_to_dict(src.x), "y": source_to_dict(src.y)}
    if isinstance(src, Local):
        return {
            "type": "local",
            "r": src.r,
            "m": src.m,
            "bits": [
                {"inputs": list(b.inputs), "table": "".join(map(str, b.table))}
                for b in src.bits
            ],
        }
    if isinstance(src, PolynomialImage):
        return {
            "type": "polynomial",
            "m": src.m,
            "polys": [p.to_json_dict() for p in src.polys],
        }
    if isinstance(src, Variety):
        return {
            "type": "variety",
            "n": src.n,
            "polys": [p.to_json_dict() for p in src.polys],
        }
    raise ValueError(f"unknown source object {src!r}")


def source_from_dict(data: dict) -> Source:
    kind = data.get("type")
    if kind == "flat":
        n = int(data["n"])
        return Flat(n, tuple(_vec(s, n, "support") for s in data["support"]))
    if kind == "affine":
        n = int(data["n"])
        return Affine(
            n,
            _vec(data["offset"], n, "offset"),
            tuple(_vec(s, n, "basis") for s in data["basis"]),
        )
    if kind == "sumset":
        x = source_from_dict(data["x"])
        y = source_from_dict(data["y"])
        if not isinstance(x, Flat) or not isinstance(y, Flat):
            raise ValueError("sumset summands must be flat sources")
        return Sumset(x, y)
    if kind == "local":
        bits = []
        for i, b in enumerate(data["bits"]):
            table = b["table"]
            if any(c not in "01" for c in table):
                raise ValueError(f"bits[{i}].table must be a 0/1 string")
            bits.append(LocalBit(tuple(int(p) for p in b["inputs"]), tuple(int(c) for c in table)))
        return Local(int(data["r"]), int(data["m"]), tuple(bits))
    if kind == "polynomial":
        return PolynomialImage(
            int(data["m"]),
            tuple(Polynomial.from_json_dict(p) for p in data["polys"]),
        )
    if kind == "variety":
        return Variety(
            int(data["n"]),
            tuple(Polynomial.from_json_dict(p) for p in data["polys"]),
        )
    raise ValueError(f"unknown source type {kind!r}")


def parse_source(text: str) -> Source:
    return source_from_dict(_load_obj(text))


def emit_source(src: Source) -> str:
    return render_json(source_to_dict(src))


def descriptor_to_dict(desc: Descriptor) -> dict:
    if isinstance(desc, TwoSourceDescriptor):
        return {"kind": "two-source", "n": desc.n, "r": desc.r, "seed": desc.seed}
    if isinstance(desc, SeededDescriptor):
        return {"kind": "seeded", "n": desc.n, "t": desc.t, "d": desc.d, "seed": desc.seed}
    if isinstance(desc, EvasiveDescriptor):
        return {"kind": "evasive", "k": desc.k, "d": desc.d, "r": desc.r, "seed": desc.seed}
    raise ValueError(f"unknown descriptor object {desc!r}")


def descriptor_from_dict(data: dict) -> Descriptor:
    """Rebuild a construction from its parameters; builders are deterministic
    in the recorded seed, so this reproduces the original object exactly."""
    kind = data.get("kind")
    if kind == "two-source":
        return build_two_source(int(data["n"]), int(data["seed"]), r=int(data["r"]))
    if kind == "seeded":
        return build_seeded(int(data["n"]), int(data["t"]), int(data["d"]), int(data["seed"]))
    if kind == "evasive":
        return build_evasive_h(int(data["k"]), int(data["d"]), int(data["seed"]), r=int(data["r"]))
    raise ValueError(f"unknown descriptor kind {kind!r}")


def load_json(path: Union[str, Path]) -> dict:
    return _load_obj(Path(path).read_text())

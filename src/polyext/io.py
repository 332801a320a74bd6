"""Parsers and emitters for the on-disk formats.

Matrices travel as 0/1 text; everything else is JSON with a
``type``/``kind`` discriminator.  Emission is canonical (sorted keys, compact
separators, trailing newline), so ``emit(parse(text)) == text`` holds
byte-for-byte for canonical files.  Parsers validate eagerly and raise
:class:`ValueError` naming the offending field.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Union

from . import anf
from .anf import Polynomial, check_order
from .constructions import (
    EvasiveDescriptor,
    SeededDescriptor,
    TwoSourceDescriptor,
    build_evasive_h,
    build_seeded,
    build_two_source,
)
from .errors import check_budget
from .gf2 import BitMatrix, parse_word, word_string
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
    "parse_family",
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


def _name(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _typed(value, kind: type, name: str, of: type | None = None):
    """``value`` if it has JSON type ``kind`` (of ``of`` items), else ValueError naming it."""
    if type(value) is not kind or (of is not None and any(type(v) is not of for v in value)):
        expected = kind.__name__ + (f" of {of.__name__}" if of is not None else "")
        raise ValueError(f"{name}: expected {expected}, got {value!r}")
    return value


def _field(data, key: str, kind: type, where: str = "", of: type | None = None):
    """``data[key]`` checked by :func:`_typed`, where ``data`` must be an object."""
    _typed(data, dict, where or "value")
    if key not in data:
        raise ValueError(f"{_name(where, key)}: missing")
    return _typed(data[key], kind, _name(where, key), of)


def _polynomial(data, where: str = "") -> Polynomial:
    n, d = _field(data, "n", int, where), _field(data, "d", int, where)
    check_order(n, d, f"{where or 'polynomial'}: n={n}, d={d}")
    monomials = _field(data, "monomials", list, where)
    for k, mon in enumerate(monomials):
        _typed(mon, list, _name(where, f"monomials[{k}]"), of=int)
        if any(i < 0 or i >= n for i in mon):
            raise ValueError(f"monomial {mon} has an index out of range for n={n}")
        if len(set(mon)) != len(mon):
            raise ValueError(f"monomial {mon} repeats an index")
        if len(mon) > d:
            raise ValueError(f"monomial {mon} exceeds the degree cap {d}")
    return Polynomial.from_monomials(n, d, monomials)


def parse_polynomial(text: str) -> Polynomial:
    return _polynomial(_load(text, dict))


def parse_family(text: str) -> list[Polynomial]:
    """A JSON array of polynomial objects."""
    return [_polynomial(p, f"[{k}]") for k, p in enumerate(_load(text, list))]


def emit_polynomial(p: Polynomial) -> str:
    return render_json(p.to_json_dict())


def _load(text: str, kind: type):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if type(data) is not kind:
        raise ValueError(f"top-level JSON value must be an {'object' if kind is dict else 'array'}")
    return data


def _vec(raw, where: str, n: int) -> int:
    if not isinstance(raw, str) or len(raw) != n:
        raise ValueError(f"{where}: expected a length-{n} 0/1 string, got {raw!r}")
    return parse_word(raw)


def _items(data, key: str, where: str, parse) -> tuple:
    """Each entry of the list ``data[key]``, parsed as ``parse(entry, name)``."""
    raw = _field(data, key, list, where)
    return tuple(parse(item, _name(where, f"{key}[{i}]")) for i, item in enumerate(raw))


def source_to_dict(src: Source) -> dict:
    if isinstance(src, Flat):
        return {
            "type": "flat",
            "n": src.n,
            "support": [word_string(src.n, v) for v in src.support],
        }
    if isinstance(src, Affine):
        return {
            "type": "affine",
            "n": src.n,
            "offset": word_string(src.n, src.offset),
            "basis": [word_string(src.n, v) for v in src.basis],
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


def source_from_dict(data: dict, where: str = "") -> Source:
    kind = _field(data, "type", str, where)
    if kind == "flat":
        n = _field(data, "n", int, where)
        return Flat(n, _items(data, "support", where, partial(_vec, n=n)))
    if kind == "affine":
        n = _field(data, "n", int, where)
        offset = _vec(_field(data, "offset", str, where), _name(where, "offset"), n)
        return Affine(n, offset, _items(data, "basis", where, partial(_vec, n=n)))
    if kind == "sumset":
        x = source_from_dict(_field(data, "x", dict, where), _name(where, "x"))
        y = source_from_dict(_field(data, "y", dict, where), _name(where, "y"))
        if not isinstance(x, Flat) or not isinstance(y, Flat):
            raise ValueError("sumset summands must be flat sources")
        return Sumset(x, y)
    if kind == "local":
        bits = []
        for i, b in enumerate(_field(data, "bits", list, where)):
            at = _name(where, f"bits[{i}]")
            table = _field(b, "table", str, at)
            if any(c not in "01" for c in table):
                raise ValueError(f"{at}.table must be a 0/1 string")
            inputs = _field(b, "inputs", list, at, of=int)
            bits.append(LocalBit(tuple(inputs), tuple(map(int, table))))
        r, m = _field(data, "r", int, where), _field(data, "m", int, where)
        # a local source builds no monomial order, so only its m + 1 monomials are budgeted
        check_budget(f"{where or 'local source'}: m={m}, monomials", anf.MONOMIAL_BUDGET, m + 1)
        return Local(r, m, tuple(bits))
    if kind == "polynomial":
        m = _field(data, "m", int, where)
        return PolynomialImage(m, _items(data, "polys", where, _polynomial))
    if kind == "variety":
        n = _field(data, "n", int, where)
        return Variety(n, _items(data, "polys", where, _polynomial))
    raise ValueError(f"unknown source type {kind!r}")


def parse_source(text: str) -> Source:
    return source_from_dict(_load(text, dict))


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
    kind = _field(data, "kind", str)
    num = partial(_field, data, kind=int)
    # Each builder draws r polynomials over (or evaluates) one monomial order;
    # all of them are budgeted like a polynomial file's before the builder runs.
    if kind == "two-source":
        n, r = num("n"), num("r")
        check_order(n, 2, f"two-source descriptor: n={n}, degree 2, r={r}", r)
        return build_two_source(n, num("seed"), r=r)
    if kind == "seeded":
        t, d = num("t"), num("d")
        check_order(t, d, f"seeded descriptor: t={t}, d={d}")
        return build_seeded(num("n"), t, d, num("seed"))
    if kind == "evasive":
        k, d, r = num("k"), num("d"), num("r")
        check_order(k, d, f"evasive descriptor: k={k}, d={d}, r={r}", r)
        return build_evasive_h(k, d, num("seed"), r=r)
    raise ValueError(f"unknown descriptor kind {kind!r}")


def load_json(path: Union[str, Path]) -> dict:
    return _load(Path(path).read_text(), dict)

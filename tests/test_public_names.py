"""Every name a ``polyext`` module exports, every public method of an
exported class, and every defaulted parameter, is used outside the tests.

The Python files under ``src/``, ``scripts/`` and ``perfbench/`` are parsed,
not searched as text: a use is a name, an attribute or an import alias in
their syntax trees, so strings and docstrings never count.  An exported name
is used when some such reference to it lies outside its own definition.  A
public method, classmethod or property of an exported class is reached only
through an attribute, so an attribute ``.name`` outside its own definition is
a use of it; any attribute of that name counts, whatever object it is read
from, so a dead method that shares its name with a live attribute stays
out of this test's reach.  A name that only the tests use belongs in the
tests.

A defaulted parameter counts as used when some call in those files, to a
function or method of the same name, passes it by keyword, by position, or
through ``*``/``**``.  A knob that no program sets is a constant.

Each allowlist entry says why it stays without a caller.

Some conventions have one owner module in ``src/polyext`` (``OWNERS``).  No
other file under those directories may use an owned identifier (as a name,
an attribute, an import or its alias, or a definition) or define a function
whose name contains an owned fragment.  The same parsed trees decide this, so
a comment, a docstring or a string that names a rule never breaks it.

Inside ``src/`` a point is a packed int word beside its length n.  A
``BitVector`` is built (called, or made by ``.from_string`` or
``.from_support``) only in the functions of ``BITVECTOR_EDGES``, each with
the reason it sits at an edge: a test-pinned view, a polynomial's
coefficient vector, or a result type kept as it is.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyext"
CALLER_DIRS = ("src", "scripts", "perfbench")

_TRACER_ONLY = (
    "named only by the perfbench/tracer.py TARGETS strings; it leaves src/ with the "
    "tracer retarget (ROADMAP items 1 and 4)"
)

#: Exported names kept without a caller outside the tests, with the reason for each.
ALLOWED = {
    "anf.evaluate": "the scalar evaluator f(x) that the tests check eval_polys against",
    "io.emit_matrix": "canonical matrix emitter used by the parse/emit round-trip tests",
    "io.emit_source": "canonical source emitter used by the parse/emit round-trip tests",
    "anf.compose_linear": _TRACER_ONLY,
    "constructions.eval_seeded": _TRACER_ONLY,
    "sources.support_of": _TRACER_ONLY,
}

#: Public methods of exported classes kept without a caller, with the reason for each.
ALLOWED_METHODS = {
    "oracles.EnergyPartition.verify": (
        "the from-scratch re-check that the tests run on energy_partition results"
    ),
}

#: Defaulted parameters kept without a caller that passes them, with the reason for each.
ALLOWED_DEFAULTS = {
    "reports.ExperimentReport.payload(include_wall_time)": (
        "criterion 14 compares payloads without wall time, and the criteria are fixed"
    ),
}


#: One owner per convention: (identifiers, function-name fragment or None,
#: owner module, why), read by :func:`_ownership_breaches`.
OWNERS = (
    (
        {"_active_masks", "_mask_array", "_table"}, None, "anf",
        "evaluate with anf.eval_polys or anf.eval_words instead of reading "
        "a polynomial's masks or cached table",
    ),
    (
        {"support_of"}, None, "sources",
        "read sources._support_counts instead of the per-point support_of view",
    ),
    (
        {"_image_table", "_image_words", "_local_layout"}, None, "sources",
        "read local and polynomial-image outputs through sources.sample_words or "
        "sources._support_counts instead of the kept table or its builders",
    ),
    (
        {"sample_source"}, None, "sources",
        "draw a batch with sources.sample_words instead of one sample_source call per point",
    ),
    (
        {"full_rank_check"}, None, "ranklab",
        "full_rank_check validates both word sets and builds a certificate on every call; "
        "other modules reach sumset rank through ranklab's samplers and selections",
    ),
    (
        {"canonical_index"}, "canonical", "gf2",
        "sort with gf2.canonical_key or enumerate with gf2.hamming_ball "
        "instead of encoding the canonical order again",
    ),
    (
        set(), "subset_xor", "gf2",
        "XOR subsets of words with gf2.subset_xor or gf2.subset_xors "
        "instead of encoding subset-XOR again",
    ),
    (
        {"BudgetExceededError"}, "check_budget", "errors",
        "refuse exponential work with errors.check_budget and the module's named limit "
        "instead of raising BudgetExceededError or writing another gate",
    ),
)


@lru_cache(maxsize=None)
def _caller_trees() -> dict[Path, ast.Module]:
    return {
        p: ast.parse(p.read_text(), str(p))
        for d in CALLER_DIRS
        for p in sorted((ROOT / d).rglob("*.py"))
    }


@lru_cache(maxsize=None)
def _references() -> tuple[dict, dict]:
    """(names, attributes): each identifier mapped to the (file, line) of its uses.

    ``names`` holds bare names and import aliases; ``attributes`` holds the
    ``.attr`` of every attribute reference.
    """
    names: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    attributes: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in _caller_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id].append((path, node.lineno))
            elif isinstance(node, ast.alias):
                names[node.name.rpartition(".")[2]].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes[node.attr].append((path, node.lineno))
    return names, attributes


def _span(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def _is_used(name: str, module: Path, own: range, *kinds: dict) -> bool:
    """Does some reference to ``name`` lie outside the lines ``own`` of ``module``?"""
    return any(
        path != module or line not in own for refs in kinds for path, line in refs.get(name, ())
    )


def _exports(path: Path) -> dict[str, ast.AST | None]:
    """Each ``__all__`` name mapped to its top-level definition (None for none)."""
    defs: dict[str, ast.AST] = {}
    names: list[str] = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            for t in targets:
                defs[t] = node
            if "__all__" in targets:
                names = [elt.value for elt in node.value.elts]
    return {n: defs.get(n) for n in names}


def _check(unused: set[str], allowed: dict[str, str], problem: str) -> None:
    missing = sorted(unused - set(allowed))
    assert not missing, f"{problem}: {missing}"
    stale = sorted(set(allowed) - unused)
    assert not stale, f"allowlisted entries that have a caller or are gone: {stale}"


def test_every_exported_name_has_a_caller():
    names, attributes = _references()
    unused = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in _exports(path).items()
        if not _is_used(name, path, _span(node) if node else range(0), names, attributes)
    }
    _check(unused, ALLOWED, "exported names used only by tests")


def test_every_public_method_of_an_exported_class_has_a_caller():
    _, attributes = _references()
    unused = {
        f"{path.stem}.{cls.name}.{fn.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in _exports(path).values()
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        if not _is_used(fn.name, path, _span(fn), attributes)
    }
    _check(unused, ALLOWED_METHODS, "public methods used only by tests")


def _defaulted(fn: ast.FunctionDef, skip: int):
    """(parameter, call position or None for keyword-only) of each defaulted
    parameter; ``skip`` drops ``self``/``cls`` from the positions."""
    positional = fn.args.posonlyargs + fn.args.args
    for i in range(len(positional) - len(fn.args.defaults), len(positional)):
        yield positional[i].arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _defaulted_params(path: Path):
    """(label, call name, parameter, position) for public top-level functions
    and the public methods and constructors of exported classes."""
    exported = set(_exports(path))
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for param, pos in _defaulted(node, 0):
                yield node.name, node.name, param, pos
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name.startswith("_") and fn.name != "__init__":
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                call_name = node.name if fn.name == "__init__" else fn.name
                for param, pos in _defaulted(fn, 0 if static else 1):
                    yield f"{node.name}.{fn.name}", call_name, param, pos


def _passes(call: ast.Call, param: str, pos) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):  # None is **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def test_every_default_parameter_has_a_caller():
    calls: dict[str, list[ast.Call]] = defaultdict(list)
    for tree in _caller_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    calls[name].append(node)
    unused = {
        f"{path.stem}.{label}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for label, call_name, param, pos in _defaulted_params(path)
        if not any(_passes(c, param, pos) for c in calls[call_name])
    }
    _check(unused, ALLOWED_DEFAULTS, "defaulted parameters that no program passes")


def _identifiers(tree: ast.AST):
    """(identifier, line, names a function definition) for each identifier in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False
            if node.asname:
                yield node.asname, node.lineno, False
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, not isinstance(node, ast.ClassDef)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg, node.lineno, False


def _ownership_breaches(path: Path, tree: ast.AST) -> list[str]:
    """'line: identifier: why' for each use in ``tree``, the file ``path``, of
    a convention that another module owns."""
    return [
        f"{line}: {ident}: {why}"
        for ident, line, defines in _identifiers(tree)
        for names, fragment, owner, why in OWNERS
        if path != PACKAGE / f"{owner}.py"
        if ident in names or (defines and fragment is not None and fragment in ident)
    ]


def test_each_convention_is_used_only_by_its_owner():
    breaches = [
        f"{path.relative_to(ROOT)}:{breach}"
        for path, tree in _caller_trees().items()
        for breach in _ownership_breaches(path, tree)
    ]
    assert not breaches, "\n".join(breaches)


#: How each kind of use reads, with the owned identifier for ``{}``.
_USES = {
    "call": "x = {}(a, b)\n",
    "attribute": "from . import m\ny = m.{}\n",
    "import": "from .m import {}\n",
    "aliased import": "from .m import {} as renamed\n",
}
#: Definitions whose name contains the owned fragment ``{}``.
_DEFINITIONS = {
    "function": "def _by_{}_order(n):\n    return n\n",
    "method": "class C:\n    def {}s(self):\n        return self\n",
}
#: Text that names a rule without using it.
_MENTIONS = {
    "comment": "# never call {}(x) here\nx = 1\n",
    "docstring": '"""Never call {}(x) here."""\n',
    "string": 'TARGET = ("m", "{}")\n',
}


def _row_id(row) -> str:
    names, fragment = row[0], row[1]
    return "/".join(sorted(names) + ([f"def-{fragment}"] if fragment else []))


@pytest.mark.parametrize("row", OWNERS, ids=_row_id)
def test_the_ownership_guard_flags_uses_and_passes_mentions(row):
    names, fragment, owner, _ = row
    owned, other = PACKAGE / f"{owner}.py", PACKAGE / "bias.py"
    uses = {f"{kind} of {name}": t.format(name) for name in names for kind, t in _USES.items()}
    if fragment:
        uses.update({f"{kind} {fragment}": t.format(fragment) for kind, t in _DEFINITIONS.items()})
    for label, text in uses.items():
        tree = ast.parse(text)
        assert _ownership_breaches(other, tree), f"{label} in {other.name} is not flagged"
        assert not _ownership_breaches(owned, tree), f"{label} in the owner {owned.name} is flagged"
    words = sorted(names) + ([fragment] if fragment else [])
    for word in words:
        for kind, text in _MENTIONS.items():
            assert not _ownership_breaches(other, ast.parse(text.format(word))), f"{kind} of {word}"
    if fragment:  # a fragment row owns definitions; using the owner's functions is the point
        for kind, text in _USES.items():
            assert not _ownership_breaches(other, ast.parse(text.format(fragment))), kind


#: The src/ functions that build a BitVector, each with why it sits at the edge.
_COEFFS = "a Polynomial holds its coefficients as a BitVector against its monomial order"
BITVECTOR_EDGES = {
    "gf2.BitVector.__xor__": "the vector type's own sum",
    "gf2.hamming_ball": "the canonical ball as vectors, which the acceptance criteria read",
    "gf2.weight_slice": "the slices a SpecialSumsetDraw reports",
    "anf.Polynomial.from_monomials": _COEFFS,
    "anf.sample_poly": _COEFFS,
    "anf.anf_from_truth_table": _COEFFS,
    "anf.compose_linear": _COEFFS,
    "oracles.sample_vanishing_poly": _COEFFS,
    "sources.variety_reduce": _COEFFS,
    "sources.support_of": "the per-point distribution view, pinned by the tests as strings",
    "sources.sample_source": "the one-draw view, pinned by the tests as strings",
    "ranklab.special_sumset_sampler": "SpecialSumsetDraw keeps its vector fields",
}


def _builds_bitvector(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("from_string", "from_support"):
        func = func.value
    return getattr(func, "id", None) == "BitVector" or getattr(func, "attr", None) == "BitVector"


def _bitvector_sites(module: str, tree: ast.AST) -> set[str]:
    """'module.qualified.function' (or 'module.<module>') for each BitVector built in ``tree``."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _builds_bitvector(child):
                found.add(".".join([module] + (scope or ["<module>"])))
            walk(child, scope)

    walk(tree, [])
    return found


def test_bitvectors_are_built_only_at_the_edge():
    found = set().union(*(
        _bitvector_sites(path.stem, ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    ))
    _check(found, BITVECTOR_EDGES, "src/ functions that build a BitVector off the edge")


@pytest.mark.parametrize(
    "text, sites",
    [
        ("def f(n):\n    return BitVector(n, 1)\n", {"m.f"}),
        ("def f(t):\n    return gf2.BitVector.from_string(t)\n", {"m.f"}),
        ("class C:\n    def g(self):\n        return [BitVector.from_support(3, s) for s in x]\n",
         {"m.C.g"}),
        ("def f():\n    def inner():\n        return BitVector(1, 0)\n    return inner\n",
         {"m.f.inner"}),
        ("ZERO = BitVector(1, 0)\n", {"m.<module>"}),
        ("def f(v):\n    return v.bits, v.to_string(), BitMatrix.from_string('1')\n", set()),
        ('def f():\n    """Build a BitVector(n, w) here."""\n    # BitVector(1, 0)\n', set()),
    ],
    ids=["call", "from-string", "from-support-in-method", "nested", "module-level",
         "reads-only", "mentions"],
)
def test_the_bitvector_guard_flags_builds_and_passes_reads(text, sites):
    assert _bitvector_sites("m", ast.parse(text)) == sites

"""Every name a ``polyext`` module exports, and every defaulted parameter, is
used outside the tests.

A name counts as used when it appears, as a whole word, in some Python file
under ``src/``, ``scripts/`` or ``perfbench/`` outside its own definition and
its module's ``__all__``.  A name that only the tests use belongs in the tests.
The text is searched, not the syntax tree, because the benchmark tracer names
the functions it wraps in strings.

A defaulted parameter counts as used when some call in those files, to a
function or method of the same name, passes it by keyword, by position, or
through ``*``/``**``.  A knob that no program sets is a constant.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyext"
CALLER_DIRS = ("src", "scripts", "perfbench")

#: Exported names kept without a caller outside the tests, with the reason for each.
ALLOWED = {
    "anf.evaluate": "the scalar evaluator f(x) that the tests check eval_polys against",
    "io.emit_matrix": "canonical matrix emitter used by the parse/emit round-trip tests",
    "io.emit_source": "canonical source emitter used by the parse/emit round-trip tests",
}

#: Defaulted parameters kept without a caller that passes them, with the reason for each.
ALLOWED_DEFAULTS = {
    "reports.ExperimentReport.payload(include_wall_time)": (
        "criterion 14 compares payloads without wall time, and the criteria are fixed"
    ),
}


def _caller_texts() -> dict[Path, str]:
    return {p: p.read_text() for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))}


def _exports(path: Path) -> dict[str, set[int]]:
    """Each ``__all__`` name mapped to the lines that do not count as uses:
    the ``__all__`` assignment and the name's own top-level definition."""
    spans: dict[str, range] = {}
    names: list[str] = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for t in targets:
            spans[t] = range(node.lineno, node.end_lineno + 1)
        if "__all__" in targets:
            names = [elt.value for elt in node.value.elts]
    return {n: set(spans["__all__"]) | set(spans.get(n, ())) for n in names}


def _is_used(name: str, module: Path, own_lines: set[int], texts: dict[Path, str]) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    for path, text in texts.items():
        for match in word.finditer(text):
            if path != module or text.count("\n", 0, match.start()) + 1 not in own_lines:
                return True
    return False


def test_every_exported_name_has_a_caller():
    texts = _caller_texts()
    unused = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, own_lines in _exports(path).items()
        if not _is_used(name, path, own_lines, texts)
    }
    only_tests = sorted(unused - set(ALLOWED))
    assert not only_tests, f"exported names used only by tests: {only_tests}"
    stale = sorted(set(ALLOWED) - unused)
    assert not stale, f"allowlisted names that have a caller or are gone: {stale}"


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
    for path, text in _caller_texts().items():
        for node in ast.walk(ast.parse(text, str(path))):
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
    never_passed = sorted(unused - set(ALLOWED_DEFAULTS))
    assert not never_passed, f"defaulted parameters that no program passes: {never_passed}"
    stale = sorted(set(ALLOWED_DEFAULTS) - unused)
    assert not stale, f"allowlisted parameters that have a caller or are gone: {stale}"

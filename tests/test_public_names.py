"""Every name a ``polyext`` module exports is used outside the tests.

A name counts as used when it appears, as a whole word, in some Python file
under ``src/``, ``scripts/`` or ``perfbench/`` outside its own definition and
its module's ``__all__``.  A name that only the tests use belongs in the tests.
The text is searched, not the syntax tree, because the benchmark tracer names
the functions it wraps in strings.
"""

from __future__ import annotations

import ast
import re
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
    texts = {p: p.read_text() for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))}
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

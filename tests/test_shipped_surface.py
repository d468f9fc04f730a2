"""Everything the package ships, something outside the tests names.

A public function or class that only the tests call is a test helper
living in the package: it belongs in ``tests/`` (``tests/oracles.py``, or
the one test file that uses it) or nowhere.  The audit walks every
public module-level function and class under ``src/repro`` and requires
its name to appear somewhere in ``src/``, ``benchmarks/`` or
``examples/`` — outside its own definition, and not counting a package
``__init__``'s re-exports (its imports and ``__all__``).  It matches by
word, which is as coarse as an audit can be and still fails on a name
that nothing outside the tests mentions; the allowlist holds the few
that are shipped for library users rather than called.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_]\w*")

#: (module, name) -> why it may ship with only tests calling it.
ALLOWED = {
    ("congest/engine.py", "FunctionProgram"):
        "the library's way to run a program written as two functions "
        "(its docstring's example); engine and schedule tests drive it",
}


def _public_definitions():
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[first - 1:node.end_lineno])
            yield str(path.relative_to(SRC)), node.name, own


def _without_reexports(source: str) -> str:
    """A package ``__init__`` minus its imports and ``__all__``."""
    lines = source.splitlines()
    for node in ast.parse(source).body:
        reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        )
        if reexport:
            lines[node.lineno - 1:node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1
            )
    return "\n".join(lines)


def _shipped_words() -> Counter:
    words: Counter = Counter()
    for top in ("src", "benchmarks", "examples"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            source = path.read_text()
            if path.name == "__init__.py" and SRC in path.parents:
                source = _without_reexports(source)
            words.update(WORD.findall(source))
    return words


def test_every_shipped_name_is_named_outside_the_tests():
    definitions = list(_public_definitions())
    assert len(definitions) > 250, "the walk lost the package"
    words = _shipped_words()
    unnamed = {
        (module, name)
        for module, name, own in definitions
        if words[name] <= WORD.findall(own).count(name)
    }
    assert unnamed - set(ALLOWED) == set(), (
        "shipped names only the tests use (move each to tests/oracles.py "
        f"or delete it): {sorted(unnamed - set(ALLOWED))}"
    )
    # The allowlist is a list of exceptions, not a parking lot.
    assert set(ALLOWED) <= unnamed, sorted(set(ALLOWED) - unnamed)
    assert len(ALLOWED) <= 2 and all(ALLOWED.values())

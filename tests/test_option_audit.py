"""Every option somebody sets: an AST audit of the public seam.

An option nothing sets is a second code path nothing runs.  The audit
walks every public callable under ``src/repro`` (module-level functions,
and the public methods and ``__init__`` of public classes) and requires
each *defaulted* parameter to be passed by keyword somewhere in ``src/``,
``benchmarks/``, ``examples/`` or ``tests/``.  It matches by parameter
name, which is as coarse as an audit can be and still fails on a
parameter that is set by nothing at all; the allowlist holds the few
that are only ever passed positionally.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: (module, callable, parameter) -> why it may stay unset by keyword.
ALLOWED = {
    ("bench/runner.py", "main", "argv"):
        "CLI entry point: tests pass the argument list positionally",
    ("fuzz/__main__.py", "main", "argv"):
        "CLI entry point: tests pass the argument list positionally",
    ("obs/__main__.py", "main", "argv"):
        "CLI entry point: tests pass the argument list positionally",
    ("congest/arrays.py", "PayloadColumns.__init__", "is_bool"):
        "passed positionally (arrays.py, heavy_path.py, array_kernels.py)",
}


def _defaulted(fn: ast.FunctionDef):
    args = fn.args
    positional = args.posonlyargs + args.args
    for arg in positional[len(positional) - len(args.defaults):]:
        yield arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg


def _public_defaulted_parameters():
    src = REPO_ROOT / "src" / "repro"
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(src.rglob("*.py")):
        module = str(path.relative_to(src))
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue  # private, or not a def / class at all
            if isinstance(node, functions):
                for param in _defaulted(node):
                    yield module, node.name, param
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, functions) and (
                        sub.name == "__init__" or not sub.name.startswith("_")
                    ):
                        for param in _defaulted(sub):
                            yield module, f"{node.name}.{sub.name}", param


def _keywords_passed():
    names = set()
    for top in ("src", "benchmarks", "examples", "tests"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    names.update(k.arg for k in node.keywords if k.arg)
    return names


def test_every_defaulted_option_is_set_by_someone():
    parameters = list(_public_defaulted_parameters())
    assert len(parameters) > 250, "the walk lost the package"
    passed = _keywords_passed()
    unset = {p for p in parameters if p[2] not in passed}
    assert unset - set(ALLOWED) == set(), (
        "defaulted parameters no caller passes by name (delete the option "
        f"with the branch behind it): {sorted(unset - set(ALLOWED))}"
    )
    # The allowlist is a list of exceptions, not a parking lot.
    assert set(ALLOWED) <= unset, sorted(set(ALLOWED) - unset)
    assert len(ALLOWED) <= 8 and all(ALLOWED.values())

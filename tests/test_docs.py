"""The documentation stays true: quickstart runs, module maps exist.

These tests keep README.md's quickstart runnable verbatim and forbid the
docs from naming modules that do not exist — the failure mode of every
hand-maintained architecture document.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _python_blocks(text: str):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_exists_with_required_sections():
    readme = (REPO_ROOT / "README.md").read_text()
    for heading in ("## Install", "## Quickstart", "## Paper → code map"):
        assert heading in readme


def test_readme_quickstart_runs_verbatim():
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = _python_blocks(readme)
    assert blocks, "README.md must contain a ```python quickstart block"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "<README quickstart>", "exec"), namespace)
    # The quickstart's own asserts ran; spot-check its result object too.
    result = namespace["result"]
    assert result.rounds > 0 and result.messages > 0


@pytest.mark.parametrize("doc", ["README.md", "docs/architecture.md", "PAPER.md"])
def test_docs_name_only_existing_paths(doc):
    text = (REPO_ROOT / doc).read_text()
    referenced = set(re.findall(r"`((?:src|benchmarks|tests|examples|docs)/[\w./*-]+)`", text))
    assert referenced, f"{doc} should reference repo paths"
    missing = []
    for ref in referenced:
        if "*" in ref:
            if not list(REPO_ROOT.glob(ref)):
                missing.append(ref)
        elif not (REPO_ROOT / ref).exists():
            missing.append(ref)
    assert not missing, f"{doc} references nonexistent paths: {sorted(missing)}"


def test_readme_module_map_functions_exist():
    # Backticked `function` names attached to module rows must be real.
    readme = (REPO_ROOT / "README.md").read_text()
    assert "verify_block_parameters" in readme
    from repro.core.corefast import verify_block_parameters  # noqa: F401


def test_docstrings_name_only_existing_markdown():
    # A docstring that cites DESIGN.md must not outlive DESIGN.md.
    import ast

    missing = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef,
                 ast.AsyncFunctionDef),
            ):
                continue
            docstring = ast.get_docstring(node) or ""
            for name in re.findall(r"[\w./-]+\.md\b", docstring):
                if not (REPO_ROOT / name).exists():
                    missing.append(f"{path.relative_to(REPO_ROOT)}: {name}")
    assert not missing, f"docstrings cite missing documents: {missing}"


@pytest.mark.parametrize(
    "example", sorted(p.stem for p in (REPO_ROOT / "examples").glob("*.py"))
)
def test_every_example_runs(example):
    # Examples are narratives with their own asserts; a renamed keyword
    # must break a test, not a reader.
    import runpy

    module = runpy.run_path(
        str(REPO_ROOT / "examples" / f"{example}.py"), run_name=example
    )
    module["main"]()

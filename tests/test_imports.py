"""Every module of ``src/segnet`` and ``scripts/`` uses each name it imports.

``__init__.py`` only re-exports names, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "segnet").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    if path.name != "__init__.py"
)
# (module, name) pairs imported for another module's sake: perfbench/spans.py
# wraps sex_permutation_test in the pipeline namespace by that name.
ALLOWED = {("pipeline.py", "sex_permutation_test")}


def unused_imports(source: str) -> dict[str, int]:
    """Names bound by an import but never loaded, with the line of their import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # A dotted use such as np.zeros starts with the Name np.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_unused_imports_are_found():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, Sequence\n"
        "x: Any = np.pi\n"
    )
    assert unused_imports(source) == {"os": 1, "Sequence": 3}


def test_allowed_names_are_imported_and_otherwise_unused():
    for module, name in ALLOWED:
        source = (ROOT / "src" / "segnet" / module).read_text(encoding="utf-8")
        assert name in unused_imports(source), (module, name)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_name_it_imports(path):
    unused = {
        name: line
        for name, line in unused_imports(path.read_text(encoding="utf-8")).items()
        if (path.name, name) not in ALLOWED
    }
    assert unused == {}, f"{path.name}: unused imports (name: line) {unused}"

"""The lazy ``segnet`` namespace: every public name resolves to its home module's object."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import segnet

SRC = Path(segnet.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parent.parent


def fresh_interpreter(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` where no module this test session imported is loaded yet."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )


def test_all_is_the_table_and_each_name_is_its_home_modules_object():
    assert segnet.__all__ == sorted(segnet._HOME)
    for name, module_name in segnet._HOME.items():
        home = importlib.import_module(f"segnet.{module_name}")
        assert name in home.__all__, (name, module_name)
        assert getattr(segnet, name) is getattr(home, name), name


def test_dir_covers_all_and_submodules_and_unknown_names_raise():
    listed = dir(segnet)
    assert set(segnet.__all__) <= set(listed)
    assert {"config", "pipeline", "cli"} <= set(listed)
    assert segnet.dyadic is importlib.import_module("segnet.dyadic")
    with pytest.raises(AttributeError, match="no attribute 'default_feature_spec'"):
        segnet.default_feature_spec


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from segnet import *", namespace)
    assert [name for name in segnet.__all__ if name not in namespace] == []


# segnet.config and segnet.vocabulary need no numpy, so a job can read and
# check its run config before loading any numeric layer.
CONFIG_PROBE = """
import json, sys
import segnet
segnet.load_run_config(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "segnet"))))
"""


def test_loading_a_run_config_imports_no_numpy_and_no_other_layer(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(segnet.default_config_text(), encoding="utf-8")
    done = fresh_interpreter(CONFIG_PROBE, str(config))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["segnet", "segnet.config", "segnet.vocabulary"]


# The modules that loading a run config adds, listed without importing json:
# hashing a config needs hashlib and json, reading one does not.
LOAD_PATH_PROBE = """
import sys
before = set(sys.modules)
import segnet
segnet.load_run_config(sys.argv[1])
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_loading_a_run_config_imports_no_numpy_hashlib_or_json(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(segnet.default_config_text(), encoding="utf-8")
    done = fresh_interpreter(LOAD_PATH_PROBE, str(config))
    assert done.returncode == 0, done.stderr
    added = done.stdout.split()
    assert "segnet.config" in added
    heavy = [m for m in added if m.partition(".")[0].lstrip("_") in ("numpy", "hashlib", "json")]
    assert heavy == []


def names_without_a_user(names: list[str], texts: list[str], modules: list[str]) -> list[str]:
    """The ``names`` used as a whole word in none of ``texts`` or ``modules``.

    A module's ``__all__`` entries and a name's own ``def``/``class`` line or
    module-level assignment do not count as a use.
    """
    lines = []
    for source in modules:
        skipped = set()
        for node in ast.parse(source).body:
            bound = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
            if "__all__" in bound:
                skipped.update(range(node.lineno, node.end_lineno + 1))
        lines += [line for k, line in enumerate(source.splitlines(), 1) if k not in skipped]
    for text in texts:
        lines += text.splitlines()
    unused = []
    for name in names:
        word = re.escape(name)
        use = re.compile(rf"\b{word}\b")
        own = re.compile(rf"\s*(?:async\s+)?(?:def|class)\s+{word}\b|{word}\s*(?::[^=]*)?=[^=]")
        if not any(use.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    return unused


def test_names_without_a_user_are_found():
    module = (
        '__all__ = [\n    "f",\n    "g",\n    "C",\n]\n\n'
        "def f(x):\n    return g(x)\n\n"
        "def g(x):\n    return x\n\n"
        "class C:\n    pass\n"
    )
    assert names_without_a_user(["f", "g", "C"], ["call f(1)"], [module]) == ["C"]
    assert names_without_a_user(["f", "g", "C"], [], [module]) == ["f", "C"]
    constants = "_K = 3\n_J: int = 4\n_L = (\n    1,\n)\n\ndef f(x):\n    return x + _J\n"
    assert private_module_names(constants) == ["_K", "_J", "_L"]
    assert names_without_a_user(["_K", "_J", "_L"], [], [constants]) == ["_K", "_L"]


def test_every_public_name_has_a_user():
    """Each name in ``segnet.__all__`` is used by README.md, a script or another
    module of the package, so the public surface carries no dead wrappers."""
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "scripts").glob("*.py"))]
    modules = [
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "segnet").glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert names_without_a_user(segnet.__all__, texts, modules) == []


def private_module_names(source: str) -> list[str]:
    """The module-level ``_name`` functions, classes and constants ``source`` defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_has_a_user():
    """Each module-level ``_name`` of ``src/segnet`` is used there beyond its
    definition, so no private helper outlives its last caller."""
    modules = [
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "src" / "segnet").glob("*.py"))
    ]
    names = sorted({name for source in modules for name in private_module_names(source)})
    assert names_without_a_user(names, [], modules) == []

"""The package namespace: every exported name resolves to its defining module's
object, on first use, loading a config imports only what it needs, and the
leaf modules import nothing from the package."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opiniondyn

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ["baselines", "config", "dynamics", "linguistic", "metrics", "network", "outputs"]


def fresh_process(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports the package from src/."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    return result.stdout


def test_loading_a_config_imports_only_config_linguistic_and_network(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_agents": 3, "initial_opinions": [0, 3, 6]}))
    loaded = fresh_process(
        "import sys\n"
        "from opiniondyn.config import load_config\n"
        "load_config(sys.argv[1]).term_set()\n"
        "print(*sorted(m for m in sys.modules if m.startswith('opiniondyn')))\n", str(path))
    assert loaded.split() == ["opiniondyn", "opiniondyn.config",
                              "opiniondyn.linguistic", "opiniondyn.network"]


def test_a_submodule_resolves_in_a_fresh_process_without_an_import():
    resolved = fresh_process("import opiniondyn\n"
                             f"for name in {SUBMODULES!r}:\n"
                             "    print(getattr(opiniondyn, name).__name__)\n")
    assert resolved.split() == [f"opiniondyn.{name}" for name in SUBMODULES]


@pytest.mark.parametrize("name", opiniondyn.__all__)
def test_every_exported_name_is_its_defining_modules_object(name):
    value = getattr(opiniondyn, name)
    assert value.__module__.startswith("opiniondyn.")
    assert value is getattr(sys.modules[value.__module__], name)
    assert vars(opiniondyn)[name] is value  # cached after first use


def test_dir_lists_every_exported_name_and_submodule():
    listed = dir(opiniondyn)
    assert set(opiniondyn.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from opiniondyn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(opiniondyn.__all__)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        opiniondyn.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from opiniondyn import no_such_name", {})


@pytest.mark.parametrize("module", ["network", "linguistic"])
def test_leaf_modules_import_nothing_from_the_package(module):
    # config imports both as it loads, so neither may import config or what
    # imports it, not even for annotations under TYPE_CHECKING
    tree = ast.parse((SRC / "opiniondyn" / f"{module}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "numpy" in imported  # the walk found the imports
    assert [name for name in imported
            if name.startswith(".") or name.split(".")[0] == "opiniondyn"] == []

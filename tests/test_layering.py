"""Each layer loads only the layers beneath it, and no module imports a
name it never uses.

The package root re-exports nothing, so importing one module of jetmech
leaves in ``sys.modules`` that module and the modules it builds on, and no
other. Each import runs in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetmech

PACKAGE = Path(jetmech.__file__).resolve().parent
SRC = str(PACKAGE.parent)
ROOT = PACKAGE.parent.parent

SYMEXPR = {"errors", "symexpr"}
FORMCALC = SYMEXPR | {"formcalc"}
SPENCER = FORMCALC | {"spencer"}
DSL = FORMCALC | {"dsl"}
FORKING = {"forking"}
DYNAMICS = SPENCER | FORKING | {"dynamics"}
VERIFY = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "cli"}

LOADS = {
    "errors": {"errors"},
    "symexpr": SYMEXPR,
    "formcalc": FORMCALC,
    "spencer": SPENCER,
    "dsl": DSL,
    "forking": FORKING,
    "dynamics": DYNAMICS,
    "verify": VERIFY,
}


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that finds this jetmech."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", sorted(LOADS))
def test_a_module_loads_only_the_layers_beneath_it(module):
    loaded = run_fresh(
        "import sys\n"
        f"import jetmech.{module}\n"
        "print(*(n[len('jetmech.'):] for n in sys.modules if n.startswith('jetmech.')))\n"
    )
    assert set(loaded.split()) == LOADS[module]


def test_the_package_root_re_exports_nothing():
    public = run_fresh("import jetmech\nprint(*(n for n in vars(jetmech) if not n.startswith('_')))")
    assert public.split() == []


def unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads or writes."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        str(path.relative_to(ROOT)): names
        for folder in (PACKAGE, ROOT / "tests", ROOT / "tools")
        for path in sorted(folder.rglob("*.py"))
        if (names := unused_imports(path))
    }
    assert unused == {}

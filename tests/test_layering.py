"""Each `nmcode` module imports only from the layers below its own.

The layers, lowest first: `core`; `gf`, `tamper`, `perm` and `lp`;
`inner`; `lecss`; `schemes`; `concat` and `nmext`; `cli`. An import from a
module's own layer or a higher one lets low-level code lean on high-level
code and opens the way to import cycles. Each module's imports are read
with `ast`, those inside functions too. `__init__` re-exports and
`__main__` runs the CLI, so both are left out.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmcode"
LAYERS = [("core",), ("gf", "tamper", "perm", "lp"), ("inner",), ("lecss",), ("schemes",), ("concat", "nmext"), ("cli",)]
LEVEL = {module: level for level, modules in enumerate(LAYERS) for module in modules}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem not in ("__init__", "__main__"))


def _imported_modules(module: str) -> set:
    """The package modules that `module` imports from."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:  # from . import x, from .x import y
            names = [f"nmcode.{node.module}"] if node.module else [f"nmcode.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] if "." in node.module else [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("nmcode."))
    return found


def test_every_module_has_a_layer():
    assert sorted(LEVEL) == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_from_lower_layers(module):
    level = LEVEL[module]
    assert sorted(m for m in _imported_modules(module) if LEVEL[m] >= level) == []

"""The README names only attributes that exist.

The README's module table and prose cite nmcode names in backticks. A
rename or deletion in `src/` that the README does not follow leaves it
describing code that is gone, so every backticked `module.name` whose
module is an nmcode submodule must resolve, and every backticked ALL-CAPS
constant must be defined in some nmcode module. Fenced code blocks are
skipped: they hold shell commands, not names.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import nmcode

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(nmcode.__path__) if not info.name.startswith("_"))


def _code_spans():
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    return re.findall(r"`([^`]+)`", text)


SPANS = _code_spans()
QUALIFIED = sorted({
    span for span in SPANS
    if re.fullmatch(r"[a-z_]+(\.[A-Za-z_]\w*)+", span) and span.split(".")[0] in SUBMODULES
})
CONSTANTS = sorted({name for span in SPANS for name in re.findall(r"\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", span)})


def test_readme_cites_names():
    assert QUALIFIED and CONSTANTS


@pytest.mark.parametrize("name", QUALIFIED)
def test_qualified_name_resolves(name):
    module, *parts = name.split(".")
    target = importlib.import_module(f"nmcode.{module}")
    for part in parts:
        target = getattr(target, part)


@pytest.mark.parametrize("name", CONSTANTS)
def test_constant_is_defined(name):
    modules = [importlib.import_module(f"nmcode.{module}") for module in SUBMODULES]
    assert any(hasattr(module, name) for module in modules), f"{name} is defined in no nmcode module"

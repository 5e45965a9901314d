"""Every public function, class and method of `nmcode` is reached from
code other than its own definition.

Each `src/nmcode/*.py` module is parsed with `ast`. A public name (no
leading underscore) defined at module level, or as a method of a
module-level class, counts as reached when a `perfbench/*.py` script or a
package module names it outside the definition itself: as a variable, an
attribute, an imported name, or a dotted-name string such as a layer-map
entry. `__init__.py` does not count, since re-exporting a name reaches
nothing, and neither do tests: a name that only tests call stays in
`src/` only with a reason in ALLOWED.

Two references name nothing of the package: one that goes through a name
imported from another module (`json.load`, `np.take`, or `load` after
`from json import load`), and `ClassName.attr` for every class but
ClassName, so `RngSeed.from_json` does not reach `FiniteDist.from_json`.

A reason that cites a ROADMAP item may not cite one that ROADMAP.md marks
retired: a retired item schedules nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nmcode"

#: Unreached names that stay, as "module.qualname": why.
ALLOWED = {
    "concat.ConcatPlan.predicted_error": "ROADMAP item 8 reports it along the plan frontier",
    "core.FiniteDist.point_mass": "ROADMAP item 13 moves FiniteDist into tests/ as the oracle's representation",
    "inner.InnerCode.load": "reads inner_code.bin, the artifact that `nmcode inner sample --out` writes",
    "nmext.ExtractorTable.load": "reads extractor.bin, the artifact that `nmcode nmext sample --out` writes",
    "nmext.check_relaxed_nm": "the paper's relaxed condition on one source pair, which ROADMAP item 3 sweeps",
    "nmext.inner_product_table": "ROADMAP item 3 sweeps the reduction on it",
    "nmext.parity_table": "ROADMAP item 3 sweeps the reduction on it",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _defined(tree: ast.Module):
    """(qualname, node) of the public module-level functions and classes of
    a module, and of the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _foreign(tree: ast.Module) -> set:
    """Names a module binds by importing from outside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] != "nmcode"
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] != "nmcode":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _chain(parts, foreign: set, classes: set):
    """The references of a dotted name: each part, or "Class.part" after
    a class name, and none when it starts at a foreign name."""
    if parts[0] in foreign:
        return
    yield parts[0]
    for before, part in zip(parts, parts[1:]):
        yield f"{before}.{part}" if before in classes else part


def _referenced(node: ast.AST, foreign: set, classes: set, skip: ast.AST = None):
    """Every reference in `node` outside the subtree `skip`."""
    if node is skip:
        return
    if isinstance(node, (ast.Name, ast.Attribute)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            yield from _chain([node.id] + parts, foreign, classes)
            return
        yield from parts  # the attributes of a call, subscript or literal
    elif isinstance(node, ast.alias) and (node.asname or node.name.split(".")[0]) not in foreign:
        yield from node.name.split(".")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
        yield from _chain(node.value.split("."), foreign, classes)
    for child in ast.iter_child_nodes(node):
        yield from _referenced(child, foreign, classes, skip)


def _unreached():
    """(module.qualname of every unreached public name, every allowlist key
    that names no public definition)."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    scripts = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}

    def refs(tree, skip=None):
        return set(_referenced(tree, _foreign(tree), classes, skip))

    names = {path: refs(tree) for path, tree in trees.items() if path.name != "__init__.py"}
    names.update({i: refs(tree) for i, tree in enumerate(scripts)})
    unreached, defined = set(), set()
    for path, tree in trees.items():
        for qualname, node in _defined(tree):
            name, leaf = f"{path.stem}.{qualname}", qualname.rsplit(".", 1)[-1]
            keys = {leaf, qualname}
            defined.add(name)
            if any(keys & found for other, found in names.items() if other != path):
                continue
            if path.name == "__init__.py" or not keys & refs(tree, skip=node):
                unreached.add(name)
    return unreached, set(ALLOWED) - defined


def test_every_public_name_is_reached_or_allowed():
    unreached, _ = _unreached()
    assert sorted(unreached - set(ALLOWED)) == []


def test_allowlist_names_only_unreached_definitions():
    unreached, undefined = _unreached()
    assert sorted(undefined) == []
    assert sorted(set(ALLOWED) - unreached) == []
    assert all(reason.strip() for reason in ALLOWED.values())


def _retired_items() -> set:
    """The item numbers ROADMAP.md marks "*(Retired"."""
    text = (ROOT / "ROADMAP.md").read_text()
    return {int(n) for n in re.findall(r"^(\d+)\. \*\(Retired", text, flags=re.M)}


def test_allowlist_cites_no_retired_item():
    retired = _retired_items()
    assert retired
    stale = {
        name: reason
        for name, reason in ALLOWED.items()
        if retired & {int(n) for n in re.findall(r"ROADMAP item (\d+)", reason)}
    }
    assert stale == {}

"""Every public function, class and method of `nmcode` is reached from
code other than its own definition, and every public dataclass field is
read.

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

A public field of a module-level dataclass counts as read when a package
module other than `__init__.py` or a `perfbench/*.py` script names it as
an attribute (`row.bound`) or in a dotted-name string (a `getattr` key),
or when a method of its class passes `self` to `asdict`, which serialises
every field. A bare name is no read, so a local variable that happens to
share a field's name reads nothing. `asdict` on anything but `self` does
not say which class it serialises; its fields need a reason in ALLOWED.

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
    "concat.ConstraintCheck.formula": "ConcatPlan.to_json serialises each constraint with asdict",
    "concat.ConstraintCheck.lhs": "ConcatPlan.to_json serialises each constraint with asdict",
    "concat.ConstraintCheck.rhs": "ConcatPlan.to_json serialises each constraint with asdict",
    "core.FiniteDist.point_mass": "ROADMAP item 13 moves FiniteDist into tests/ as the oracle's representation",
    "inner.InnerCode.load": "reads inner_code.bin, the artifact that `nmcode inner sample --out` writes",
    "nmext.ExtractorTable.load": "reads extractor.bin, the artifact that `nmcode nmext sample --out` writes",
    "nmext.NmDistances.nm_distances": "the check's result, the relaxed or strict distance per pattern",
    "nmext.NmDistances.optimal_distances": "the check's copy distance per pattern, which criterion 10 gates",
    "nmext.ReductionRow.extractor_error": "the row's measured extractor error, which ROADMAP item 3 reports at m >= 2",
    "nmext.check_relaxed_nm": "the paper's relaxed condition on one source pair, which ROADMAP item 3 sweeps",
    "nmext.inner_product_table": "ROADMAP item 3 sweeps the reduction on it",
    "nmext.parity_table": "ROADMAP item 3 sweeps the reduction on it",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a `dataclass` decorator, called or bare, dotted or not, marks the class."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _defined(tree: ast.Module):
    """(qualname, node) of the public module-level functions and classes of
    a module, of the public methods of its classes, and of the public
    fields (annotated class attributes) of its dataclasses."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item
                    elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                          and _is_dataclass(node) and not item.target.id.startswith("_")):
                        yield f"{node.name}.{item.target.id}", item


def _field_reads(tree: ast.Module) -> set:
    """The names a module can read a field by: every attribute, and every
    part of a dotted-name string such as a `getattr` key."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            reads.update(node.value.split("."))
    return reads


def _serialised(tree: ast.Module) -> set:
    """The classes of a module with a method that passes `self` to `asdict`,
    which reads every field."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", getattr(call.func, "id", None)) == "asdict"
        and [getattr(arg, "id", None) for arg in call.args] == ["self"]
    }


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
    reads = set().union(*(_field_reads(tree) for path, tree in trees.items() if path.name != "__init__.py"),
                        *map(_field_reads, scripts))
    unreached, defined = set(), set()
    for path, tree in trees.items():
        serialised = _serialised(tree)
        for qualname, node in _defined(tree):
            name, leaf = f"{path.stem}.{qualname}", qualname.rsplit(".", 1)[-1]
            keys = {leaf, qualname}
            defined.add(name)
            if isinstance(node, ast.AnnAssign):
                if leaf not in reads and qualname.split(".")[0] not in serialised:
                    unreached.add(name)
                continue
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


def test_fields_are_read_by_attribute_string_or_asdict_of_self():
    tree = ast.parse(
        "@dataclasses.dataclass(frozen=True)\nclass Row:\n    value: int\n    _hidden: int\n"
        "    def to_json(self):\n        return asdict(self)\n\n"
        "@dataclass\nclass Plain:\n    n: int\n\n"
        "n = 1\nx = row.kept\ny = getattr(row, 'a.b')\nz = asdict(row)\n"
    )
    assert [qualname for qualname, _ in _defined(tree)] == ["Row", "Row.value", "Row.to_json", "Plain", "Plain.n"]
    assert _serialised(tree) == {"Row"}
    reads = _field_reads(tree)
    assert {"kept", "a", "b"} <= reads and not {"n", "value"} & reads

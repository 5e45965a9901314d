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
    "inner.InnerCode.min_pairwise_distance": "test oracle of the exclusion radius; ROADMAP item 16 moves it into tests/",
    "inner.InnerParams.sampling_headroom": "states the paper's sampling bound t*2^k*Vol(radius) <= 2^(n-1) (ROADMAP item 16)",
    "inner.InnerPlan.k_bound": "states the paper's message-length bound (ROADMAP item 16)",
    "nmext.ExtractorCode": "test oracle of the reduction; ROADMAP item 16 moves it into tests/",
    "nmext.ExtractorTable.lookup": "test oracle: the one-entry read that the table tests hold as_array to",
    "nmext.check_relaxed_nm": "the paper's relaxed condition on one source pair, which ROADMAP item 3 sweeps",
    "nmext.inner_product_table": "ROADMAP item 3 sweeps the reduction on it",
    "nmext.parity_table": "ROADMAP item 3 sweeps the reduction on it",
    "tamper.BitTamperFn.is_constant": "test oracle of the adversaries verify_error_detection skips; ROADMAP item 16",
    "tamper.random_split_tamper": "test oracle: the random split-state adversaries of the batch and scheme tests",
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


def _referenced(node: ast.AST, skip: ast.AST = None):
    """Every identifier named in `node` outside the subtree `skip`."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield from node.name.split(".")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
        yield from node.value.split(".")
    for child in ast.iter_child_nodes(node):
        yield from _referenced(child, skip)


def _unreached():
    """(module.qualname of every unreached public name, every allowlist key
    that names no public definition)."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    scripts = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    names = {path: set(_referenced(tree)) for path, tree in trees.items() if path.name != "__init__.py"}
    names.update({i: set(_referenced(tree)) for i, tree in enumerate(scripts)})
    unreached, defined = set(), set()
    for path, tree in trees.items():
        for qualname, node in _defined(tree):
            name, leaf = f"{path.stem}.{qualname}", qualname.rsplit(".", 1)[-1]
            defined.add(name)
            if any(leaf in refs for other, refs in names.items() if other != path):
                continue
            if path.name == "__init__.py" or leaf not in _referenced(tree, skip=node):
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

"""The package exports only what something other than the tests uses, and
`cluster` computes on arrays alone: it sees no grid frame, design point or
pipeline."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "owa_explorer"


def _referenced(path: Path) -> set[str]:
    """Every name a module reads, imports or spells as a string constant
    (perfbench/tracer.py looks its targets up by name); definitions alone
    do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_is_used_outside_the_tests():
    init = PACKAGE / "__init__.py"
    exported = {
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [p for p in PACKAGE.glob("*.py") if p != init] + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_referenced, users))
    assert sorted(exported - used) == []


def test_cluster_imports_neither_grid_strategy_nor_pipeline():
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "cluster.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
            imported |= {name.removeprefix("owa_explorer.").split(".")[0] for name in names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.removeprefix("owa_explorer.").split(".")[0] for a in node.names}
    assert not imported & {"grid", "strategy", "pipeline"}, sorted(imported)

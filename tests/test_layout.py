"""src/ keeps only what a command reaches: every function, class and method
of picardkit must be referenced by name from picardkit's own source outside
its own body.  Test-only helpers and reference oracles live in tests/
(oracles.py, conftest.py)."""

import ast
from collections import Counter
from pathlib import Path

import picardkit

SRC = Path(picardkit.__file__).parent

# qualified name -> why it stays although nothing in src/ refers to it
ALLOWED = {
    "cli.run": "the process entry point: the picardkit script and python -m picardkit",
    "galmod.size_table_from_profile": "imported by perfbench/test_perfbench.py",
    "galmod.SizeTable.to_json": "called by perfbench/test_perfbench.py",
    "polysys.geometry.proper_intersection_number": "computed pairings in rank (ROADMAP item 6)",
}


def _definitions():
    """(qualified name, node) for every def and class, and each module's
    tree."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                out.append((name, child))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        trees[module] = ast.parse(path.read_text(encoding="utf-8"))
        walk(trees[module], module + ".")
    return out, trees


def _name_counts(node):
    """How often each Name and attribute name occurs in `node`."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def _strip_package_init(name):
    # polysys.__init__.x is spelled polysys.x
    return name.replace(".__init__", "")


def test_every_definition_is_referenced_from_src():
    definitions, trees = _definitions()
    total = sum((_name_counts(tree) for tree in trees.values()), Counter())
    unreferenced = []
    for qualname, node in definitions:
        name = _strip_package_init(qualname)
        if node.name.startswith("__") and node.name.endswith("__") or name in ALLOWED:
            continue
        # a use inside its own body (recursion) does not count
        if total[node.name] == _name_counts(node)[node.name]:
            unreferenced.append(name)
    assert unreferenced == [], "move test-only code to tests/ or delete it"


def test_allowed_entries_still_exist():
    definitions, _ = _definitions()
    names = {_strip_package_init(q) for q, _ in definitions}
    assert sorted(set(ALLOWED) - names) == []


def test_no_module_imports_fractions():
    # every polynomial and ideal lives over a finite field, and the Pade
    # route stays in Z: no src/ code makes a Fraction
    _, trees = _definitions()
    importing = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                importing.append(module)
    assert importing == []

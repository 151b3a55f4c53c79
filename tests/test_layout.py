"""src/ keeps only what a command reaches: every function, class and method
of picardkit must be referenced from picardkit's own source outside its own
body.  A module-level function counts as referenced only through its own
module (a bare use there, `from module import name`, or `alias.name` with
alias bound to the module), so that a method of the same name elsewhere
does not keep it; classes, methods and nested functions are matched by name.
Test-only helpers and reference oracles live in tests/ (oracles.py,
conftest.py)."""

import ast
from collections import Counter
from pathlib import Path

import picardkit

SRC = Path(picardkit.__file__).parent

# qualified name -> why it stays although nothing in src/ refers to it
ALLOWED = {
    "cli.run": "the process entry point: the picardkit script and python -m picardkit",
    "counting.kernel_py.count_chart": "called as mod.count_chart on backend_module()",
    "galmod.size_table_from_profile": "imported by perfbench/test_perfbench.py",
    "galmod.SizeTable.to_json": "called by perfbench/test_perfbench.py",
    "polysys.geometry.proper_intersection_number": "computed pairings in rank (ROADMAP item 6)",
}


def _definitions():
    """(qualified name, node) for every def and class, and each module's
    tree, keyed by its dotted name below picardkit (packages as
    `pkg.__init__`)."""
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


def _module_name(module):
    """The dotted name that imports use: `pkg.__init__` is `pkg`, and the
    top-level `__init__` is the empty name."""
    return "" if module == "__init__" else _strip_package_init(module)


def _imports(module, tree, modules):
    """What the module's imports bind, anywhere in it: ({alias: module
    imported as a whole}, [(source module, imported name)])."""
    package = module.rpartition(".")[0]
    bound, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name.removeprefix("picardkit.")
                if alias.asname and target in modules:
                    bound[alias.asname] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package
                for _ in range(node.level - 1):
                    base = base.rpartition(".")[0]
                source = ".".join(filter(None, [base, node.module]))
            elif (node.module or "").startswith("picardkit"):
                source = node.module.removeprefix("picardkit").lstrip(".")
            else:
                continue
            for alias in node.names:
                target = ".".join(filter(None, [source, alias.name]))
                if target in modules:
                    bound[alias.asname or alias.name] = target
                else:
                    names.append((source, alias.name))
    return bound, names


def _module_function_referenced(module, node, trees, imports):
    """Whether the module-level function `node` of `module` is used in
    its own module outside its body, imported by name from the module or
    from a package that re-exports it, or read as alias.name through an
    alias bound to the module."""
    def bare_uses(tree):
        return sum(isinstance(sub, ast.Name) and sub.id == node.name for sub in ast.walk(tree))

    home = _module_name(module)
    if bare_uses(trees[module]) > bare_uses(node):
        return True
    sources = {home} | {
        _module_name(other)
        for other, (_, names) in imports.items()
        if other.endswith("__init__") and (home, node.name) in names
    }
    for other, tree in trees.items():
        bound, names = imports[other]
        if any((source, node.name) in names for source in sources):
            return True
        aliases = {alias for alias, target in bound.items() if target == home}
        if any(
            isinstance(sub, ast.Attribute) and sub.attr == node.name
            and isinstance(sub.value, ast.Name) and sub.value.id in aliases
            for sub in ast.walk(tree)
        ):
            return True
    return False


def test_every_definition_is_referenced_from_src():
    definitions, trees = _definitions()
    modules = {_module_name(module) for module in trees}
    imports = {module: _imports(module, tree, modules) for module, tree in trees.items()}
    module_functions = {
        (module, id(child))
        for module, tree in trees.items()
        for child in tree.body
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    total = sum((_name_counts(tree) for tree in trees.values()), Counter())
    unreferenced = []
    for qualname, node in definitions:
        name = _strip_package_init(qualname)
        if node.name.startswith("__") and node.name.endswith("__") or name in ALLOWED:
            continue
        module = qualname[: -len(node.name) - 1]
        if (module, id(node)) in module_functions:
            referenced = _module_function_referenced(module, node, trees, imports)
        else:
            # a use inside its own body (recursion) does not count
            referenced = total[node.name] != _name_counts(node)[node.name]
        if not referenced:
            unreferenced.append(name)
    assert unreferenced == [], "move test-only code to tests/ or delete it"


def test_allowed_entries_still_exist():
    definitions, _ = _definitions()
    names = {_strip_package_init(q) for q, _ in definitions}
    assert sorted(set(ALLOWED) - names) == []


def test_no_module_imports_fractions():
    # every polynomial and ideal lives over a finite field, and the Pade
    # route stays in Z: no src/ code makes a Fraction or reads one's parts
    _, trees = _definitions()
    importing, reading = [], []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
                reading.append(f"{module}:{node.lineno}")
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                importing.append(module)
    assert importing == []
    assert reading == []

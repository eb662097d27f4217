"""Every imported name in the package, its tests and the benchmark is
used, and the package holds no dead private definition or stale
``__all__`` entry."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            # names listed in __all__ are re-exports
            used.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "normcl").rglob("*.py")) + \
        sorted((ROOT / "tests").rglob("*.py")) + \
        sorted((ROOT / "perfbench").glob("*.py"))
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []


def _package_trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in sorted((ROOT / "src" / "normcl").glob("*.py"))]


def _referenced(node) -> set[str]:
    """Every name ``node`` reads, as a bare name or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_private_definition_is_referenced():
    """A module-level private function or class is referenced, by name,
    somewhere in the package outside its own definition."""
    statements = [(path, stmt) for path, tree in _package_trees()
                  for stmt in tree.body]
    refs = {id(stmt): _referenced(stmt) for _, stmt in statements}
    total = Counter(name for names in refs.values() for name in names)
    dead = [f"{path.relative_to(ROOT)}:{stmt.lineno}: {stmt.name}"
            for path, stmt in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.endswith("__")
            and total[stmt.name] == (stmt.name in refs[id(stmt)])]
    assert dead == []


def _bindings(tree) -> set[str]:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def test_every_all_entry_is_bound():
    """Each name in a package module's ``__all__`` is bound at its top level."""
    unbound = []
    for path, tree in _package_trees():
        bound = _bindings(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets):
                unbound += [f"{path.relative_to(ROOT)}: {e.value}"
                            for e in stmt.value.elts if e.value not in bound]
    assert unbound == []

"""Every imported name in the package, its tests and the benchmark is
used, and the package holds no dead private definition, no public one
that only tests use, no stale ``__all__`` entry, and no file write that
bypasses ``atomic_write``."""

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


# public definitions that only tests use, each kept for its reason
TEST_ONLY = {
    "zipfian_corpus": "test data: a Zipfian corpus for the norm trend tests",
    "MergeTable.apply": "the tests' reference segmentation of a sentence",
    "grad_check": "the finite-difference oracle of test_04's release gate",
    "tensor_slice": "a kernel test_04's release gate checks by gradient",
}


def _name_uses(node) -> Counter:
    """How often ``node`` reads each name, bare or as an attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _public_definitions(tree):
    """``(qualified name, node)`` of each public module-level function or
    class and each public method."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                and not stmt.name.startswith("_"):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{stmt.name}.{sub.name}", sub


def test_every_public_definition_is_used_outside_tests():
    """A public function, class or method is referenced, by name, in the
    package or the benchmark outside its own definition, unless
    ``TEST_ONLY`` names it with a reason."""
    package = _package_trees()
    bench = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted((ROOT / "perfbench").glob("*.py"))
             if not path.name.startswith("test_")]
    total = sum((_name_uses(tree) for tree in [t for _, t in package] + bench),
                Counter())
    public = [(path, qualname, node) for path, tree in package
              for qualname, node in _public_definitions(tree)]
    unused = [f"{path.relative_to(ROOT)}:{node.lineno}: {qualname}"
              for path, qualname, node in public
              if qualname not in TEST_ONLY
              and total[node.name] == _name_uses(node)[node.name]]
    assert unused == []
    assert set(TEST_ONLY) <= {qualname for _, qualname, _ in public}


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


# the functions that may open a file for writing: the one writer, which
# replaces a file whole
WRITERS = {"atomic_write"}


def _writes_a_file(call: ast.Call) -> bool:
    """``call`` is ``write_text``, ``write_bytes``, or an ``open`` (the
    builtin or a ``Path`` method) whose mode is not a literal read mode."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        at = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        at = 0
    else:
        return False
    mode = call.args[at] if len(call.args) > at else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) <= set("rbt"))


def _file_writes(node, function: str = "<module>"):
    """``(line, enclosing function)`` of each call under ``node`` that
    writes a file."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield from _file_writes(child, child.name)
            continue
        if isinstance(child, ast.Call) and _writes_a_file(child):
            yield child.lineno, function
        yield from _file_writes(child, function)


def test_files_are_written_only_through_atomic_write():
    """Every artifact is replaced whole, or left as it was, by
    ``atomic_write``; no other function of the package opens a file for
    writing."""
    stray = [f"{path.relative_to(ROOT)}:{line}: in {function}"
             for path, tree in _package_trees()
             for line, function in _file_writes(tree)
             if function not in WRITERS]
    assert stray == []
    found = {function for _, tree in _package_trees()
             for _, function in _file_writes(tree)}
    assert found == WRITERS

"""Every imported name in the package, its tests and the benchmark is used."""

import ast
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

"""Every module-level import of the runtime is used where it is imported."""

import ast
from pathlib import Path

import logconformal

PACKAGE = Path(logconformal.__file__).resolve().parent


def _exported(tree) -> set[str]:
    """The names a literal ``__all__`` lists, if the module has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def test_module_level_imports_are_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        unused += [(path.relative_to(PACKAGE).as_posix(), name)
                   for name in bound if name not in used]
    assert unused == []

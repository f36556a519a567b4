"""Every module-level import of the runtime is used where it is imported,
and every top-level definition is used somewhere in the runtime."""

import ast
from pathlib import Path

import logconformal
from logconformal.parsers import PARSER_NAMES

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


def _defined(node) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_top_level_definitions_are_used():
    """Each top-level function, class and assignment is referenced by another
    top-level statement of the runtime, is public (``logconformal._EXPORTS``
    or a module ``__all__``), or is a miner entry point ``fit_<parser>``.
    Dunder names serve the interpreter and are exempt. Helpers that only
    tests use belong in the tests."""
    statements, public = [], set(logconformal._EXPORTS)
    public |= {f"fit_{name}" for name in PARSER_NAMES}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public |= _exported(tree)
        for node in tree.body:
            refs = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            refs |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((path.relative_to(PACKAGE).as_posix(), node, refs))
    unused = [(module, name) for module, node, _ in statements for name in _defined(node)
              if not (name.startswith("__") and name.endswith("__")) and name not in public
              and not any(name in refs for _, other, refs in statements if other is not node)]
    assert unused == []

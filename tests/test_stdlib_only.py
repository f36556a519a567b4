"""The runtime imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

import logconformal

PACKAGE = Path(logconformal.__file__).resolve().parent


def test_runtime_imports_are_stdlib_only():
    foreign = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "logconformal"]
    assert foreign == []

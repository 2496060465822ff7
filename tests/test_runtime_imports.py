"""The package runs on the standard library alone."""
import ast
import sys
from pathlib import Path

import wefhouse


def test_every_absolute_import_is_stdlib():
    outside = []
    for path in sorted(Path(wefhouse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []

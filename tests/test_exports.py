import ast
import importlib
import pkgutil
from pathlib import Path

import anomdet


def test_reexports_are_public_and_all_entries_exist():
    for info in pkgutil.iter_modules(anomdet.__path__):
        module = importlib.import_module(f"anomdet.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
    tree = ast.parse(Path(anomdet.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"anomdet.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{alias.name} is not in {module.__name__}.__all__"

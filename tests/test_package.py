"""The package's public surface: every export resolves and is declared."""

import ast
import importlib
import pathlib
import pkgutil

import fletcher_penalty

MODULES = sorted(m.name for m in pkgutil.iter_modules(fletcher_penalty.__path__))


def test_every_module_all_name_resolves():
    for name in MODULES:
        module = importlib.import_module("fletcher_penalty." + name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], (name, missing)


def test_every_package_import_is_in_its_module_all():
    tree = ast.parse(pathlib.Path(fletcher_penalty.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package imports only its own modules"
        module = importlib.import_module("fletcher_penalty." + node.module)
        undeclared = [a.name for a in node.names if a.name not in module.__all__]
        assert undeclared == [], (node.module, undeclared)

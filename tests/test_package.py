"""Structure of the package: modules share only public names."""

import ast
from pathlib import Path

import mtmctrack

PACKAGE = Path(mtmctrack.__file__).parent


def test_no_private_imports_between_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_every_exported_name_resolves():
    assert [name for name in mtmctrack.__all__ if not hasattr(mtmctrack, name)] == []

"""Unused-import check over the package and the scripts, with the standard
library's ast: an imported name the module never reads fails.  The package
__init__ imports names to re-export them, so it is exempt."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/eqdesign/*.py"), *ROOT.glob("scripts/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "effects.py", "families.py", "poly.py",
                                         "screening.py", "screen_experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import os\nfrom typing import Optional, Sequence\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == [(2, "Sequence")]

"""Import and constant checks over the package and the scripts, with the
standard library's ast: an imported name the module never reads fails, and so
does a package module importing a sibling's underscore (private) name, and a
package module's UPPER_CASE constant that no package module or script reads.
The package __init__ imports the submodules so that `import eqdesign` loads
them, and reads none of them, so it is exempt from the first; it may bind
nothing else but __version__."""
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


def private_imports(source: str) -> list:
    """(line, name) of each underscore name imported from the package."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("eqdesign"))
                  for alias in node.names if alias.name.startswith("_"))


def unused_constants(source: str, readers: list) -> list:
    """(line, name) of each module-level UPPER_CASE constant in source that no
    source in readers reads, by name, as an attribute, or in an import."""
    defined = [(target.lineno, target.id) for node in ast.parse(source).body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name) and target.id.isupper()]
    read = set()
    for node in (n for text in readers for n in ast.walk(ast.parse(text))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return [(line, name) for line, name in defined if name not in read]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "effects.py", "families.py", "poly.py",
                                         "screening.py", "screen_experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def init_bindings(source: str) -> set:
    """The names a module's top level binds: imports, assignments, defs and classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        else:
            names |= {target.id for target in ast.walk(node)
                      if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)}
    return names


def test_init_binds_only_the_submodules_and_version():
    # no re-exported names: callers import them from the submodules
    assert init_bindings((ROOT / "src/eqdesign/__init__.py").read_text()) == {
        "effects", "families", "poly", "screening", "__version__"}


def test_init_bindings_are_reported():
    source = ("from . import poly\nfrom .poly import DesignPoly as D\nimport numpy.linalg\n"
              "__version__ = '1'\nX, Y = 1, 2\ndef f(): pass\nclass C: pass\n"
              "if True:\n    Z = 3\n")
    assert init_bindings(source) == {"poly", "D", "numpy", "__version__", "X", "Y", "f",
                                     "C", "Z"}


def test_unused_import_is_reported():
    source = "import os\nfrom typing import Optional, Sequence\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == [(2, "Sequence")]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/eqdesign/*.py")), ids=lambda p: p.name)
def test_no_unused_constants(path):
    readers = [p.read_text() for p in [*ROOT.glob("src/eqdesign/*.py"),
                                       *ROOT.glob("scripts/*.py")]]
    assert unused_constants(path.read_text(), readers) == []


def test_unused_constant_is_reported():
    source = ("LIMIT = 3\nSPARE: int = 4\nSHARED = 5\nBOUND = 6\n_HIDDEN = 7\n"
              "lower = 8\nx = LIMIT\n")
    readers = [source, "from m import SHARED\nimport m\ny = m.BOUND\n"]
    assert unused_constants(source, readers) == [(2, "SPARE"), (5, "_HIDDEN")]


@pytest.mark.parametrize("path", sorted(ROOT.glob("src/eqdesign/*.py")), ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path.read_text()) == []


def test_private_import_is_reported():
    source = ("from .poly import DesignPoly, _frozen\nfrom eqdesign.cli import _emit\n"
              "from os import _exit\nfrom . import effects\n")
    assert private_imports(source) == [(1, "_frozen"), (2, "_emit")]

"""The package surface: what `import isingrect` binds, loads and exports."""

import ast
import subprocess
import sys
from pathlib import Path

import isingrect

SRC = Path(isingrect.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# the validation battery, the command line and the package's own files sit
# on top of the library; every other module holds the routes
OUTSIDE = ("validate", "cli", "__init__", "__main__")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from isingrect import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(isingrect.__all__)
    assert len(isingrect.__all__) == len(set(isingrect.__all__))


def test_readme_quick_start_names_are_public():
    text = README.read_text()
    start = text.index("```python", text.index("## Library quick start"))
    block = text[start + len("```python"):text.index("```", start + 3)]
    names = {alias.name for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "isingrect"
             for alias in node.names}
    assert names and names <= set(isingrect.__all__)


def test_import_leaves_validate_cli_and_multiprocessing_unloaded():
    code = ("import sys, isingrect\n"
            "print(sorted(m for m in ('isingrect.validate', 'isingrect.cli', 'multiprocessing')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _bound(node):
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _used(node):
    """Names a statement reads, as bare names or as attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def validation_only_names():
    """Top-level names of the route modules that no export reaches, directly
    or through other top-level names; only validate, cli or tests can use
    them."""
    live, defs = set(isingrect.__all__), {}
    for path in SRC.glob("*.py"):
        if path.stem in OUTSIDE:
            continue
        for node in ast.parse(path.read_text()).body:
            if _bound(node):
                defs[path.stem, node] = _bound(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                live |= _used(node)
    grown = True
    while grown:
        grown = False
        for (_, node), names in defs.items():
            if names & live and not _used(node) <= live:
                live |= _used(node)
                grown = True
    return sorted(f"{stem}.{name}" for (stem, _), names in defs.items()
                  for name in names - live)


def test_route_modules_hold_no_validation_only_code():
    assert validation_only_names() == []

"""numpy is the package's only runtime dependency."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "probadapt"


def imported_roots(tree):
    """The top-level name of each absolute import in ``tree``; a relative
    import yields None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.partition(".")[0]


def test_every_import_is_relative_numpy_or_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, PACKAGE
    allowed = sys.stdlib_module_names | {"numpy", None}
    for path in modules:
        roots = set(imported_roots(ast.parse(path.read_text(encoding="utf-8"))))
        assert roots <= allowed, f"{path.name} imports {sorted(roots - allowed)}"

"""The references in reference.py stay independent of the code they check."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent / "reference.py"
# the only rqcx names a reference may import: plain data types
DATA_TYPES = {"XStateParams", "BlochX", "LocalMeasurement"}


def _rqcx_imports(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, name) of every import from rqcx; a plain `import rqcx...` gives (module, "*")."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, "*") for alias in node.names if alias.name.split(".")[0] == "rqcx"]
        elif isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "rqcx"):
            found += [(node.module or ".", alias.name) for alias in node.names]
    return found


def test_references_import_only_rqcx_data_types():
    imports = _rqcx_imports(ast.parse(SOURCE.read_text()))
    assert {name for _, name in imports} <= DATA_TYPES, imports
    assert imports, "reference.py imports no rqcx data type; is this the right file?"


def test_the_check_catches_a_reused_function():
    for code in ("from rqcx.states import xstate_matrix", "import rqcx.noise", "from rqcx import oracle",
                 "def f():\n    from rqcx.measures import measure_set"):
        assert not {name for _, name in _rqcx_imports(ast.parse(code))} <= DATA_TYPES, code

"""The public names of the rqcx package, pinned so that any API change is a deliberate edit here."""

import ast
import importlib
import pathlib
import pkgutil
import types

import rqcx

PUBLIC = [
    "BlochX", "ComplementarySetting", "EventRecord", "FamilySpec", "InvalidStateError", "LocalMeasurement", "Markov",
    "MeasureSet", "Moun", "NoiseModel", "OptimizationResult", "OracleSet", "Rtn", "SweepSpec", "Trajectory",
    "ValidationReport", "XStateParams", "bloch_params", "check_xstate", "crossover_z", "detect_events",
    "fano_coefficients", "lambda_of_t", "lambda_zeros", "make_state", "matrix_params", "measure_set", "oracle_set",
    "surface", "trajectory", "xstate_matrix", "xstate_report",
]

# names the library no longer defines: u is measures._u, the family curves are
# test references (tests/reference.py), and the Pauli matrices are private;
# check_xstate is the one validity decision and xstate_report its report, and
# what that check guarantees (no NaN or -0.0 branch, simple RTN zeros) is not
# decided again; oracle_set runs stage 1 once, so no stage-1 result is kept
# between calls
REMOVED = {"u_func", "family_laqc_closed", "family_concurrence_closed", "werner_concurrence_rtn",
           "SIGMA_0", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "PAULI",
           "validate_xstate", "validate_bloch", "_bloch_defects", "_before", "_check_sign_changes",
           "_last_leaders", "_max_leaders"}


def test_public_names_are_pinned():
    # submodules are attributes too once imported, so they are left out
    names = sorted(n for n, v in vars(rqcx).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC


def test_removed_names_are_defined_nowhere():
    modules = [importlib.import_module(f"rqcx.{m.name}") for m in pkgutil.iter_modules(rqcx.__path__)]
    assert len(modules) >= 10
    for module in [rqcx, *modules]:
        assert not REMOVED & set(vars(module)), module.__name__


def test_every_private_function_has_a_library_caller():
    # a private top-level function that only tests call is test code (tests/reference.py).  A
    # reference is a name in the function's own module outside its definition, or an attribute
    # or import of that name anywhere in rqcx; docstrings and comments are not names
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(pathlib.Path(rqcx.__file__).parent.glob("*.py"))}
    refs = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != owner:
                    refs.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.add((None, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    refs.update((None, alias.name) for alias in node.names)
    private = [(module, stmt.name) for module, tree in trees.items() for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
               and stmt.name.startswith("_") and not stmt.name.startswith("__")]
    assert len(private) >= 20
    assert [f"{m}.{name}" for m, name in private if not {(m, name), (None, name)} & refs] == []

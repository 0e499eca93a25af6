"""Reading state documents and option files used by the command line.

A state document is JSON with exactly one of the keys:

    "abcdrs"  -- array of six reals [a, b, c, d, r, s]
    "bloch"   -- object with t30, t03, t11, t22, t33
    "matrix"  -- 4x4 array of [re, im] pairs

Every kind is read as the X parameters of the state it holds, a matrix
through states.matrix_params, and none is checked here: each command checks
the parameters once, with states.check_xstate.  State documents and option
files are read by one reader, read_json_object.  A file or document that
cannot be read is a ValueError; a matrix that fails a check of matrix_params
raises InvalidStateError with that check's report.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .states import BlochX, XStateParams, bloch_params, matrix_params

_STATE_KEYS = ("abcdrs", "bloch", "matrix")


def read_json_object(path: str | Path, kind: str) -> dict:
    """The JSON object in the file at path; kind ("state", "config") names the file in the
    ValueError raised when it cannot be read or parsed, or holds no object."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {kind} file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file must hold a JSON object")
    return doc


def load_state_document(path: str | Path) -> XStateParams:
    """The X parameters of a state file, not yet checked.

    A file that cannot be read, or a document of the wrong shape, raises
    ValueError.  A matrix that is not a real-coherence X matrix raises
    InvalidStateError with the report of the failed test (finite_values,
    hermitian, x_shape or real_coherences).
    """
    doc = read_json_object(path, "state")
    present = [k for k in _STATE_KEYS if k in doc]
    if len(present) != 1:
        raise ValueError(f"state file must carry exactly one of {_STATE_KEYS}, found {present or 'none'}")
    key = present[0]
    if key == "abcdrs":
        vals = doc[key]
        if not isinstance(vals, list) or len(vals) != 6 or not _numbers(vals):
            raise ValueError("'abcdrs' must be an array of 6 reals")
        return XStateParams(*_floats(key, vals))
    if key == "bloch":
        obj, names = doc[key], ("t30", "t03", "t11", "t22", "t33")
        if not isinstance(obj, dict) or not _numbers([obj.get(k) for k in names]):
            raise ValueError(f"'bloch' must map each of {', '.join(names)} to a real")
        return bloch_params(BlochX(*_floats(key, [obj[k] for k in names])))
    arr = np.array(doc[key], dtype=object)
    if arr.shape != (4, 4, 2) or not _numbers(arr.ravel()):
        raise ValueError("'matrix' must be a 4x4 array of [re, im] pairs")
    # each [re, im] pair is one complex entry: no arithmetic, so an inf part stays where it is
    pairs = np.array(_floats(key, arr.ravel())).reshape(arr.shape)
    return matrix_params(pairs.view(complex)[..., 0])


def _numbers(vals) -> bool:
    """Whether every value is a JSON number; true and false are not."""
    return all(type(v) in (int, float) for v in vals)


def _floats(key: str, vals) -> list[float]:
    """JSON numbers as floats; an integer past the float range is an input error, not an overflow."""
    try:
        return [float(v) for v in vals]
    except OverflowError:
        raise ValueError(f"'{key}' holds an integer past the float range") from None

"""Reading state documents and option files used by the command line.

A state document is JSON with exactly one of the keys:

    "abcdrs"  -- array of six reals [a, b, c, d, r, s]
    "bloch"   -- object with t30, t03, t11, t22, t33
    "matrix"  -- 4x4 array of [re, im] pairs

Every kind is read as the X parameters of the state it holds, a matrix
through states.matrix_params, and none is checked here: each command checks
the parameters once, with states.check_xstate.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .states import BlochX, InvalidStateError, XStateParams, bloch_params, matrix_params

_STATE_KEYS = ("abcdrs", "bloch", "matrix")


def load_state_document(path: str | Path) -> XStateParams:
    """The X parameters of a state file, not yet checked.

    A document that cannot be read as X parameters raises InvalidStateError:
    with no report when the file or its JSON shape is wrong, and with the
    report of the failed test (finite_values, hermitian, x_shape or
    real_coherences) when a matrix is not a real-coherence X matrix.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidStateError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidStateError("state file must hold a JSON object")
    present = [k for k in _STATE_KEYS if k in doc]
    if len(present) != 1:
        raise InvalidStateError(
            f"state file must carry exactly one of {_STATE_KEYS}, found {present or 'none'}"
        )
    key = present[0]
    if key == "abcdrs":
        vals = doc[key]
        if not isinstance(vals, list) or len(vals) != 6 or not _numbers(vals):
            raise InvalidStateError("'abcdrs' must be an array of 6 reals")
        return XStateParams(*_floats(key, vals))
    if key == "bloch":
        obj, names = doc[key], ("t30", "t03", "t11", "t22", "t33")
        if not isinstance(obj, dict) or not _numbers([obj.get(k) for k in names]):
            raise InvalidStateError(f"'bloch' must map each of {', '.join(names)} to a real")
        return bloch_params(BlochX(*_floats(key, [obj[k] for k in names])))
    arr = np.array(doc[key], dtype=object)
    if arr.shape != (4, 4, 2) or not _numbers(arr.ravel()):
        raise InvalidStateError("'matrix' must be a 4x4 array of [re, im] pairs")
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
        raise InvalidStateError(f"'{key}' holds an integer past the float range") from None


def load_options_file(path: str | Path) -> dict:
    """Option file mirroring the command-line flags (flags win on conflict)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc

"""Command-line interface.

Subcommands: validate, measures, evolve, events, surface, oracle, crossover.
Output is CSV (default, '#'-prefixed header, 17 significant digits) or JSON,
to stdout or --out.  Exit codes: 0 success, 1 input error, 2 internal
numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import dynamics, families, measures, noise, oracle, stateio
from .states import (
    InvalidStateError,
    matrix_to_xstate,
    validate_bloch,
    validate_density_matrix,
    validate_xstate,
    xstate_to_bloch,
    xstate_to_matrix,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


_NUMBER = ("a number", (int, float))
_INTEGER = ("an integer", (int,))
_TEXT = ("a string", (str,))

# every option: its default, and the JSON type a config file must give it
# (null is accepted where the default is None)
_OPTIONS = {
    "state": (None, _TEXT),
    "param": (None, _NUMBER),
    "state_file": (None, _TEXT),
    "noise": ("rtn", _TEXT),
    "a_over_gamma": (4.0, _NUMBER),
    "Gamma_over_gamma": (1.0, _NUMBER),
    "lambda_over_gamma": (1.0, _NUMBER),
    "tmax": (3.0, _NUMBER),
    "steps": (600, _INTEGER),
    "param_grid": ("0:1:200", _TEXT),
    "time_grid": ("0:3:600", _TEXT),
    "measure_a": ("concurrence", _TEXT),
    "measure_b": ("qs", _TEXT),
    "grid": (32, _INTEGER),
    "refine": (4, _INTEGER),
    "revival_threshold": (1e-4, _NUMBER),
    "out": (None, _TEXT),
    "format": ("csv", _TEXT),
}


def _add_common(p: argparse.ArgumentParser, *groups: str) -> None:
    p.add_argument("--config", help="JSON option file mirroring flags; flags override it")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    if "state" in groups:
        p.add_argument("--state", choices=("werner", "mnms", "mems", "file"))
        p.add_argument("--param", type=float, help="family parameter in [0, 1]")
        p.add_argument("--state-file", dest="state_file", help="state document (JSON)")
    if "noise" in groups:
        p.add_argument("--noise", choices=("rtn", "moun", "markov"))
        p.add_argument("--a-over-gamma", dest="a_over_gamma", type=float)
        p.add_argument("--Gamma-over-gamma", dest="Gamma_over_gamma", type=float)
        p.add_argument("--lambda-over-gamma", dest="lambda_over_gamma", type=float)
    if "time" in groups:
        p.add_argument("--tmax", type=float)
        p.add_argument("--steps", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="rqcx", description="Correlation measures and dephasing dynamics of 2-qubit X states")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    _add_common(sub.add_parser("validate"), "state")
    _add_common(sub.add_parser("measures"), "state")
    _add_common(sub.add_parser("evolve"), "state", "noise", "time")
    p_events = sub.add_parser("events")
    _add_common(p_events, "state", "noise", "time")
    p_events.add_argument("--revival-threshold", dest="revival_threshold", type=float)
    p_surface = sub.add_parser("surface")
    _add_common(p_surface, "noise")
    p_surface.add_argument("--state", choices=("werner", "mnms", "mems"))
    p_surface.add_argument("--param-grid", dest="param_grid", help="min:max:count")
    p_surface.add_argument("--time-grid", dest="time_grid", help="min:max:count")
    p_surface.add_argument("--measure-a", dest="measure_a", choices=("concurrence", "laqc", "qs", "cs"))
    p_surface.add_argument("--measure-b", dest="measure_b", choices=("concurrence", "laqc", "qs", "cs"))
    p_oracle = sub.add_parser("oracle")
    _add_common(p_oracle, "state")
    p_oracle.add_argument("--grid", type=int)
    p_oracle.add_argument("--refine", type=int)
    _add_common(sub.add_parser("crossover"))
    return parser


def _merged(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    opts = {key: default for key, (default, _) in _OPTIONS.items()}
    if getattr(args, "config", None):
        cfg = stateio.load_options_file(args.config)
        unknown = set(cfg) - set(_OPTIONS)
        if unknown:
            raise InvalidStateError(f"unknown config keys: {sorted(unknown)}")
        for key, val in cfg.items():
            default, (name, types) = _OPTIONS[key]
            # an exact type test: a JSON true or false is not a number
            if type(val) not in types and not (val is None and default is None):
                raise InvalidStateError(f"config key {key!r} must be {name}, got {json.dumps(val)}")
        opts.update(cfg)
    for key in _OPTIONS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def _resolve_state(opts: dict):
    """Return (XStateParams or None, density matrix or None)."""
    kind = opts["state"]
    if kind in ("werner", "mnms", "mems"):
        if opts["param"] is None:
            raise InvalidStateError(f"--param is required with --state {kind}")
        spec = families.FamilySpec(kind, float(opts["param"]))
        return families.make_state(spec), None
    if kind == "file" or (kind is None and opts["state_file"]):
        if not opts["state_file"]:
            raise InvalidStateError("--state-file is required with --state file")
        doc = stateio.load_state_document(opts["state_file"])
        if isinstance(doc, np.ndarray):
            return None, doc
        return doc, None
    raise InvalidStateError("no state given: use --state werner|mnms|mems with --param, or --state file")


def _xstate_of(opts: dict):
    params, matrix = _resolve_state(opts)
    if params is None:
        params = matrix_to_xstate(matrix)
    return params


def _noise_of(opts: dict) -> noise.NoiseModel:
    return noise.noise_from_config(
        {
            "kind": opts["noise"],
            "a_over_gamma": opts["a_over_gamma"],
            "Gamma_over_gamma": opts["Gamma_over_gamma"],
            "lambda_over_gamma": opts["lambda_over_gamma"],
        }
    )


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise InvalidStateError(f"grid must look like min:max:count, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidStateError(f"grid min and max must be finite, got {text!r}")
    if count < 2 or not lo < hi:
        raise InvalidStateError(f"grid needs count >= 2 and min < max, got {text!r}")
    return np.linspace(lo, hi, count)


def _window(opts: dict) -> tuple[float, int]:
    tmax, steps = float(opts["tmax"]), opts["steps"]
    if not (math.isfinite(tmax) and tmax > 0.0):
        raise InvalidStateError(f"--tmax must be finite and > 0, got {tmax}")
    if steps < 2:
        raise InvalidStateError(f"--steps must be at least 2, got {steps}")
    return tmax, steps


def _cells(column, as_json: bool) -> list[str]:
    """One column (a float array, or a list) as text.

    A float column formats each distinct value once: np.unique runs on the
    int64 bit view, because on the floats it would merge -0.0 into 0.0, which
    print differently.  JSON floats are what json.dumps writes: float.__repr__,
    or NaN, Infinity and -Infinity.  Other cells go through str (CSV) or
    json.dumps (JSON).
    """
    if isinstance(column, list) and not all(isinstance(v, float) for v in column):
        return list(map(json.dumps if as_json else str, column))
    bits = np.ascontiguousarray(column, dtype=np.float64).ravel().view(np.int64)
    uniq, inverse = np.unique(bits, return_inverse=True)
    floats = uniq.view(np.float64)
    text = list(map(float.__repr__ if as_json else "{:.17g}".format, floats.tolist()))
    if as_json:
        for i in np.flatnonzero(~np.isfinite(floats)):
            text[i] = json.dumps(float(floats[i]))
    return np.array(text, dtype=object)[inverse.ravel()].tolist()


def _emit(columns: dict, opts: dict) -> None:
    """Write named columns of equal length as CSV or as a JSON array of rows.

    The bytes equal those of one dict per row written with f"{v:.17g}" cells
    (CSV) or json.dumps(rows, indent=2) (JSON).  Every row is filled into one
    row template by a single %-format over the cells in row-major order.
    """
    as_json = opts["format"] == "json"
    cells = [_cells(col, as_json) for col in columns.values()]
    n, k = len(cells[0]), len(cells)
    flat = [None] * (n * k)
    for j, col in enumerate(cells):
        flat[j::k] = col
    if as_json:
        keys = (json.dumps(name).replace("%", "%%") for name in columns)
        template = "  {\n" + ",\n".join(f"    {key}: %s" for key in keys) + "\n  }"
        text = "[\n" + ",\n".join([template] * n) % tuple(flat) + "\n]\n" if n else "[]\n"
    else:
        rows = "\n".join([",".join(["%s"] * k)] * n) % tuple(flat)
        text = "# " + ",".join(columns) + "\n" + (rows + "\n" if n else "")
    if opts["out"]:
        with open(opts["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(opts: dict) -> int:
    params, matrix = _resolve_state(opts)
    if params is None:
        report = validate_density_matrix(matrix)
    else:
        report = validate_xstate(params)
        if report.valid:  # a Bloch coefficient may still lie just past 1, as measure_set finds
            report = validate_bloch(xstate_to_bloch(params))
    names = [name for name, _ in report.violations]
    columns = {
        "check": ["valid", *names],
        "ok": [int(report.valid)] + [0] * len(names),
        "magnitude": [0.0] + [float(mag) for _, mag in report.violations],
    }
    _emit(columns, opts)
    return 0


def _cmd_measures(opts: dict) -> int:
    ms = measures.measure_set(_xstate_of(opts))
    _emit({name: [getattr(ms, name)] for name in ("concurrence", "laqc", "qs", "cs")}, opts)
    return 0


def _cmd_evolve(opts: dict) -> int:
    traj = dynamics.trajectory(_xstate_of(opts), _noise_of(opts), np.linspace(0.0, *_window(opts)))
    _emit(dict(zip(("t", "lambda", "concurrence", "laqc", "qs", "cs"), traj)), opts)
    return 0


def _cmd_events(opts: dict) -> int:
    params = _xstate_of(opts)
    model = _noise_of(opts)
    tmax, steps = _window(opts)
    # detect_events reads only the window end, which is exactly tmax in any
    # linspace; three rows carry it, and fewer than three still fail there
    tgrid = np.linspace(0.0, tmax, min(steps, 3))
    events = dynamics.detect_events(params, model, tgrid, float(opts["revival_threshold"]))
    names = ("kind", "measure", "t", "value")
    columns = {name: [getattr(e, name) for e in events] for name in names}
    _emit(columns, opts)
    return 0


def _cmd_surface(opts: dict) -> int:
    if opts["state"] not in ("werner", "mnms", "mems"):
        raise InvalidStateError("surface needs --state werner|mnms|mems")
    spec = dynamics.SweepSpec(
        family=opts["state"],
        param_grid=_parse_grid(opts["param_grid"]),
        noise=_noise_of(opts),
        time_grid=_parse_grid(opts["time_grid"]),
    )
    params, tgrid, values = dynamics.surface(spec, opts["measure_a"], opts["measure_b"])
    columns = {
        "param": np.repeat(params, tgrid.size),
        "t": np.tile(tgrid, params.size),
        "value": values.ravel(),
    }
    _emit(columns, opts)
    return 0


def _cmd_oracle(opts: dict) -> int:
    params = _xstate_of(opts)
    rho = xstate_to_matrix(params)
    ms = measures.measure_set(params)
    grid, refine = opts["grid"], opts["refine"]
    pairs = (
        ("laqc", oracle.laqc_oracle(rho, grid, refine).value, ms.laqc),
        ("qs", oracle.qs_oracle(rho, grid, refine).value, ms.qs),
        ("cs", oracle.optimize_cmi(rho, "max", grid, refine).value, ms.cs),
    )
    names, found, exact = (list(col) for col in zip(*pairs))
    columns = {
        "measure": names,
        "oracle": found,
        "closed_form": exact,
        "abs_error": [abs(o - c) for o, c in zip(found, exact)],
    }
    _emit(columns, opts)
    return 0


def _cmd_crossover(opts: dict) -> int:
    _emit({"z_star": [families.crossover_z()]}, opts)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "measures": _cmd_measures,
    "evolve": _cmd_evolve,
    "events": _cmd_events,
    "surface": _cmd_surface,
    "oracle": _cmd_oracle,
    "crossover": _cmd_crossover,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _merged(args)
        return _COMMANDS[args.command](opts)
    except (InvalidStateError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

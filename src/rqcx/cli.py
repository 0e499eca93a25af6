"""Command-line interface.

Subcommands: validate, measures, evolve, events, surface, oracle, crossover.
Output is CSV (default, '#'-prefixed header, 17 significant digits) or JSON,
to stdout or --out.  Exit codes: 0 success, 1 input error, 2 internal
numeric failure.

Every option is one row of _OPTIONS: its default, value type, allowed values,
the subcommands that take it and its help text.  The row named a_b is the
flag --a-b and the config-file key a_b, and a config value is checked against
the same type and allowed values as the flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import NamedTuple, Sequence

import numpy as np

from . import dynamics, families, measures, noise, oracle, stateio
from .states import InvalidStateError, XStateParams, xstate_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


class _Option(NamedTuple):
    default: object
    type: type  # float, int or str
    commands: tuple[str, ...]
    choices: tuple[str, ...] | None = None
    help: str | None = None


# noise kind -> its model and the option holding its rate
_NOISE_KINDS = {
    "rtn": (noise.Rtn, "a_over_gamma"),
    "moun": (noise.Moun, "Gamma_over_gamma"),
    "markov": (noise.Markov, "lambda_over_gamma"),
}

_ALL = ("validate", "measures", "evolve", "events", "surface", "oracle", "crossover")
_STATE = ("validate", "measures", "evolve", "events", "oracle")
_NOISE = ("evolve", "events", "surface")
_TIME = ("evolve", "events")

# every option, in flag order
_OPTIONS = {
    "out": _Option(None, str, _ALL, help="write output to this path instead of stdout"),
    "format": _Option("csv", str, _ALL, ("csv", "json"), "output format (default csv)"),
    "state": _Option(None, str, _STATE + ("surface",), families.FAMILY_KINDS + ("file",)),
    "param": _Option(None, float, _STATE, help="family parameter in [0, 1]"),
    "state_file": _Option(None, str, _STATE, help="state document (JSON)"),
    "noise": _Option("rtn", str, _NOISE, tuple(_NOISE_KINDS)),
    "a_over_gamma": _Option(4.0, float, _NOISE),
    "Gamma_over_gamma": _Option(1.0, float, _NOISE),
    "lambda_over_gamma": _Option(1.0, float, _NOISE),
    "tmax": _Option(3.0, float, _TIME),
    "steps": _Option(600, int, _TIME),
    "revival_threshold": _Option(dynamics.THRESHOLD, float, ("events",)),
    "param_grid": _Option("0:1:200", str, ("surface",), help="min:max:count"),
    "time_grid": _Option("0:3:600", str, ("surface",), help="min:max:count"),
    "measure_a": _Option("concurrence", str, ("surface",), measures.MEASURES),
    "measure_b": _Option("qs", str, ("surface",), measures.MEASURES),
    "grid": _Option(oracle.GRID, int, ("oracle",)),
    "refine": _Option(oracle.REFINE, int, ("oracle",)),
}

# the JSON type a config value needs for each flag type; null is accepted
# where the default is None
_JSON_TYPES = {float: ("a number", (int, float)), int: ("an integer", (int,)), str: ("a string", (str,))}


def build_parser() -> _Parser:
    parser = _Parser(prog="rqcx", description="Correlation measures and dephasing dynamics of 2-qubit X states")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command in _ALL:
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON option file mirroring flags; flags override it")
        for key, opt in _OPTIONS.items():
            if command in opt.commands:
                p.add_argument("--" + key.replace("_", "-"), type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def _merged(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    opts = {key: opt.default for key, opt in _OPTIONS.items()}
    if args.config:
        cfg = stateio.load_options_file(args.config)
        unknown = set(cfg) - set(_OPTIONS)
        if unknown:
            raise InvalidStateError(f"unknown config keys: {sorted(unknown)}")
        for key, val in cfg.items():
            opt = _OPTIONS[key]
            name, types = _JSON_TYPES[opt.type]
            # an exact type test: a JSON true or false is not a number
            if type(val) not in types and not (val is None and opt.default is None):
                raise InvalidStateError(f"config key {key!r} must be {name}, got {json.dumps(val)}")
            if opt.choices and val is not None and val not in opt.choices:
                allowed = ", ".join(opt.choices)
                raise InvalidStateError(f"config key {key!r} must be one of {allowed}, got {json.dumps(val)}")
            try:
                opts[key] = val if val is None else opt.type(val)
            except OverflowError:  # an integer past the float range
                raise InvalidStateError(f"config key {key!r} is out of range") from None
    for key in _OPTIONS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def _xstate_of(opts: dict) -> XStateParams:
    """The state's X parameters, not yet checked: each command checks them
    once, with check_xstate, as measure_set does."""
    kind = opts["state"]
    if kind in families.FAMILY_KINDS:
        if opts["param"] is None:
            raise InvalidStateError(f"--param is required with --state {kind}")
        spec = families.FamilySpec(kind, opts["param"])
        return families.make_state(spec)
    if kind == "file" or (kind is None and opts["state_file"]):
        if not opts["state_file"]:
            raise InvalidStateError("--state-file is required with --state file")
        return stateio.load_state_document(opts["state_file"])
    raise InvalidStateError("no state given: use --state werner|mnms|mems with --param, or --state file")


def _noise_of(opts: dict) -> noise.NoiseModel:
    model, rate = _NOISE_KINDS[opts["noise"]]
    return model(opts[rate])


# --steps, a grid count and a surface's cells are capped at noise.COUNT_MAX, the cap Rtn._starts
# puts on one ladder, before any array is made.
_AT_MOST = f"at most {noise.COUNT_MAX} (2**27, 1 GiB of float64)"


def _parse_grid(text: str, flag: str) -> tuple[float, float, int]:
    """The min, max and count of a min:max:count grid, the count at most noise.COUNT_MAX; negative
    counts read as 0, which dynamics.SweepSpec refuses with the grid's shape."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise InvalidStateError(f"grid must look like min:max:count, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidStateError(f"grid min and max must be finite, got {text!r}")
    if count > noise.COUNT_MAX:
        raise InvalidStateError(f"{flag} count must be {_AT_MOST}, got {count}")
    return lo, hi, max(count, 0)


def _window(opts: dict) -> tuple[float, int]:
    tmax, steps = opts["tmax"], opts["steps"]
    if not (math.isfinite(tmax) and tmax > 0.0):
        raise InvalidStateError(f"--tmax must be finite and > 0, got {tmax}")
    if steps < 2:
        raise InvalidStateError(f"--steps must be at least 2, got {steps}")
    if steps > noise.COUNT_MAX:
        raise InvalidStateError(f"--steps must be {_AT_MOST}, got {steps}")
    return tmax, steps


def _float_cells(floats: np.ndarray, as_json: bool) -> tuple[str, list]:
    """A float array's row-template field and cells; field % cell is a cell's text.

    "%.17g" in CSV.  "%s" in JSON, which prints float.__repr__, with the
    non-finite cells already NaN, Infinity or -Infinity, as json.dumps writes.
    """
    cells = floats.tolist()
    if as_json:
        for i in np.flatnonzero(~np.isfinite(floats)):
            cells[i] = json.dumps(cells[i])
    return "%s" if as_json else "%.17g", cells


def _cells(column, as_json: bool) -> tuple[str, list]:
    """One column as its row-template field and cells, in row order: floats as
    _float_cells gives them, others as str (CSV) or json.dumps (JSON) in "%s"."""
    if isinstance(column, list) and not all(isinstance(v, float) for v in column):
        return "%s", list(map(json.dumps if as_json else str, column))
    return _float_cells(np.ascontiguousarray(column, dtype=np.float64).ravel(), as_json)


def _layout(names, fields: Sequence[str], as_json: bool) -> tuple[str, str, str, str]:
    """(top, row template, row separator, bottom) of an output with at least one row."""
    if as_json:
        keys = (json.dumps(name).replace("%", "%%") for name in names)
        row = "  {\n" + ",\n".join(f"    {key}: {field}" for key, field in zip(keys, fields)) + "\n  }"
        return "[\n", row, ",\n", "\n]\n"
    return "# " + ",".join(names) + "\n", ",".join(fields), "\n", "\n"


def _write(pieces: Sequence[str], opts: dict) -> None:
    """Write output text, already built in full, to --out or stdout."""
    if opts["out"]:
        try:
            with open(opts["out"], "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InvalidStateError(f"cannot write {opts['out']}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed pipe then fails here, inside main


def _emit(columns: dict, opts: dict) -> None:
    """Write named columns of equal length as CSV or as a JSON array of rows.

    The bytes equal those of one dict per row written with f"{v:.17g}" cells
    (CSV) or json.dumps(rows, indent=2) (JSON).  Every row is filled into one
    row template, whose fields _cells chooses per column, by a single
    %-format over the cells in row-major order.
    """
    as_json = opts["format"] == "json"
    fields, cells = zip(*(_cells(col, as_json) for col in columns.values()))
    n, k = len(cells[0]), len(cells)
    flat = [None] * (n * k)
    for j, col in enumerate(cells):
        flat[j::k] = col
    top, row, sep, bottom = _layout(columns, fields, as_json)
    _write([top, sep.join([row] * n) % tuple(flat), bottom] if n else ["[]\n" if as_json else top], opts)


def _emit_surface(params: np.ndarray, tgrid: np.ndarray, values: np.ndarray, opts: dict) -> None:
    """Write a (P, T) value table, P and T >= 1, as _emit writes its expanded
    param, t and value columns.  Each param and t is formatted once, and each
    param's T rows are one %-format of its values into a template that holds
    the param and t texts.  Every block is built before a byte is written."""
    as_json = opts["format"] == "json"
    field = _float_cells(values[:0], as_json)[0]
    ptext, ttext = ([field % c for c in _float_cells(axis, as_json)[1]] for axis in (params, tgrid))
    top, row, sep, bottom = _layout(("param", "t", "value"), ("\0", "\0", field), as_json)
    lead, mid, end = row.split("\0")  # the row template around its param and t texts
    rows = [mid + t + end for t in ttext]
    pieces = []
    for p, row_values in zip(ptext, values):
        head = lead + p
        pieces += sep, (head + (sep + head).join(rows)) % tuple(_float_cells(row_values, as_json)[1])
    pieces[0] = top  # in place of the separator before the first block
    _write(pieces + [bottom], opts)


def _cmd_validate(opts: dict) -> int:
    """The report of the reader and the check every other command runs."""
    try:
        report = xstate_report(_xstate_of(opts))
    except InvalidStateError as exc:
        if exc.report is None:  # a missing flag or an unreadable file: there is no state to report on
            raise
        report = exc.report  # a matrix that is not a real-coherence X matrix
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
    _emit({name: [getattr(ms, name)] for name in measures.MEASURES}, opts)
    return 0


def _cmd_evolve(opts: dict) -> int:
    traj = dynamics.trajectory(_xstate_of(opts), _noise_of(opts), np.linspace(0.0, *_window(opts)))
    _emit(dict(zip(("t", "lambda", *measures.MEASURES), traj)), opts)
    return 0


def _cmd_events(opts: dict) -> int:
    params = _xstate_of(opts)
    model = _noise_of(opts)
    tmax, _ = _window(opts)  # the events depend only on the window end
    events = dynamics.detect_events(params, model, tmax, opts["revival_threshold"])
    names = ("kind", "measure", "t", "value")
    columns = {name: [getattr(e, name) for e in events] for name in names}
    _emit(columns, opts)
    return 0


def _cmd_surface(opts: dict) -> int:
    if opts["state"] not in families.FAMILY_KINDS:
        raise InvalidStateError("surface needs --state werner|mnms|mems")
    pgrid = _parse_grid(opts["param_grid"], "--param-grid")
    model = _noise_of(opts)
    tgrid = _parse_grid(opts["time_grid"], "--time-grid")
    cells = pgrid[2] * tgrid[2]
    if cells > noise.COUNT_MAX:
        got = f"{pgrid[2]} x {tgrid[2]} = {cells}"
        raise InvalidStateError(f"--param-grid x --time-grid cells must be {_AT_MOST}, got {got}")
    spec = dynamics.SweepSpec(
        family=opts["state"], param_grid=np.linspace(*pgrid), noise=model, time_grid=np.linspace(*tgrid)
    )
    _emit_surface(*dynamics.surface(spec, opts["measure_a"], opts["measure_b"]), opts)
    return 0


def _cmd_oracle(opts: dict) -> int:
    params = _xstate_of(opts)
    ms = measures.measure_set(params)  # the state's one check, which the oracle's search trusts
    res = oracle._xstate_oracle_set(params, opts["grid"], opts["refine"])
    names = ["laqc", "qs", "cs"]
    found, exact = [getattr(res, n).value for n in names], [getattr(ms, n) for n in names]
    abs_error = [abs(o - c) for o, c in zip(found, exact)]
    _emit({"measure": names, "oracle": found, "closed_form": exact, "abs_error": abs_error}, opts)
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


@functools.cache
def _shared_parser() -> _Parser:
    """The parser, built on the first call; each parse makes its own namespace."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _merged(args)
        return _COMMANDS[args.command](opts)
    # first: numpy's LinAlgError is a ValueError
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write(f"error: this {args.command} run does not fit in memory\n")
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at devnull so that the
        # interpreter's flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line surface: smooth approximant search plus Ψ/ρ/α tabulation,
Kloosterman averages, and dispersion reports, emitted as JSON or CSV.

Every flag can also be supplied through a line-based key=value config file
(--config); explicit flags win.  Outputs are deterministic byte-for-byte for
a fixed configuration.

Exit codes: 0 success, 2 empty result, 3 budget/capacity exceeded,
4 bad configuration.
"""

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .errors import BudgetExceededError, CapacityError, NonConvergenceError

# Each handler imports the modules it runs when it runs, so that a command
# loads none of the others (a `rho` job never compiles `dispersion`), and a
# name rebound in its defining module is the one the handler calls.

EXIT_OK = 0
EXIT_EMPTY = 2
EXIT_BUDGET = 3
EXIT_BAD_CONFIG = 4

COMMANDS = ("search", "psi", "rho", "alpha", "kloosterman", "dispersion")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    """Verified approximants for one convergent a/q.

    Member columns are parallel arrays: n, ‖nα‖, n^{−θ}, P⁺(n), plus the
    connection-bound and strict-power flags for each member.  ‖nα‖ comes
    from diophantine.dist_from_convergent with the bits of dist_nearest: its
    nearest integer is decided exactly, for a quadratic α from the certified
    error slots of a/q and of later convergents, for a decimal α by rational
    rounding of the stored value.  The fields, in this order, are the columns
    `search` writes.
    """

    q: int
    a: int
    X: float
    R: float
    Y: float
    n: np.ndarray
    dist: np.ndarray
    n_power: np.ndarray
    pplus: np.ndarray
    within_bound: np.ndarray
    below_power: np.ndarray


# the most convergents a search walks, whatever --qmax allows
_MAX_CONVERGENTS = 192


def _convergents_in_range(alpha, qmin: int, qmax: int):
    """The convergents with max(qmin, 2) ≤ q ≤ qmax among the first
    _MAX_CONVERGENTS; a decimal α contributes its certified prefix."""
    from .diophantine import convergents

    out = []
    try:
        for conv in islice(convergents(alpha), _MAX_CONVERGENTS):
            if conv.q > qmax:
                break
            if conv.q >= max(qmin, 2):
                out.append(conv)
    except CapacityError:
        pass  # decimal α: the precision ends the walk
    return out


# relative margin for the float rounding of ‖nα‖, n^{−θ}, the bound and the slack
_ROUNDING = 1e-12


def _certify_decimal_flags(alpha, q: int, ns, dist, refs) -> None:
    """For a DecimalAlpha: raise CapacityError unless every comparison of
    dist with each ref comes out the same for every α within the stored
    width: ‖·‖ is 1-Lipschitz, so the true ‖nα‖ lies within n·10^(−prec) of
    the emitted dist."""
    slack = ns * float(alpha.width)
    for ref in refs:
        if np.any(np.abs(dist - ref) <= slack + _ROUNDING * (slack + dist + ref)):
            raise CapacityError(f"decimal precision 1e-{alpha.prec} cannot certify the flags at q = {q}")


# the most members whose ‖nα‖ is evaluated at once: bounds the kernel's temporaries
_DIST_CHUNK = 1 << 14


def search_results(alpha, theta, qmin: int, qmax: int, C: float = 10.0, Y: float = None, budget: int = 10**9):
    """Yield one SearchResult per continued-fraction convergent a/q with
    q in [qmin, qmax]: derive scales, build the target set, and compute
    every member's ‖nα‖ by dist_from_convergent, _DIST_CHUNK members at a
    time.  For a QuadIrr the nearest integer to nα is certified per member
    from a/q and its exact error slot, or from a later convergent's, and the
    residual is wrap-exact in int64, or exact in Python ints past that.  Every
    convergent is checked against capacity and budget before the first
    target set is built.  For a decimal α, a flag its precision cannot decide
    raises CapacityError."""
    from fractions import Fraction

    from .diophantine import (DecimalAlpha, build_target_set, check_target_set, connection_bound, derive_params,
                              dist_from_convergent)

    theta = Fraction(theta)
    tf = float(theta)
    convs = _convergents_in_range(alpha, qmin, qmax)
    scales = [derive_params(conv.q, theta, C, Y) for conv in convs]
    for params in scales:
        check_target_set(params, budget)
    for conv, params in zip(convs, scales):
        ns, pplus = build_target_set(params, conv.a)
        if len(ns) > budget:
            raise BudgetExceededError(f"{len(ns)} members at q = {conv.q} exceed budget")
        dist = np.empty(len(ns))
        for lo in range(0, len(ns), _DIST_CHUNK):
            dist[lo:lo + _DIST_CHUNK] = dist_from_convergent(ns[lo:lo + _DIST_CHUNK], alpha, conv)
        n_power = ns.astype(np.float64) ** (-tf)
        bound = connection_bound(params)
        if isinstance(alpha, DecimalAlpha):
            _certify_decimal_flags(alpha, conv.q, ns, dist, (bound, n_power))
        yield SearchResult(conv.q, conv.a, params.X, params.R, params.Y, ns, dist, n_power, pplus,
                           dist <= bound, dist < n_power)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str
    alpha: str = None
    theta: str = None
    C: float = 10.0
    qmin: int = 2
    qmax: int = None
    Y: str = None
    eta: float = 0.05
    delta: float = 0.1
    budget: int = 10**9
    out: str = None
    format: str = "json"
    x: str = None
    y: str = None
    u: str = None
    M: str = None
    N: float = None
    q: int = None
    a: int = None
    R: float = None
    tol: float = 1e-9
    report: str = "all"


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _FLAGS:
                raise ValueError(f"unknown config key {key!r}")
            out[key] = val.strip()
    return out


def _finite_float(text) -> float:
    """float(text), refusing nan, ±inf and values that overflow to inf."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{text!r} is not a finite number")
    return v


def _exact_int(text) -> int:
    """int(text), or the integer that a decimal literal such as 1e8 or 2.5e3
    is exactly; refuses one that is not an integer, and one of 4300 digits
    or more, as int refuses a literal that long."""
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal, InvalidOperation  # here, so that a plain integer never imports them
    try:
        value = Decimal(text)
        exact = value.is_finite() and value.adjusted() < 4300 and value == value.to_integral_value()
    except InvalidOperation:  # not a decimal literal
        exact = False
    if not exact:
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _float_list(text: str):
    return [_finite_float(t) for t in text.split(",") if t.strip() != ""]


def _parse_Y(text):
    if text is None:
        return None
    if str(text).lower() in ("inf", "infinity"):
        return float("inf")
    return _finite_float(text)


# every RunConfig field but `command` is a flag and a config-file key, cast by its annotation
_FLAGS = {f.name: {float: _finite_float, int: _exact_int}.get(f.type, str) for f in fields(RunConfig)
          if f.name != "command"}


def _check_writable(path: str) -> None:
    """Refuse an --out path that cannot be opened for writing, before any
    compute and without creating or truncating the file."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")
    if os.path.exists(path):
        writable = os.access(path, os.W_OK)
    else:
        parent = os.path.dirname(path) or "."
        writable = os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)
    if not writable:
        raise ValueError(f"cannot write --out {path!r}")


def build_config(argv) -> RunConfig:
    ap = argparse.ArgumentParser(prog="smoothdio", description=__doc__)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", default=None)
    for name in _FLAGS:
        ap.add_argument(f"--{name}", default=None)
    ns = ap.parse_args(argv)

    merged = {}
    if ns.config:
        merged.update(_read_config_file(ns.config))
    for name in _FLAGS:
        val = getattr(ns, name)
        if val is not None:
            merged[name] = val

    cfg = RunConfig(command=ns.command)
    for key, val in merged.items():
        try:
            setattr(cfg, key, _FLAGS[key](val))
        except ValueError as exc:
            raise ValueError(f"--{key}: {exc}") from None
    if cfg.format not in ("json", "csv"):
        raise ValueError(f"bad format {cfg.format!r}")
    if cfg.budget <= 0:
        raise ValueError("budget must be positive")
    if cfg.out:
        _check_writable(cfg.out)
    return cfg


# ---------------------------------------------------------------------------
# command handlers: each finishes its compute, then returns (columns, tables);
# a table maps each column to a list or array with one value per row, or to
# one value repeated on every row
# ---------------------------------------------------------------------------


def _run_search(cfg: RunConfig):
    if cfg.alpha is None or cfg.theta is None or cfg.qmax is None:
        raise ValueError("search needs --alpha, --theta, --qmax")
    from fractions import Fraction

    from .diophantine import THETA_MAX, parse_alpha

    alpha = parse_alpha(cfg.alpha)
    theta = Fraction(cfg.theta)
    if not (0 < theta < THETA_MAX):
        raise ValueError(f"theta must lie in (0, {THETA_MAX})")
    # every convergent is computed before the first byte is written, so a
    # budget or capacity error leaves no partial output
    results = list(search_results(alpha, theta, cfg.qmin, cfg.qmax, cfg.C, _parse_Y(cfg.Y), cfg.budget))
    return [f.name for f in fields(SearchResult)], map(vars, results)


def _xy_grid(cfg: RunConfig):
    """The --x by --y grid, x-major, as two parallel lists."""
    if cfg.x is None or cfg.y is None:
        raise ValueError(f"{cfg.command} needs --x and --y (comma lists)")
    xs, ys = _float_list(cfg.x), _float_list(cfg.y)
    return [x for x in xs for _ in ys], ys * len(xs)


def _run_psi(cfg: RunConfig):
    from .smooth import psi

    xs, ys = _xy_grid(cfg)
    counts = [psi(x, y, cfg.budget) for x, y in zip(xs, ys)]  # every cell before the first byte
    return ["x", "y", "psi"], [{"x": xs, "y": ys, "psi": counts}]


def _run_rho(cfg: RunConfig):
    if cfg.u is None:
        raise ValueError("rho needs --u (comma list)")
    from .smooth import dickman_rho

    us = _float_list(cfg.u)
    rhos = [dickman_rho(u, cfg.tol) for u in us]
    return ["u", "rho", "tol"], [{"u": us, "rho": rhos, "tol": cfg.tol}]


def _run_alpha(cfg: RunConfig):
    from .smooth import saddle_alpha

    xs, ys = _xy_grid(cfg)
    roots = list(map(saddle_alpha, xs, ys))
    return ["x", "y", "alpha", "residual"], [{"x": xs, "y": ys, "alpha": [alpha for alpha, _ in roots],
                                              "residual": [residual for _, residual in roots]}]


def _run_kloosterman(cfg: RunConfig):
    if cfg.M is None or cfg.x is None or cfg.a is None or cfg.q is None or cfg.y is None:
        raise ValueError("kloosterman needs --M, --x, --a, --q, --y")
    from .expsums import _kl_cell, kl_smooth_average, kloos_bound_rhs, optimal_z

    cols = ["M", "x", "a", "q", "y", "value", "z", "bound_rhs", "ratio"]
    ys = _float_list(cfg.y)
    if len(ys) != 1:
        raise ValueError("kloosterman takes a single --y")
    y = ys[0]
    M_list, x_list = _float_list(cfg.M), _float_list(cfg.x)
    Ms, xs = [M for M in M_list for _ in x_list], x_list * len(M_list)
    zs = [optimal_z(x, y) for x in xs]  # every cell's z and bound arguments are checked before any sum runs
    rhss = [kloos_bound_rhs(M, x, cfg.a, y, z, cfg.eta) for M, x, z in zip(Ms, xs, zs)]
    members = {}  # each distinct x is sieved once, and every cell's moduli and m×n pairs are checked before any sum
    for M, x in zip(Ms, xs):
        members[x] = _kl_cell(M, x, cfg.q, y, cfg.budget, members.get(x))[2]
    values = [kl_smooth_average(M, x, cfg.a, cfg.q, y, cfg.budget, members[x]) for M, x in zip(Ms, xs)]
    ratios = [value / rhs if rhs else None for value, rhs in zip(values, rhss)]
    return cols, [{"M": Ms, "x": xs, "a": cfg.a, "q": cfg.q, "y": y, "value": values, "z": zs, "bound_rhs": rhss,
                   "ratio": ratios}]


def _run_dispersion(cfg: RunConfig):
    if cfg.q is None or cfg.a is None:
        raise ValueError("dispersion needs --q and --a")
    from fractions import Fraction

    from .dispersion import (DispersionParams, bilinear_B, check_pairs, sigma_qR, sigma_window, sums_report,
                             type1_report, type2_report)

    cols = ["kind", "value", "main_term", "ratio", "truncation_error", "runtime_ms", "params"]
    theta = Fraction(cfg.theta) if cfg.theta else None
    Y = _parse_Y(cfg.Y)
    # kind → (params, budget) → SumReport
    reporters = {"type1": type1_report, "type2": type2_report, "sums": sums_report, "bilinear": bilinear_B,
                 "sigma": lambda _, budget: sigma_qR(cfg.q, cfg.a, theta, cfg.C, Y, budget)}
    kinds = tuple(reporters) if cfg.report == "all" else (cfg.report,)
    # every kind is checked before the first sum runs
    if cfg.report != "all" and cfg.report not in reporters:
        raise ValueError(f"unknown report kind {cfg.report!r}")
    if "sigma" in kinds and theta is None:
        raise ValueError("sigma needs --theta")
    params = None
    if kinds != ("sigma",):
        if cfg.M is None or cfg.N is None or cfg.R is None or cfg.Y is None:
            raise ValueError("type1/type2/sums need --M, --N, --R, --Y")
        Ms = _float_list(cfg.M)
        if len(Ms) != 1:
            raise ValueError("dispersion takes a single --M")
        params = DispersionParams(Ms[0], cfg.N, cfg.q, cfg.a, cfg.R, Y, theta, cfg.delta, cfg.eta)
    for kind in kinds:  # each kind's budget charge too: its m×n pairs, or sigma's class layout
        if kind == "sigma":
            sigma_window(cfg.q, cfg.a, theta, cfg.C, Y, cfg.budget)
        else:
            check_pairs(kind, params, cfg.budget)
    reports = [reporters[kind](params, cfg.budget) for kind in kinds]
    columns = {c: [getattr(rep, c) for rep in reports] for c in ("value", "main_term", "ratio", "params")}
    # truncation_error and runtime_ms keep the output format: both are always 0.0
    columns.update(kind=list(kinds), truncation_error=0.0, runtime_ms=0.0)
    return cols, [columns]


# ---------------------------------------------------------------------------
# output: the bytes json.dumps({"command", "rows"}, sort_keys=True, indent=2)
# and csv.writer(lineterminator="\n") would write for the same rows, built a
# column at a time and written a block at a time
# ---------------------------------------------------------------------------

_SCALAR_TYPES = {int, float, bool, type(None)}
# json tokens that csv output spells differently ("-Infinity" becomes "-inf")
_CSV_SPELLING = (("null", ""), ("NaN", "nan"), ("Infinity", "inf"))
# csv.writer quotes a field holding its delimiter, quote char or line terminator
_CSV_QUOTED = (",", '"', "\n")
# a json row sits at indent 4 and its keys at indent 6 inside the document
_JSON_KEY_LINE = "\n      "
_JSON_ROW_OPEN = "\n    {" + _JSON_KEY_LINE
_JSON_ROW_SEP = "," + _JSON_KEY_LINE
_JSON_ROW_CLOSE = "\n    }"
# the most rows formatted at once: bounds the cells a block holds, about 60
# bytes a row for `search` (250 KB a block)
_BLOCK_ROWS = 1 << 12
# the most rows assembled at once: bounds the byte matrix written, about 310
# bytes a row for `search` in json (320 KB), and its NUL mask
_SUB_ROWS = 1 << 10
_BOOL_CELLS = np.frombuffer(b"false" b"true\0", np.uint8).reshape(2, 5)


def _emit(cfg: RunConfig, cols, tables) -> int:
    """Write the header, then each table's rows in blocks of at most
    _BLOCK_ROWS, each as soon as it is formatted, as bytes to --out or to
    stdout's binary buffer; return the number of rows written."""
    as_json = cfg.format == "json"
    if cfg.out:
        sink = open(cfg.out, "wb")
    else:
        sys.stdout.flush()  # whatever went to the text layer first
        sink = nullcontext(sys.stdout.buffer)
    with sink as fh:
        if as_json:
            keys = sorted(cols)
            fh.write(b'{\n  "command": ' + json.dumps(cfg.command).encode() + b',\n  "rows": [')
        else:
            keys = cols
            fh.write((",".join(map(_csv_quote, cols)) + "\n").encode())
        total, skip = 0, int(as_json)  # the first json row takes no comma
        for table in tables:
            size = max((len(v) for v in table.values() if isinstance(v, (list, np.ndarray))), default=0)
            for lo in range(0, size, _BLOCK_ROWS):
                n = min(size - lo, _BLOCK_ROWS)
                block = {k: v[lo:lo + n] if isinstance(v, (list, np.ndarray)) else v for k, v in table.items()}
                for data in _block_text(keys, block, n, as_json):
                    fh.write(data[skip:])
                    del data  # freed before the next run of rows is assembled
                    skip = 0
                total += n
        if as_json:
            fh.write(b"\n  ]\n}\n" if total else b"]\n}\n")
        fh.flush()  # stdout's buffer too, so that a closed pipe is reported here
    return total


def _block_text(keys, block: dict, size: int, as_json: bool):
    """Yield the block's `size` rows as uint8 arrays of at most _SUB_ROWS
    rows each, each json row as ",\n    {...}" and each csv row ending in a
    newline.  The rows share the text between their per-row cells, with each
    repeated value formatted once into it, so a run of rows is one uint8
    matrix: that text broadcast, each column's cells NUL-padded to the
    block's widest, its NULs dropped once."""
    parts, text = [], "," + _JSON_ROW_OPEN if as_json else ""
    for i, key in enumerate(keys):
        if i:
            text += _JSON_ROW_SEP if as_json else ","
        if as_json:
            text += json.dumps(key) + ": "
        col = block[key]
        if isinstance(col, (list, np.ndarray)):
            parts += [_repeated(text, size), _cell_matrix(col, as_json)]
            text = ""
        else:
            text += _cells([col], as_json)[0]
    parts.append(_repeated(text + (_JSON_ROW_CLOSE if as_json else "\n"), size))
    rows = np.empty((min(size, _SUB_ROWS), sum(p.shape[1] for p in parts)), np.uint8)
    for lo in range(0, size, _SUB_ROWS):
        sub = rows[:min(size - lo, _SUB_ROWS)]
        np.concatenate([p[lo:lo + len(sub)] for p in parts], axis=1, out=sub)
        flat = sub.ravel()
        yield flat[flat != 0]


def _repeated(text: str, size: int) -> np.ndarray:
    """(size, w) uint8: the UTF-8 bytes of `text` on every row."""
    data = np.frombuffer(text.encode(), np.uint8)
    return np.broadcast_to(data, (size, len(data)))


def _cell_matrix(col, as_json: bool) -> np.ndarray:
    """(len(col), w) uint8: each value's cell, NUL-padded.  Bool, int and
    float arrays are formatted as bytes, anything else by _cells."""
    kind = col.dtype.kind if isinstance(col, np.ndarray) else None
    if kind == "b":
        return _BOOL_CELLS.take(col.view(np.uint8), axis=0)
    if kind in ("i", "u") or kind == "f" and col.itemsize <= 8:
        from . import numfmt  # here, so that commands that emit only lists never import its tables
        if kind == "f":
            return numfmt.float_cells(col.astype(np.float64, copy=False), lambda vs: _scalar_cells(vs, as_json))
        return numfmt.int_cells(col)
    texts = np.array([cell.encode() for cell in _cells(col if kind is None else col.tolist(), as_json)])
    return texts.view(np.uint8).reshape(len(texts), -1)


def _cells(values: list, as_json: bool) -> list:
    """Format one column, one string per value.

    Floats by repr (NaN, Infinity and -Infinity in json, as json writes them),
    ints by str, bools as true/false, None as null or an empty csv cell.
    Strings and dicts go through json.dumps, dicts re-indented for their
    nesting level in json, and csv-quoted the way csv.writer quotes them.
    """
    if set(map(type, values)) <= _SCALAR_TYPES:
        return _scalar_cells(values, as_json)
    return [_object_cell(v, as_json) for v in values]


def _scalar_cells(values: list, as_json: bool) -> list:
    text = json.dumps(values)[1:-1]  # the C encoder formats the whole column
    if not as_json:
        for token, spelling in _CSV_SPELLING:
            if token in text:
                text = text.replace(token, spelling)
    return text.split(", ")


def _object_cell(v, as_json: bool) -> str:
    if isinstance(v, str):
        return json.dumps(v) if as_json else _csv_quote(v)
    if isinstance(v, dict):
        if as_json:
            return json.dumps(v, sort_keys=True, indent=2).replace("\n", _JSON_KEY_LINE)
        return _csv_quote(json.dumps(v, sort_keys=True))
    return _scalar_cells([v], as_json)[0]


def _csv_quote(text: str) -> str:
    if any(c in text for c in _CSV_QUOTED):
        return '"' + text.replace('"', '""') + '"'
    return text


_HANDLERS = dict(zip(COMMANDS, (_run_search, _run_psi, _run_rho, _run_alpha, _run_kloosterman, _run_dispersion)))


def main(argv=None) -> int:
    try:
        cfg = build_config(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:  # argparse reports its own message
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        cols, tables = _HANDLERS[cfg.command](cfg)
    except (BudgetExceededError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OverflowError as exc:  # finite inputs whose derived scales leave the float range
        print(f"error: float range exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ZeroDivisionError, NonConvergenceError) as exc:  # ZeroDivisionError: --theta 1/0 and the like
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        rows = _emit(cfg, cols, tables)
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return EXIT_OK if rows else EXIT_EMPTY


if __name__ == "__main__":
    sys.exit(main())

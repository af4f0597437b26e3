"""Command-line driver: parameter sweeps, tables, CSV/JSON emission.

Subcommands: ``cost``, ``coeffs``, ``energy``, ``evolve``, ``parseval``. Each
accepts only the flags it reads, and its ``run_<command>`` takes the parsed
namespace. Output is deterministic: floats are printed as '%.17g' in CSV and
as their repr in JSON, with a '.' decimal point, rows are ordered by sweep
index, so identical configurations give byte-identical files. Configuration
precedence is flags > config file (JSON, path from --config or the
RINGSPLIT_CONFIG environment variable) > built-in defaults; config values are
converted and checked by the same argparse types and choices as the flags.
"""
from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads: no command reaches a threaded
    # BLAS kernel, and OpenBLAS's idle workers (one per further core) would
    # each spin about 0.1 s of CPU before they sleep. A value the caller set
    # wins; a library import leaves the environment as it was.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
import itertools
import math
import sys

import numpy as np

from .discrimination import BarrierModel, post_insertion_cost
from .evolution import evolve, revival_period, sample_density
from .quadrature import ConvergenceError
# perfbench/spans.py patches oracle_coefficient and the ring states, which are unused here
from .expansion import (CANDIDATES, COEFF_KINDS, DELTA_E_VARIANTS,  # noqa: F401
                        ChamberGeometry, coefficient, delta_energy, expand, oracle_coefficient,
                        oracle_coefficients, per_alpha, sign_discrepancies, truncation_sums)
from .ring import TWO_PI, reference_state, ring_overlap, shifted_state  # noqa: F401

ENV_CONFIG = "RINGSPLIT_CONFIG"
#: exit code when stdout's reader closes early: 128 + SIGPIPE, as a shell
#: reports a process that signal ended
EXIT_BROKEN_PIPE = 141
#: exit code when an output (the table or the sign-correction log) cannot be
#: written: EX_IOERR of sysexits.h
EXIT_IO_ERROR = 74

VARIANT_CHOICES = DELTA_E_VARIANTS + ("both",)
FORMAT_CHOICES = ("csv", "json")

#: rows of a block, the unit the writers format a table in
BLOCK_ROWS = 4096
#: blocks of at least this many rows have their float and int columns
#: formatted in numpy (ringsplit._text), whose fixed cost per call (about
#: 0.1 ms a column) they repay; a smaller block formats each such column with
#: one Python %-format, and so never imports it
BULK_ROWS = 700
#: bytes of row text (NUL padding included) the writer builds at once
TEXT_BYTES = 1 << 16
#: rows one table may hold; each subcommand checks its row count before it
#: builds an array
ROW_LIMIT = 10_000_000
#: largest --n-trunc of coeffs, whose oracle sums its panels by FFT (one
#: batched projection per chamber: 0.16 s at N = 500, 0.18 s at N = 2000 and
#: 0.45 s at this limit for one alpha, child wall time on a 2-core Xeon), and
#: of evolve; cost and parseval are O(1) in N
COEFFS_N_LIMIT = 10_000
EVOLVE_N_LIMIT = 1_000_000
#: evolve's --time-fracs when neither --time-fracs nor --times is given
DEFAULT_TIME_FRACS = (0.0, 0.25, 0.5, 0.75, 1.0)


class Table:
    """A table as the mappings of column name to column it is computed in, one
    after another: a list of them (``coeffs``' sign log), or a generator that
    computes each one when the writer reaches it (every subcommand's table), so
    that one mapping, not the whole table, is held at once: the writer lets
    each go before the next is computed.
    ``header`` is the first mapping's names, taken when the table is made (so
    that mapping is computed then), and each mapping's columns are read by
    those names, uncopied. ``len()`` is ``rows``, the row count the caller
    knows before any compute, so it computes nothing. Every mapping has the
    same names, in any order; the columns of one mapping have one length, and
    mappings may differ in length.

    A column is a 1-D numpy array: of floats, of ints, or of objects, which
    hold text and ints beyond int64. The writers take a table a block of
    ``blocks()`` at a time and lay each out one way, whole and by column
    (``_write_rows``), so one mapping and one block's text cells are held.
    """

    def __init__(self, parts, rows: int) -> None:
        parts = iter(parts)
        first = next(parts)
        self.header = list(first)
        # an exhausted list iterator lets its list go, so the first mapping is released too
        self._parts = itertools.chain(iter([first]), parts)
        self._rows = rows

    def __len__(self) -> int:
        return self._rows

    def blocks(self):
        """The columns of at most BLOCK_ROWS rows at a time, in row order:
        each mapping sliced into views, with a partial last block per mapping.
        No block spans two mappings, so none is a copy. The mappings are read
        once: a second call finds none, and fails the row count."""
        rows = 0
        for part in self._parts:
            assert part.keys() == set(self.header), "parts differ in names"
            columns = [part[name] for name in self.header]
            assert len(set(map(len, columns))) == 1, "columns differ in length"
            for start in range(0, len(columns[0]), BLOCK_ROWS):
                yield [col[start:start + BLOCK_ROWS] for col in columns]
            rows += len(columns[0])
            del part, columns  # before the next mapping is computed
        assert rows == self._rows, f"the parts hold {rows} rows, not {self._rows}"


def _holds_one_value(col) -> bool:
    """Whether a block of a column holds one value, judged on its bytes, so
    that -0.0 and 0.0 keep their own text and an object column holds one
    object. (A first numpy ``==`` and ``.all()`` would add 0.25 MB of peak RSS
    to every small table.)"""
    return col.tobytes() == col[:1].tobytes() * len(col)


def _write_rows(stream, pieces, column_format, float_text, table: Table, sep: str) -> None:
    """Write every row of ``table``, with ``sep`` between rows.

    A row is ``pieces[0]``, the first column's cell, ``pieces[1]``, and so on
    to ``pieces[-1]``. ``column_format(col)`` gives a column's %-format and
    its cells, ``tolist`` of the column in the form that format reads. A
    column that holds one value over a block of ``table.blocks()`` (text and
    ints beyond int64 too) has its first cell formatted once, and that text
    goes into the block's rows as it stands. The others become NUL-padded
    cells (``_cells``; ``float_text`` is the ``(shortest, fallback)`` of the
    floats), and every block, whatever its size, is built and written
    TEXT_BYTES of text at a time with its NULs dropped (no cell or piece holds
    one of its own), so one block's cells and that much text are held.
    """
    for index, block in enumerate(table.blocks()):
        rows = len(block[0])
        # the text between the columns that vary, with each constant's text
        # in it, and the varying columns
        between, varying = [sep + pieces[0]], []
        for col, piece in zip(block, pieces[1:]):
            if _holds_one_value(col):
                fmt, values = column_format(col[:1])
                between[-1] += fmt % values[0] + piece
            else:
                varying.append(col)
                between.append(piece)
        cells = _cells(varying, column_format, float_text, rows >= BULK_ROWS)
        _write_text(stream, between, cells, rows, 0 if index else len(sep))
        del block, varying, cells, rows  # before the next block is computed


def _cells(columns, column_format, float_text, bulk: bool):
    """The NUL-padded cells of each column, as (rows, width) uint8 arrays.
    With ``bulk``, floats and signed ints are formatted in numpy; other
    number columns take one %-format of the whole column, each cell padded
    with spaces to 25 characters (a number's text is at most 24 and holds
    none), which become NULs; text and ints beyond int64 are formatted cell
    by cell, in UTF-8. The %-formats come from ``column_format``."""
    cells = []
    for col in columns:
        kind = col.dtype.kind
        if bulk and kind in "fi":
            from . import _text
            cells.append(_text.float_cells(col, *float_text) if kind == "f"
                         else _text.int_cells(col))
            continue
        fmt, values = column_format(col)
        if kind == "O":
            encoded = np.array([(fmt % value).encode() for value in values])
            cells.append(encoded.view(np.uint8).reshape(len(values), -1))
        else:
            text = (("%-25" + fmt[1:]) * len(values)) % tuple(values)
            cells.append(np.frombuffer(text.encode().replace(b" ", b"\0"), np.uint8)
                         .reshape(len(values), -1))
    return cells


def _write_text(stream, between, cells, rows: int, skip: int) -> None:
    """Write ``rows`` rows whose columns have the NUL-padded ``cells``, with
    the texts ``between`` around them, TEXT_BYTES of row buffer at a time;
    the first ``skip`` characters are left out."""
    literals = [np.frombuffer(text.encode(), np.uint8) for text in between]
    width = sum(map(len, literals)) + sum(cell.shape[1] for cell in cells)
    step = max(1, TEXT_BYTES // width)
    for start in range(0, rows, step):
        count = min(step, rows - start)
        text = bytearray(count * width)
        buffer = np.frombuffer(text, np.uint8).reshape(count, width)
        at = 0
        for literal, cell in itertools.zip_longest(literals, cells):
            buffer[:, at:at + len(literal)] = literal
            at += len(literal)
            if cell is not None:
                buffer[:, at:at + cell.shape[1]] = cell[start:start + count]
                at += cell.shape[1]
        del buffer  # releases the bytearray's export
        # at most two copies of the text at a time; the skipped text is ASCII
        text = text.translate(None, b"\0")
        if not start:
            del text[:skip]
        text = text.decode()
        stream.write(text)
        del text


def _csv_format(col):
    """A column's CSV format, and its cells."""
    cells = col.tolist()
    if col.dtype.kind != "O":
        return "%.17g" if col.dtype.kind == "f" else "%d", cells
    # the writer does no quoting, so a text cell must need none
    assert not any(ch in cell for cell in cells if isinstance(cell, str) for ch in ',"\r\n\0'), \
        "a CSV string cell holds a comma, a quote, a line break or a NUL"
    return "%s", cells  # "%s" of an int is its "%d" text


def _write_csv(table: Table, stream) -> None:
    """CSV as ``csv.writer`` writes it, floats as ``format(x, ".17g")``."""
    stream.write(",".join(table.header) + "\n")
    pieces = [""] + [","] * (len(table.header) - 1) + ["\n"]
    _write_rows(stream, pieces, _csv_format, (False, "%.17g".__mod__), table, "")


def _json_column(col):
    """A column's JSON format, and its cells in the form that format reads."""
    import json  # here and below, where used: a CSV run without a config never loads it
    cells = col.tolist()
    if col.dtype.kind in "iu":
        return "%d", cells
    if col.dtype.kind == "f" and np.isfinite(col).all():
        return "%r", cells  # float.__repr__, as json writes a float
    return "%s", [json.dumps(cell) for cell in cells]  # text, big ints, NaN, Infinity


def _write_json(table: Table, stream) -> None:
    """The text of ``json.dump(records, indent=2)`` plus a newline, one record
    per row."""
    import json
    if not len(table):
        stream.write("[]\n")
        return
    keys = [json.dumps(key) for key in table.header]
    pieces = [f"  {{\n    {keys[0]}: "] + [f",\n    {key}: " for key in keys[1:]] + ["\n  }"]
    stream.write("[\n")
    # json.dumps writes a finite float as its repr, and NaN and infinities as JSON does
    _write_rows(stream, pieces, _json_column, (True, json.dumps), table, ",\n")
    stream.write("\n]\n")


def _emit(args: argparse.Namespace, table: Table) -> None:
    writer = _write_csv if args.format == "csv" else _write_json
    if args.out is None:
        writer(table, sys.stdout)
        # a closed pipe surfaces here, inside main, and not at interpreter exit
        sys.stdout.flush()
    else:
        with open(args.out, "w", newline="") as fh:
            writer(table, fh)


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{what} is {value}, above the limit of {limit}")


def _parse_sweep(raw: str) -> tuple[float, float, int]:
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValueError(
            f"--alpha-sweep expects START:STOP:COUNT, got {raw!r}") from None
    if count < 1:
        raise ValueError("sweep count must be >= 1")
    return start, stop, count


def _alphas(args: argparse.Namespace, rows_per_alpha: int, row_flags: str) -> np.ndarray:
    """The alphas of --alpha or --alpha-sweep.

    Each alpha gives ``rows_per_alpha`` rows of the table; the row count, with
    ``row_flags`` naming the flags that set it, is checked against ROW_LIMIT,
    and the sweep's ends against the range of alpha, before the sweep is built.
    The tables take the sweep in groups, in ``_sweep``; where one alpha is
    taken at a time (``evolve``'s one alpha, ``coeffs``' oracle), it comes
    from ``.tolist()``: a Python float, whose repr in an error message is the
    plain number.
    """
    if args.alpha_sweep is None:
        start = stop = math.pi / 4.0 if args.alpha is None else args.alpha
        count = 1
    else:
        start, stop, count = _parse_sweep(args.alpha_sweep)
    _check_limit(f"row count ({row_flags})", count * max(rows_per_alpha, 1), ROW_LIMIT)
    # the library's range check on the ends, which bound every alpha of the sweep
    for end in (start, stop)[:count]:
        ChamberGeometry(end)
    return np.linspace(start, stop, count)


def _sweep(part, units: int, rows_per_unit: int, ends=(0, -1)) -> Table:
    """The table of ``units`` units (alphas, or energy's (alpha, n) pairs) of
    ``rows_per_unit`` rows each, as ``part(indices)`` of consecutive groups of
    unit indices: each group gives at most BLOCK_ROWS rows, or one unit where
    its rows are more.

    Every failure known in advance (an alpha too small for float64, an energy
    that overflows) grows toward an end of the sweep: the units ``ends``, by
    default the first and the last. So a table of several groups first
    computes ``part(ends)``, which fails where any later part would, before
    its first block and not after rows were written. A table of one group
    needs no check: that group is computed when the table is made, before
    anything is written.
    """
    size = max(1, BLOCK_ROWS // rows_per_unit)
    if units > size:
        part(np.array(ends))
    return Table((part(np.arange(first, min(first + size, units)))
                  for first in range(0, units, size)), units * rows_per_unit)


def _number_list(cast):
    """Argparse type for a comma-separated list of numbers."""
    def parse(raw: str) -> tuple:
        return tuple(cast(part) for part in raw.split(","))
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    import json
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        # a config that cannot be read is invalid configuration, not an I/O error
        raise ValueError(f"cannot read config file: {exc}") from None
    except ValueError as exc:  # bad JSON syntax or bytes that are not UTF-8
        raise ValueError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config file {path!r} must contain a JSON object")
    return config


def _config_value(action: argparse.Action, key: str, value):
    """Convert and check one config value exactly as its flag would be.

    The value is turned into the text a user would pass on the command line
    (a list becomes a comma list, and an integral float an integer, so that
    1000.0 suits an int flag and -0.0 keeps its sign as "-0") and then run
    through the flag's type and choices.
    """
    import json
    items = value if isinstance(value, list) else [value]
    if any(isinstance(v, bool) or not isinstance(v, (int, float, str)) for v in items):
        raise ValueError(
            f"config key {key!r}: expected a number or a string, got {json.dumps(value)}")
    text = ",".join(format(v, ".0f") if isinstance(v, float) and v.is_integer() else str(v)
                    for v in items)
    try:
        converted = text if action.type is None else action.type(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: invalid {action.type.__name__} value "
                         f"{json.dumps(value)}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"config key {key!r}: {json.dumps(value)} is not one of "
                         f"{', '.join(action.choices)}")
    if key == "alpha_sweep":
        # checked here so that the error names the key; the value stays the
        # text that _alphas parses, as a flag's does
        try:
            _parse_sweep(converted)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return converted


def _apply_config(parser: argparse.ArgumentParser, flags: argparse.Namespace) -> None:
    """Make the config file's values the defaults of the chosen subcommand.

    Flags given on the command line still win. Keys of another subcommand's
    flags are skipped, so one config file can serve several subcommands; any
    other unknown key is an error. A config sets at most one member of each
    mutually exclusive group, and a member given as a flag drops its value.
    """
    config = _load_config(flags.config)
    subparsers = next(a.choices for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {name: {a.dest: a for a in sub._actions
                      if a.option_strings and a.dest not in ("help", "config")}
               for name, sub in subparsers.items()}
    own = options[flags.command]
    defaults = {}
    for key, value in config.items():
        if key in own:
            defaults[key] = _config_value(own[key], key, value)
        elif not any(key in other for other in options.values()):
            raise ValueError(f"unknown config key {key!r}")
    chosen = subparsers[flags.command]
    for group in chosen._mutually_exclusive_groups:
        keys = [action.dest for action in group._group_actions]
        configured = [key for key in keys if key in defaults]
        if len(configured) > 1:
            raise ValueError(f"config keys {' and '.join(map(repr, configured))} "
                             "exclude each other")
        # the members of a group default to None, so a set one came as a flag
        if configured and any(getattr(flags, key) is not None for key in keys):
            del defaults[configured[0]]
    chosen.set_defaults(**defaults)


# ---------------------------------------------------------------- cost

def run_cost(args: argparse.Namespace):
    alphas = _alphas(args, 1, "--alpha-sweep count")
    bm = BarrierModel(args.epsilon)
    # one report per group of BLOCK_ROWS alphas: its fields, in field order,
    # are the columns of one mapping
    return _sweep(lambda units: vars(post_insertion_cost(alphas[units], args.n_trunc, bm)),
                  len(alphas), 1)


# ---------------------------------------------------------------- coeffs

def run_coeffs(args: argparse.Namespace):
    n_trunc = args.n_trunc
    _check_limit("--n-trunc", n_trunc, COEFFS_N_LIMIT)
    alphas = _alphas(args, n_trunc, "--alpha-sweep count x --n-trunc")
    # an n_trunc below 1, or an alpha too small for float64, is refused at
    # the sweep's ends before any quadrature runs
    truncation_sums(alphas[[0, -1]], n_trunc)
    # the oracle may fail to converge at any alpha, which no check can know in
    # advance: it runs over the whole sweep, one batched quadrature per chamber
    # and alpha, and its values are kept for the table and the sign log
    oracle = {kind: np.empty((alphas.size, n_trunc)) for kind in COEFF_KINDS}
    for unit, alpha in enumerate(alphas.tolist()):
        for kind, values in oracle_coefficients(alpha, n_trunc).items():
            oracle[kind][unit] = values
    log = sign_discrepancies(alphas[:, None], oracle)
    discrepancies = Table([log], len(log["n"]))
    if args.discrepancies is not None:
        with open(args.discrepancies, "w", newline="") as fh:
            _write_csv(discrepancies, fh)
    elif len(discrepancies):
        print(f"note: {len(discrepancies)} oracle sign corrections recorded; "
              "pass --discrepancies PATH to write them", file=sys.stderr)
    modes = np.arange(1, n_trunc + 1)

    def part(units):
        group = alphas[units]
        closed = {kind: coefficient(kind, modes, group[:, None]) for kind in COEFF_KINDS}
        kept = {kind: oracle[kind][units] for kind in COEFF_KINDS}
        # norm_k is k on its chamber's orthonormal modes, sqrt(2 pi / width) * k:
        # kinds a and c lie in chamber 1 of width alpha, b and d in chamber 2
        widths = dict(zip(COEFF_KINDS, (group, TWO_PI - group) * 2))
        # both candidates have the same coefficient magnitudes, so the same deficit
        deficit = np.repeat(truncation_sums(group, n_trunc).deficit, n_trunc)
        return {
            "alpha": np.repeat(group, n_trunc), "n": np.tile(modes, group.size),
            **{kind: closed[kind].ravel() for kind in COEFF_KINDS},
            **{f"norm_{kind}": (np.sqrt(TWO_PI / widths[kind])[:, None] * closed[kind]).ravel()
               for kind in COEFF_KINDS},
            **{f"oracle_{kind}": kept[kind].ravel() for kind in COEFF_KINDS},
            **{f"abs_diff_{kind}": np.abs(closed[kind] - kept[kind]).ravel()
               for kind in COEFF_KINDS},
            "deficit_reference": deficit, "deficit_shifted": deficit,
        }

    return _sweep(part, alphas.size, n_trunc)


# ---------------------------------------------------------------- energy

def run_energy(args: argparse.Namespace):
    nm_max = args.nm_max
    if nm_max < 1:
        raise ValueError("--nm-max must be >= 1")
    alphas = _alphas(args, nm_max**2, "--alpha-sweep count x --nm-max squared")
    both = args.variant == "both"
    variants = DELTA_E_VARIANTS if both else (args.variant,)
    idx = np.arange(1, nm_max + 1)

    def part(pairs):
        # the rows of consecutive (alpha, n) pairs, nm_max values of m each:
        # alpha outer, n next and m inner
        alpha, n = alphas[pairs // nm_max], idx[pairs % nm_max]
        values = [delta_energy(n[:, None], idx, alpha[:, None], variant=v).ravel()
                  for v in variants]
        columns = {f"delta_e_{v}" if both else "delta_e": col
                   for v, col in zip(variants, values)}
        if both:
            columns["variant_difference"] = values[0] - values[1]
        return {"alpha": np.repeat(alpha, nm_max), "n": np.repeat(n, nm_max),
                "m": np.tile(idx, pairs.size), **columns}

    # every level rises with n and m and is convex in alpha, so the rows of
    # n = nm_max at the sweep's first and last alpha are its ends
    pairs = alphas.size * nm_max
    return _sweep(part, pairs, nm_max, ends=(nm_max - 1, pairs - 1))


# ---------------------------------------------------------------- evolve

def run_evolve(args: argparse.Namespace):
    if args.grid_points < 2:
        raise ValueError("--grid-points must be >= 2")
    _check_limit("--n-trunc", args.n_trunc, EVOLVE_N_LIMIT)
    chambers = (1, 2) if args.chamber == "both" else (int(args.chamber),)
    fracs = args.time_fracs or DEFAULT_TIME_FRACS
    alphas = _alphas(args, args.grid_points * len(args.times or fracs) * len(chambers),
                     "--alpha-sweep count x --grid-points x times x chambers")
    if len(alphas) != 1:
        raise ValueError("evolve takes a single --alpha, not a sweep")
    (alpha,) = alphas.tolist()
    expansion = expand(args.candidate, alpha, args.n_trunc)
    # every (chamber, time) is evolved, and so checked against its time
    # bound, before the first part is sampled; a state holds no copy of the
    # coefficients
    states = []
    for chamber in chambers:
        period = revival_period(expansion.geometry.width(chamber))
        for t in args.times or [f * period for f in fracs]:
            states.append((t, evolve(expansion, chamber, t)))

    def part(t, state):
        grid = np.linspace(*expansion.geometry.bounds(state.chamber), args.grid_points)
        return {"theta": grid, "density": sample_density(state, grid),
                "t": np.full(grid.size, t), "chamber": np.full(grid.size, state.chamber)}

    return Table(itertools.starmap(part, states), len(states) * args.grid_points)


# ---------------------------------------------------------------- parseval

def run_parseval(args: argparse.Namespace):
    count = len(args.n_trunc)
    alphas = _alphas(args, count, "--alpha-sweep count x --n-trunc count")

    def part(units):
        # alpha x truncation rows; both candidates have the same coefficient
        # magnitudes, so the same sums
        group = alphas[units]
        sums = [truncation_sums(group, n_trunc) for n_trunc in args.n_trunc]
        deficit, completeness, sum_rule = (
            np.column_stack([getattr(s, name) for s in sums]).ravel()
            for name in ("deficit", "completeness", "sum_rule"))
        target = np.repeat(per_alpha(math.cos, group), count)
        return {
            # np.tile makes an object array of ints beyond int64
            "alpha": np.repeat(group, count), "n_trunc": np.tile(args.n_trunc, len(group)),
            "deficit_reference": deficit, "deficit_shifted": deficit,
            "completeness_reference": completeness, "completeness_shifted": completeness,
            "sum_rule_overlap": sum_rule, "ring_overlap": target,
            "sum_rule_abs_error": np.abs(sum_rule - target),
        }

    return _sweep(part, len(alphas), count)


# ---------------------------------------------------------------- parser

def _add_common_flags(parser: argparse.ArgumentParser, run) -> None:
    """The flags every subcommand reads, and the function that runs it."""
    parser.set_defaults(run=run)
    alpha_group = parser.add_mutually_exclusive_group()
    alpha_group.add_argument("--alpha", type=float, default=None,
                             help="barrier angle in radians, in (0, pi/2] (default pi/4)")
    alpha_group.add_argument("--alpha-sweep", default=None, metavar="START:STOP:COUNT",
                             help="inclusive linear sweep over alpha")
    parser.add_argument("--format", choices=FORMAT_CHOICES, default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--config", default=os.environ.get(ENV_CONFIG),
                        help=f"JSON config file (default from ${ENV_CONFIG})")


def _add_n_trunc(parser: argparse.ArgumentParser, default: int) -> None:
    parser.add_argument("--n-trunc", type=int, default=default,
                        help=f"expansion truncation (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringsplit",
        description="Barrier-insertion state discrimination on a ring: "
                    "costs, expansion coefficients, energy transfer, snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # run is looked up here, on each build, so that a patched cli.run_* is the one called
    p_cost = sub.add_parser("cost", help="Bayes cost before/after insertion")
    _add_common_flags(p_cost, run_cost)
    _add_n_trunc(p_cost, 1000)
    p_cost.add_argument("--epsilon", type=float, default=0.0,
                        help="barrier-state overlap in [0, 1] (default 0)")

    p_coeffs = sub.add_parser("coeffs", help="expansion coefficients and oracle check")
    _add_common_flags(p_coeffs, run_coeffs)
    _add_n_trunc(p_coeffs, 50)
    p_coeffs.add_argument("--discrepancies", default=None, metavar="PATH",
                          help="write oracle sign corrections to this CSV")

    p_energy = sub.add_parser("energy", help="energy-transfer table over (n, m)")
    _add_common_flags(p_energy, run_energy)
    p_energy.add_argument("--variant", choices=VARIANT_CHOICES, default="both",
                          help="energy-transfer variant (default both)")
    p_energy.add_argument("--nm-max", type=int, default=100,
                          help="largest mode index per chamber (default 100)")

    p_evolve = sub.add_parser("evolve", help="density snapshots at chosen times")
    _add_common_flags(p_evolve, run_evolve)
    _add_n_trunc(p_evolve, 1000)
    p_evolve.add_argument("--candidate", choices=CANDIDATES, default="reference",
                          help="which candidate to evolve (default reference)")
    p_evolve.add_argument("--chamber", choices=("1", "2", "both"), default="both",
                          help="chamber(s) to sample (default both)")
    p_evolve.add_argument("--grid-points", type=int, default=4096,
                          help="grid points per chamber (default 4096)")
    time_group = p_evolve.add_mutually_exclusive_group()
    time_group.add_argument("--time-fracs", type=_number_list(float), default=None,
                            help="comma list of fractions of the revival period (a negative "
                                 "list as --time-fracs=-0.25,0.5; default 0,0.25,0.5,0.75,1)")
    time_group.add_argument("--times", type=_number_list(float), default=None,
                            help="comma list of absolute times (a negative list as --times=-1,2)")

    p_parseval = sub.add_parser("parseval", help="completeness deficits vs truncation")
    _add_common_flags(p_parseval, run_parseval)
    p_parseval.add_argument("--n-trunc", type=_number_list(int), default="100,1000,10000",
                            help="comma list of truncations (default 100,1000,10000)")

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit status (0, 1, 2, 74 or 141).

    With ``argv=None`` the arguments come from ``sys.argv``: ``main`` is running
    as the program (``python -m ringsplit.cli`` or the ``ringsplit`` script), and
    on every way out, argparse's ``SystemExit`` included, it moves the heap to
    the collector's permanent generation (``gc.freeze()``). Every other exit
    step still runs: there is no ``os._exit``, so ``atexit`` handlers and the
    final flush of stdout keep their work. A caller that passes ``argv`` keeps
    its garbage collection as it was.
    """
    try:
        parser = build_parser()
        flags = parser.parse_args(argv)
        try:
            _apply_config(parser, flags)
            args = parser.parse_args(argv)
            table = args.run(args)
            _emit(args, table)
        except BrokenPipeError:
            # the reader of stdout went away: point stdout at devnull so that the
            # flush at exit raises nothing, and exit as a SIGPIPE would
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
        except ConvergenceError as exc:
            print(f"ringsplit: quadrature failed to converge: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"ringsplit: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            # reading the config raises ValueError, so this is a failed write
            print(f"ringsplit: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR
        return 0
    finally:
        if argv is None:
            # the process ends here: teardown would otherwise run the cyclic
            # collector over numpy's import-time object graph, one cycle at a time
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: parameter sweeps, tables, CSV/JSON emission.

Subcommands: ``cost``, ``coeffs``, ``energy``, ``evolve``, ``parseval``. Each
accepts only the flags it reads, and its ``run_<command>`` takes the parsed
namespace. Output is deterministic: floats are printed with 17 significant
digits and a '.' decimal point, rows are ordered by sweep index, so identical
configurations give byte-identical files. Configuration precedence is flags >
config file (JSON, path from --config or the RINGSPLIT_CONFIG environment
variable) > built-in defaults; config values are converted and checked by the
same argparse types and choices as the flags.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import math
import os
import sys

import numpy as np

from .discrimination import BarrierModel, DiscriminationReport, post_insertion_cost
from .evolution import evolve, revival_period, sample_density
# oracle_coefficient is unused here, but perfbench/spans.py patches cli.oracle_coefficient
from .expansion import (COEFF_KINDS, DELTA_E_VARIANTS, ChamberGeometry,  # noqa: F401
                        CoeffDiscrepancy, coefficient, delta_energy, expand,
                        oracle_coefficient, oracle_coefficients, sign_discrepancies,
                        truncation_sums)
from .quadrature import ConvergenceError
from .ring import reference_state, ring_overlap, shifted_state

ENV_CONFIG = "RINGSPLIT_CONFIG"
#: exit code when stdout's reader closes early: 128 + SIGPIPE, as a shell
#: reports a process that signal ended
EXIT_BROKEN_PIPE = 141
#: exit code when an output (the table or the sign-correction log) cannot be
#: written: EX_IOERR of sysexits.h
EXIT_IO_ERROR = 74

VARIANT_CHOICES = DELTA_E_VARIANTS + ("both",)
FORMAT_CHOICES = ("csv", "json")
CANDIDATE_CHOICES = ("reference", "shifted")

#: rows converted from numpy to Python values at a time
BLOCK_ROWS = 4096
#: rows one table may hold; each subcommand checks its row count before it
#: builds an array
ROW_LIMIT = 10_000_000
#: largest --n-trunc of coeffs, whose oracle costs O(N^2) quadrature nodes
#: (one batched projection per chamber: 0.7 s at N = 500 and 8.3 s at
#: N = 2000 on a 2-core Xeon, so about 200 s at this limit), and of evolve;
#: cost and parseval are O(1) in N
COEFFS_N_LIMIT = 10_000
EVOLVE_N_LIMIT = 1_000_000
#: evolve's --time-fracs when neither --time-fracs nor --times is given
DEFAULT_TIME_FRACS = (0.0, 0.25, 0.5, 0.75, 1.0)


class Table:
    """A table as the parts it was computed in: mappings of column name to
    column, one per alpha, or per chamber and time. ``header`` is the first
    part's names, each part's columns are held by those names, uncopied, and
    ``len()`` is the number of rows.

    A column is a 1-D numpy array of floats or of ints (an object array for
    ints beyond int64), or a list of str.
    """

    def __init__(self, parts: list[dict]) -> None:
        self.header = list(parts[0])
        self.parts = [[part[name] for name in self.header] for part in parts]
        assert len(set(map(len, itertools.chain(*self.parts)))) == 1, "columns differ in length"

    def __len__(self) -> int:
        return len(self.parts) * len(self.parts[0][0])

    def blocks(self):
        """The columns of at most BLOCK_ROWS rows at a time, in row order. A
        part of BLOCK_ROWS rows or more is sliced; smaller ones are joined as
        many as fill one block, so no join copies more than one block."""
        group = max(1, BLOCK_ROWS // max(len(self.parts[0][0]), 1))
        for first in range(0, len(self.parts), group):
            parts = self.parts[first:first + group]
            columns = parts[0] if len(parts) == 1 else [
                [cell for col in cols for cell in col] if isinstance(cols[0], list)
                else np.concatenate(cols)
                for cols in zip(*parts)]
            for start in range(0, len(columns[0]), BLOCK_ROWS):
                yield [col[start:start + BLOCK_ROWS] for col in columns]


def _records(record_type, records) -> dict:
    """The columns of dataclass records, by field name of ``record_type`` in
    field order. A column whose first value is a str stays a list, which
    shares each string; any other becomes a numpy array."""
    def column(name):
        values = [getattr(record, name) for record in records]
        return values if values and isinstance(values[0], str) else np.array(values)
    return {field.name: column(field.name) for field in dataclasses.fields(record_type)}


def _holds_one_value(col) -> bool:
    """Whether a block of a numeric column holds one value, judged on its
    bytes, so that -0.0 and 0.0 keep their own text. (A first numpy ``==``
    and ``.all()`` would add 0.25 MB of peak RSS to every small table.)"""
    if not isinstance(col, np.ndarray) or col.dtype.kind not in "fiu":
        return False  # str cells and ints beyond int64
    return col.tobytes() == col[:1].tobytes() * len(col)


def _write_rows(stream, row_format, column_format, table: Table, sep: str) -> None:
    """Write every row of ``table``, with ``sep`` between rows.

    ``column_format(col)`` gives a column's block as its %-format and the
    block in the form that format reads, and ``row_format(cells)`` is the
    format of a row whose columns take the texts or formats ``cells``. Each
    block of ``table.blocks()`` is converted to Python values once per column
    (``tolist``). A numeric column that holds one value over the block has
    its cell formatted once, and that text, with ``%`` escaped, goes literally
    into the block's row format; the other columns fill each row. Rows go to
    the stream one by one, so no text of more than one row is held at once.
    """
    for index, block in enumerate(table.blocks()):
        cells, varying = [], []
        for fmt, col in map(column_format, block):
            if _holds_one_value(col):
                cells.append((fmt % col[0].item()).replace("%", "%%"))
            else:
                cells.append(fmt)
                varying.append(col.tolist() if isinstance(col, np.ndarray) else col)
        rows = zip(*varying) if varying else itertools.repeat((), len(block[0]))
        block_format = row_format(cells)
        if not index:
            stream.write(block_format % next(rows))
        later = sep + block_format
        stream.writelines(later % row for row in rows)


def _csv_format(col):
    """A column's CSV format, and the column."""
    if isinstance(col, list):
        # the writer does no quoting, so a cell must need none
        assert not any(ch in cell for cell in col for ch in ',"\r\n'), \
            "a CSV string cell holds a comma, a quote or a line break"
        return "%s", col
    return "%.17g" if col.dtype.kind == "f" else "%d", col


def _write_csv(header, table: Table, stream) -> None:
    """CSV as ``csv.writer`` writes it, floats as ``format(x, ".17g")``."""
    stream.write(",".join(header) + "\n")
    _write_rows(stream, lambda cells: ",".join(cells) + "\n", _csv_format, table, "")


def _json_column(col):
    """A column's JSON format, and the column in the form that format reads."""
    if isinstance(col, list):
        return "%s", [json.dumps(cell) for cell in col]
    if col.dtype.kind != "f":
        return "%d", col
    if np.isfinite(col).all():
        return "%r", col  # float.__repr__, as json writes a float
    return "%s", [json.dumps(cell) for cell in col.tolist()]  # NaN, Infinity


def _write_json(header, table: Table, stream) -> None:
    """The text of ``json.dump(records, indent=2)`` plus a newline, one record
    per row."""
    if not len(table):
        stream.write("[]\n")
        return
    keys = [json.dumps(key) for key in header]

    def row_format(cells):
        return "  {\n" + ",\n".join(f"    {key}: {cell}" for key, cell in zip(keys, cells)) \
            + "\n  }"

    stream.write("[\n")
    _write_rows(stream, row_format, _json_column, table, ",\n")
    stream.write("\n]\n")


def _emit(header, table: Table, args: argparse.Namespace) -> None:
    writer = _write_csv if args.format == "csv" else _write_json
    if args.out is None:
        writer(header, table, sys.stdout)
        # a closed pipe surfaces here, inside main, and not at interpreter exit
        sys.stdout.flush()
    else:
        with open(args.out, "w", newline="") as fh:
            writer(header, table, fh)


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


def _alphas(args: argparse.Namespace, rows_per_alpha: int,
            row_flags: str) -> tuple[float, ...]:
    """The alphas of --alpha or --alpha-sweep.

    Each alpha gives ``rows_per_alpha`` rows of the table; the row count, with
    ``row_flags`` naming the flags that set it, is checked against ROW_LIMIT,
    and the sweep's ends against the range of alpha, before the sweep is built.
    """
    if args.alpha_sweep is None:
        start, stop, count = math.pi / 4.0 if args.alpha is None else args.alpha, None, 1
    else:
        start, stop, count = _parse_sweep(args.alpha_sweep)
    _check_limit(f"row count ({row_flags})", count * max(rows_per_alpha, 1), ROW_LIMIT)
    # the library's range check on the ends, which bound every alpha of the sweep
    for end in (start, stop)[:count]:
        ChamberGeometry(end)
    if count == 1:
        return (start,)
    return tuple(np.linspace(start, stop, count).tolist())


def _number_list(cast):
    """Argparse type for a comma-separated list of numbers."""
    def parse(raw: str) -> tuple:
        return tuple(cast(part) for part in raw.split(","))
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        # a config that cannot be read is invalid configuration, not an I/O error
        raise ValueError(f"cannot read config file: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config file {path!r} must contain a JSON object")
    return config


def _config_value(action: argparse.Action, key: str, value):
    """Convert and check one config value exactly as its flag would be.

    The value is turned into the text a user would pass on the command line
    (a list becomes a comma list) and then run through the flag's type and
    choices.
    """
    items = value if isinstance(value, list) else [value]
    if any(isinstance(v, bool) or not isinstance(v, (int, float, str)) for v in items):
        raise ValueError(
            f"config key {key!r}: expected a number or a string, got {json.dumps(value)}")
    text = ",".join(str(int(v) if isinstance(v, float) and v.is_integer() else v)
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
    bm = BarrierModel(args.epsilon)
    alphas = _alphas(args, 1, "--alpha-sweep count")
    reports = [post_insertion_cost(alpha, args.n_trunc, bm) for alpha in alphas]
    return Table([_records(DiscriminationReport, reports)])


# ---------------------------------------------------------------- coeffs

def run_coeffs(args: argparse.Namespace):
    n_trunc = args.n_trunc
    _check_limit("--n-trunc", n_trunc, COEFFS_N_LIMIT)
    alphas = _alphas(args, n_trunc, "--alpha-sweep count x --n-trunc")
    parts = []
    discrepancies = []
    modes = np.arange(1, n_trunc + 1)
    for alpha in alphas:
        exp_ref = expand(reference_state(), alpha, n_trunc)
        exp_sh = expand(shifted_state(alpha), alpha, n_trunc)
        # both candidates have the same coefficient magnitudes, so the same deficit
        deficit = np.full(n_trunc, truncation_sums(alpha, n_trunc).deficit)
        # one batched quadrature per chamber, shared by the table and the sign check
        oracle = oracle_coefficients(alpha, n_trunc)
        closed = {kind: coefficient(kind, modes, alpha) for kind in COEFF_KINDS}
        normalized = (exp_ref.norm_coeffs_1, exp_ref.norm_coeffs_2,
                      exp_sh.norm_coeffs_1, exp_sh.norm_coeffs_2)
        parts.append({
            "alpha": np.full(n_trunc, alpha), "n": modes, **closed,
            **{f"norm_{kind}": col for kind, col in zip(COEFF_KINDS, normalized)},
            **{f"oracle_{kind}": oracle[kind] for kind in COEFF_KINDS},
            **{f"abs_diff_{kind}": np.abs(closed[kind] - oracle[kind]) for kind in COEFF_KINDS},
            "deficit_reference": deficit, "deficit_shifted": deficit,
        })
        discrepancies.extend(sign_discrepancies(alpha, n_trunc, oracle=oracle))
    if args.discrepancies is not None:
        with open(args.discrepancies, "w", newline="") as fh:
            log = Table([_records(CoeffDiscrepancy, discrepancies)])
            _write_csv(log.header, log, fh)
    elif discrepancies:
        print(f"note: {len(discrepancies)} oracle sign corrections recorded; "
              "pass --discrepancies PATH to write them", file=sys.stderr)
    return Table(parts)


# ---------------------------------------------------------------- energy

def run_energy(args: argparse.Namespace):
    nm_max = args.nm_max
    if nm_max < 1:
        raise ValueError("--nm-max must be >= 1")
    alphas = _alphas(args, nm_max**2, "--alpha-sweep count x --nm-max squared")
    both = args.variant == "both"
    variants = DELTA_E_VARIANTS if both else (args.variant,)
    idx = np.arange(1, nm_max + 1)
    # (n, m) flattened with n outer and m inner
    n, m = np.repeat(idx, nm_max), np.tile(idx, nm_max)
    parts = []
    for alpha in alphas:
        values = [delta_energy(idx[:, None], idx, alpha, variant=v).ravel() for v in variants]
        columns = {f"delta_e_{v}" if both else "delta_e": col
                   for v, col in zip(variants, values)}
        if both:
            columns["variant_difference"] = values[0] - values[1]
        parts.append({"alpha": np.full(nm_max**2, alpha), "n": n, "m": m, **columns})
    return Table(parts)


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
    alpha = alphas[0]
    state = reference_state() if args.candidate == "reference" else shifted_state(alpha)
    expansion = expand(state, alpha, args.n_trunc)
    parts = []
    for chamber in chambers:
        lo, hi = expansion.geometry.bounds(chamber)
        grid = np.linspace(lo, hi, args.grid_points)
        period = revival_period(expansion.geometry.width(chamber))
        for t in args.times or [f * period for f in fracs]:
            density = sample_density(evolve(expansion, chamber, t), grid)
            parts.append({"theta": grid, "density": density, "t": np.full(grid.size, t),
                          "chamber": np.full(grid.size, chamber)})
    return Table(parts)


# ---------------------------------------------------------------- parseval

def run_parseval(args: argparse.Namespace):
    count = len(args.n_trunc)
    alphas = _alphas(args, count, "--alpha-sweep count x --n-trunc count")
    # one part of alpha x truncation rows; both candidates have the same
    # coefficient magnitudes, so the same sums
    deficit, completeness, sum_rule = np.array([
        (s.deficit, s.completeness, s.sum_rule) for s in
        (truncation_sums(alpha, n_trunc) for alpha in alphas for n_trunc in args.n_trunc)]).T
    target = np.repeat([ring_overlap(reference_state(), shifted_state(alpha))
                        for alpha in alphas], count)
    return Table([{
        # np.tile makes an object array of ints beyond int64
        "alpha": np.repeat(alphas, count), "n_trunc": np.tile(args.n_trunc, len(alphas)),
        "deficit_reference": deficit, "deficit_shifted": deficit,
        "completeness_reference": completeness, "completeness_shifted": completeness,
        "sum_rule_overlap": sum_rule, "ring_overlap": target,
        "sum_rule_abs_error": np.abs(sum_rule - target),
    }])


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
    p_evolve.add_argument("--candidate", choices=CANDIDATE_CHOICES, default="reference",
                          help="which candidate to evolve (default reference)")
    p_evolve.add_argument("--chamber", choices=("1", "2", "both"), default="both",
                          help="chamber(s) to sample (default both)")
    p_evolve.add_argument("--grid-points", type=int, default=4096,
                          help="grid points per chamber (default 4096)")
    time_group = p_evolve.add_mutually_exclusive_group()
    time_group.add_argument("--time-fracs", type=_number_list(float), default=None,
                            help="comma list of times as fractions of the revival period "
                                 "(default 0,0.25,0.5,0.75,1)")
    time_group.add_argument("--times", type=_number_list(float), default=None,
                            help="comma list of absolute times")

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
            _emit(table.header, table, args)
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

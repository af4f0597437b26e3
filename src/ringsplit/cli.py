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
import csv
import json
import math
import os
import sys
from itertools import product

import numpy as np

from .discrimination import BarrierModel, post_insertion_cost
from .evolution import evolve, revival_period, sample_density
from .expansion import (COEFF_KINDS, DELTA_E_VARIANTS, delta_energy, expand,
                        oracle_coefficient, sign_discrepancies, truncation_sums)
from .quadrature import ConvergenceError
from .ring import reference_state, ring_overlap, shifted_state

ENV_CONFIG = "RINGSPLIT_CONFIG"

VARIANT_CHOICES = DELTA_E_VARIANTS + ("both",)
FORMAT_CHOICES = ("csv", "json")
CANDIDATE_CHOICES = ("reference", "shifted")


def _format_value(value) -> str:
    # rows hold str, int, float and np.float64 only
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g")


def _write_csv(header, rows, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_value(v) for v in row])


def _write_json(header, rows, stream) -> None:
    # np.float64 is a float subclass, so json writes it as float.__repr__ does
    records = [dict(zip(header, row)) for row in rows]
    json.dump(records, stream, indent=2)
    stream.write("\n")


def _emit(header, rows, args: argparse.Namespace) -> None:
    writer = _write_csv if args.format == "csv" else _write_json
    if args.out is None:
        writer(header, rows, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            writer(header, rows, fh)


def _parse_sweep(raw: str) -> tuple[float, ...]:
    try:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValueError(
            f"--alpha-sweep expects START:STOP:COUNT, got {raw!r}") from None
    if count < 1:
        raise ValueError("sweep count must be >= 1")
    if count == 1:
        return (start,)
    return tuple(np.linspace(start, stop, count).tolist())


def _alphas(args: argparse.Namespace) -> tuple[float, ...]:
    if args.alpha_sweep is not None:
        return _parse_sweep(args.alpha_sweep)
    return (math.pi / 4.0 if args.alpha is None else args.alpha,)


def _number_list(cast):
    """Argparse type for a comma-separated list of numbers."""
    def parse(raw: str) -> tuple:
        return tuple(cast(part) for part in raw.split(","))
    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        config = json.load(fh)
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
    return converted


def _apply_config(parser: argparse.ArgumentParser, flags: argparse.Namespace) -> None:
    """Make the config file's values the defaults of the chosen subcommand.

    Flags given on the command line still win. Keys of another subcommand's
    flags are skipped, so one config file can serve several subcommands; any
    other unknown key is an error.
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
    if flags.alpha is not None:
        # --alpha on the command line also beats a configured sweep
        defaults.pop("alpha_sweep", None)
    subparsers[flags.command].set_defaults(**defaults)


# ---------------------------------------------------------------- cost

COST_HEADER = [
    "alpha", "epsilon", "n_trunc", "prior",
    "overlap_before", "cost_before", "overlap_after", "cost_after",
    "deficit_reference", "deficit_shifted", "sum_rule_overlap", "note",
]


def run_cost(args: argparse.Namespace):
    bm = BarrierModel(args.epsilon)
    # each header name is a DiscriminationReport field
    reports = [post_insertion_cost(alpha, args.n_trunc, bm) for alpha in _alphas(args)]
    return COST_HEADER, [[getattr(r, key) for key in COST_HEADER] for r in reports]


# ---------------------------------------------------------------- coeffs

COEFF_HEADER = [
    "alpha", "n",
    "a", "b", "c", "d",
    "norm_a", "norm_b", "norm_c", "norm_d",
    "oracle_a", "oracle_b", "oracle_c", "oracle_d",
    "abs_diff_a", "abs_diff_b", "abs_diff_c", "abs_diff_d",
    "deficit_reference", "deficit_shifted",
]

DISCREPANCY_HEADER = ["kind", "n", "alpha", "uncorrected", "oracle", "adopted"]


def run_coeffs(args: argparse.Namespace):
    rows = []
    discrepancy_rows = []
    n_trunc = args.n_trunc
    modes = range(1, n_trunc + 1)
    for alpha in _alphas(args):
        exp_ref = expand(reference_state(), alpha, n_trunc)
        exp_sh = expand(shifted_state(alpha), alpha, n_trunc)
        # both candidates have the same coefficient magnitudes, so the same deficit
        deficit = truncation_sums(alpha, n_trunc).deficit
        # one quadrature per (kind, n), shared by the table and the sign check
        oracle = {kind: np.array([oracle_coefficient(kind, n, alpha) for n in modes])
                  for kind in COEFF_KINDS}
        closed = [exp_ref.coeffs_1, exp_ref.coeffs_2, exp_sh.coeffs_1, exp_sh.coeffs_2]
        normalized = [exp_ref.norm_coeffs_1, exp_ref.norm_coeffs_2,
                      exp_sh.norm_coeffs_1, exp_sh.norm_coeffs_2]
        exact = [oracle[kind] for kind in COEFF_KINDS]
        diffs = [np.abs(cv - ov) for cv, ov in zip(closed, exact)]
        columns = [col.tolist() for col in closed + normalized + exact + diffs]
        rows.extend([alpha, n, *values, deficit, deficit]
                    for n, *values in zip(modes, *columns))
        discrepancy_rows.extend([getattr(rec, key) for key in DISCREPANCY_HEADER]
                                for rec in sign_discrepancies(alpha, n_trunc, oracle=oracle))
    if args.discrepancies is not None:
        with open(args.discrepancies, "w", newline="") as fh:
            _write_csv(DISCREPANCY_HEADER, discrepancy_rows, fh)
    elif discrepancy_rows:
        print(f"note: {len(discrepancy_rows)} oracle sign corrections recorded; "
              "pass --discrepancies PATH to write them", file=sys.stderr)
    return COEFF_HEADER, rows


# ---------------------------------------------------------------- energy

def run_energy(args: argparse.Namespace):
    nm_max = args.nm_max
    if nm_max < 1:
        raise ValueError("--nm-max must be >= 1")
    both = args.variant == "both"
    header = ["alpha", "n", "m"] + (["delta_e_nominal", "delta_e_conserving",
                                     "variant_difference"] if both else ["delta_e"])
    idx = np.arange(1, nm_max + 1)
    rows = []
    for alpha in _alphas(args):
        # (n, m) grids flattened with n outer and m inner, the order of product()
        grids = (delta_energy(idx[:, None], idx, alpha, variant=v) for v in DELTA_E_VARIANTS)
        nominal, conserving = (grid.ravel().tolist() for grid in grids)
        pairs = product(range(1, nm_max + 1), repeat=2)
        if both:
            rows.extend([alpha, n, m, nom, con, nom - con]
                        for (n, m), nom, con in zip(pairs, nominal, conserving))
        else:
            chosen = nominal if args.variant == "nominal" else conserving
            rows.extend([alpha, n, m, value] for (n, m), value in zip(pairs, chosen))
    return header, rows


# ---------------------------------------------------------------- evolve

EVOLVE_HEADER = ["theta", "density", "t", "chamber"]


def run_evolve(args: argparse.Namespace):
    alphas = _alphas(args)
    if len(alphas) != 1:
        raise ValueError("evolve takes a single --alpha, not a sweep")
    if args.grid_points < 2:
        raise ValueError("--grid-points must be >= 2")
    alpha = alphas[0]
    state = reference_state() if args.candidate == "reference" else shifted_state(alpha)
    expansion = expand(state, alpha, args.n_trunc)
    chambers = (1, 2) if args.chamber == "both" else (int(args.chamber),)
    rows = []
    for chamber in chambers:
        lo, hi = expansion.geometry.bounds(chamber)
        grid = np.linspace(lo, hi, args.grid_points)
        period = revival_period(expansion.geometry.width(chamber))
        chamber_times = args.times if args.times is not None else \
            [f * period for f in args.time_fracs]
        for t in chamber_times:
            density = sample_density(evolve(expansion, chamber, t), grid)
            rows.extend([float(theta), float(rho), float(t), chamber]
                        for theta, rho in zip(grid, density))
    return EVOLVE_HEADER, rows


# ---------------------------------------------------------------- parseval

PARSEVAL_HEADER = [
    "alpha", "n_trunc",
    "deficit_reference", "deficit_shifted",
    "completeness_reference", "completeness_shifted",
    "sum_rule_overlap", "ring_overlap", "sum_rule_abs_error",
]


def run_parseval(args: argparse.Namespace):
    rows = []
    for alpha in _alphas(args):
        target = ring_overlap(reference_state(), shifted_state(alpha))
        for n_trunc in args.n_trunc:
            # both candidates have the same coefficient magnitudes, so the same sums
            sums = truncation_sums(alpha, n_trunc)
            rows.append([alpha, n_trunc, sums.deficit, sums.deficit,
                         sums.completeness, sums.completeness,
                         sums.sum_rule, target, abs(sums.sum_rule - target)])
    return PARSEVAL_HEADER, rows


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
    p_evolve.add_argument("--time-fracs", type=_number_list(float),
                          default="0,0.25,0.5,0.75,1",
                          help="comma list of times as fractions of the revival period "
                               "(default 0,0.25,0.5,0.75,1)")
    p_evolve.add_argument("--times", type=_number_list(float), default=None,
                          help="comma list of absolute times (overrides --time-fracs)")

    p_parseval = sub.add_parser("parseval", help="completeness deficits vs truncation")
    _add_common_flags(p_parseval, run_parseval)
    p_parseval.add_argument("--n-trunc", type=_number_list(int), default="100,1000,10000",
                            help="comma list of truncations (default 100,1000,10000)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    flags = parser.parse_args(argv)
    try:
        _apply_config(parser, flags)
        args = parser.parse_args(argv)
        header, rows = args.run(args)
        _emit(header, rows, args)
    except ConvergenceError as exc:
        print(f"ringsplit: quadrature failed to converge: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"ringsplit: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

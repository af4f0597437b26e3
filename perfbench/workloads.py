"""Seeded CLI workloads for the ringsplit benchmark, and their reference checks.

An operation is one ``ringsplit`` invocation. Its argv is a pure function of
(workload, seed, index, work directory): the program sees only the generated
flags. The work per operation does not depend on the seed; the seed moves the
barrier angle, sweep range, epsilon, candidate and time fraction.

Each check recomputes the expected table here and compares it with a
tolerance, never byte for byte, so a rewrite that moves values by a few ulp
(for example a DST evaluation of the snapshots) still passes. The expansion
coefficients come from the defining integral of PAPER.md, solved in closed
form below; nothing is imported from the program.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi

SWEEP_POINTS = 200
SWEEP_N = 20000
VERIFY_N = 100
SNAPSHOT_N = 1500
SNAPSHOT_GRID = 4096
TABLE_NM = 200

WORKLOADS = ("sweep", "verify", "snapshots", "tables")

#: Operations are run in whole cycles, so that every run holds the same mix of
#: CSV/JSON and epsilon = 0 / epsilon > 0 operations.
CYCLE = {"sweep": 4, "verify": 1, "snapshots": 1, "tables": 2}

COST_HEADER = [
    "alpha", "epsilon", "n_trunc", "prior",
    "overlap_before", "cost_before", "overlap_after", "cost_after",
    "deficit_reference", "deficit_shifted", "sum_rule_overlap", "note",
]
COEFF_HEADER = [
    "alpha", "n", "a", "b", "c", "d",
    "norm_a", "norm_b", "norm_c", "norm_d",
    "oracle_a", "oracle_b", "oracle_c", "oracle_d",
    "abs_diff_a", "abs_diff_b", "abs_diff_c", "abs_diff_d",
    "deficit_reference", "deficit_shifted",
]
DISCREPANCY_HEADER = ["kind", "n", "alpha", "uncorrected", "oracle", "adopted"]
EVOLVE_HEADER = ["theta", "density", "t", "chamber"]
ENERGY_HEADER = ["alpha", "n", "m", "delta_e_nominal", "delta_e_conserving",
                 "variant_difference"]


class CheckError(Exception):
    """An output table disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its check needs to know."""

    workload: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    params: dict = field(compare=False)


# ---------------------------------------------------------------- generation

def make_op(workload: str, seed: int, index: int, workdir: str) -> Op:
    """Operation ``index`` of a workload; the same arguments give the same Op."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    csv_first = index % 2 == 0
    if workload == "sweep":
        start = rng.uniform(0.05, 1.2)
        stop = rng.uniform(start + 0.2, HALF_PI)
        epsilon = 0.0 if (index // 2) % 2 == 0 else 1.0 - rng.random()
        fmt = "csv" if csv_first else "json"
        out = os.path.join(workdir, f"cost.{fmt}")
        argv = ("cost", "--alpha-sweep", f"{start!r}:{stop!r}:{SWEEP_POINTS}",
                "--n-trunc", str(SWEEP_N), "--epsilon", repr(epsilon),
                "--format", fmt, "--out", out)
        return Op(workload, argv, (out,),
                  dict(start=start, stop=stop, epsilon=epsilon, fmt=fmt))
    if workload == "verify":
        alpha = rng.uniform(0.05, HALF_PI)
        out = os.path.join(workdir, "coeffs.csv")
        log = os.path.join(workdir, "discrepancies.csv")
        argv = ("coeffs", "--alpha", repr(alpha), "--n-trunc", str(VERIFY_N),
                "--out", out, "--discrepancies", log)
        return Op(workload, argv, (out, log), dict(alpha=alpha))
    if workload == "snapshots":
        alpha = rng.uniform(0.05, HALF_PI)
        candidate = rng.choice(("reference", "shifted"))
        # 0 and 1 bracket a full revival period, which the check uses
        fracs = (0.0, rng.random(), 1.0)
        out = os.path.join(workdir, "snapshots.csv")
        argv = ("evolve", "--alpha", repr(alpha), "--n-trunc", str(SNAPSHOT_N),
                "--candidate", candidate, "--chamber", "both",
                "--grid-points", str(SNAPSHOT_GRID),
                "--time-fracs", ",".join(repr(f) for f in fracs), "--out", out)
        return Op(workload, argv, (out,),
                  dict(alpha=alpha, candidate=candidate, fracs=fracs))
    if workload == "tables":
        alpha = rng.uniform(0.05, HALF_PI)
        fmt = "csv" if csv_first else "json"
        out = os.path.join(workdir, f"energy.{fmt}")
        argv = ("energy", "--alpha", repr(alpha), "--nm-max", str(TABLE_NM),
                "--variant", "both", "--format", fmt, "--out", out)
        return Op(workload, argv, (out,), dict(alpha=alpha, fmt=fmt))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------- references

def bare_coefficients(n: np.ndarray, lo: float, width: float, offset: float) -> np.ndarray:
    """(1/pi) * integral over (lo, lo + width) of sin(theta - offset) * sin(k*(theta - lo)),
    k = n*pi/width, which is (sin(phi) - (-1)^n * sin(width + phi)) * k / (pi*(k^2 - 1))
    with phi = lo - offset."""
    k = n * math.pi / width
    phi = lo - offset
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    return (math.sin(phi) - sign * math.sin(width + phi)) * k / (math.pi * (k * k - 1.0))


def chamber(kind: str, alpha: float) -> tuple[float, float, float]:
    """(lo, width, candidate offset) of a coefficient kind: a/b are the reference
    candidate in chambers 1/2, c/d the shifted one."""
    lo, width = (0.0, alpha) if kind in "ac" else (alpha, TWO_PI - alpha)
    return lo, width, (0.0 if kind in "ab" else alpha)


def coefficients(kind: str, alpha: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Bare and orthonormal-mode coefficients for modes 1..n_max."""
    lo, width, offset = chamber(kind, alpha)
    bare = bare_coefficients(np.arange(1, n_max + 1), lo, width, offset)
    return bare, math.sqrt(TWO_PI / width) * bare


def helstrom(overlap_sq):
    return 0.5 - 0.5 * np.sqrt(1.0 - overlap_sq)


# ---------------------------------------------------------------- reading

def read_table(path: str, fmt: str) -> tuple[list[str], dict[str, list]]:
    """Header and columns of a CSV or JSON table written by the CLI."""
    if fmt == "csv":
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        if not lines:
            raise CheckError(f"{path}: empty file")
        header, rows = lines[0], lines[1:]
        if any(len(row) != len(header) for row in rows):
            raise CheckError(f"{path}: ragged row")
    else:
        with open(path) as fh:
            records = json.load(fh)
        if not records:
            raise CheckError(f"{path}: empty table")
        header = list(records[0])
        if any(list(rec) != header for rec in records):
            raise CheckError(f"{path}: record keys differ")
        rows = [[rec[key] for key in header] for rec in records]
    return header, {key: [row[i] for row in rows] for i, key in enumerate(header)}


def numeric(columns: dict, key: str) -> np.ndarray:
    return np.asarray(columns[key], dtype=float)


def expect_header(path, header, expected):
    if header != expected:
        raise CheckError(f"{path}: header {header} != {expected}")


def expect_rows(path, columns, count):
    got = len(next(iter(columns.values())))
    if got != count:
        raise CheckError(f"{path}: {got} rows, expected {count}")


def expect_close(what, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - want), initial=0.0))
    if not err <= tol:
        raise CheckError(f"{what}: max |error| {err:.3g} > {tol:g}")


def expect(condition, what):
    if not condition:
        raise CheckError(what)


# ---------------------------------------------------------------- checks

def check(op: Op) -> tuple[int, int]:
    """Raise CheckError unless every output matches its reference.

    Returns (rows written, bytes written) over all output files.
    """
    rows = {"sweep": _check_sweep, "verify": _check_verify,
            "snapshots": _check_snapshots, "tables": _check_tables}[op.workload](op)
    return rows, sum(os.path.getsize(path) for path in op.outputs)


def _check_sweep(op: Op) -> int:
    p = op.params
    path = op.outputs[0]
    header, cols = read_table(path, p["fmt"])
    expect_header(path, header, COST_HEADER)
    expect_rows(path, cols, SWEEP_POINTS)
    alphas = np.linspace(p["start"], p["stop"], SWEEP_POINTS)
    eps = p["epsilon"]
    expect_close("alpha", numeric(cols, "alpha"), alphas, 1e-14)
    expect_close("epsilon", numeric(cols, "epsilon"), eps, 0.0)
    expect_close("n_trunc", numeric(cols, "n_trunc"), SWEEP_N, 0.0)
    expect_close("prior", numeric(cols, "prior"), 0.5, 0.0)
    expect(all((note == "") == (eps == 0.0) for note in cols["note"]),
           "note must be empty exactly when epsilon = 0")

    want = {key: np.empty(SWEEP_POINTS) for key in
            ("deficit_reference", "deficit_shifted", "sum_rule_overlap", "tensor")}
    for i, alpha in enumerate(alphas):
        a, b, c, d = (coefficients(kind, alpha, SWEEP_N)[1] for kind in "abcd")
        aa, bb, cc, dd = a @ a, b @ b, c @ c, d @ d
        want["deficit_reference"][i] = 1.0 - (aa + bb)
        want["deficit_shifted"][i] = 1.0 - (cc + dd)
        want["sum_rule_overlap"][i] = a @ c + b @ d
        want["tensor"][i] = (a @ c) / math.sqrt(aa * cc) * (b @ d) / math.sqrt(bb * dd)
    for key in ("deficit_reference", "deficit_shifted", "sum_rule_overlap"):
        expect_close(key, numeric(cols, key), want[key], 1e-12)

    expect_close("overlap_before", numeric(cols, "overlap_before"), np.cos(alphas) ** 2, 1e-12)
    cost_before = numeric(cols, "cost_before")
    expect_close("cost_before", cost_before, 0.5 - 0.5 * np.sin(alphas), 1e-12)
    sum_rule = numeric(cols, "sum_rule_overlap")
    tail = np.sqrt(want["deficit_reference"] * want["deficit_shifted"])
    expect(np.all(np.abs(sum_rule - np.cos(alphas)) <= tail + 1e-12),
           "sum_rule_overlap differs from cos(alpha) by more than the truncation tail")

    overlap_after = numeric(cols, "overlap_after")
    cost_after = numeric(cols, "cost_after")
    expect(np.all(cost_after >= 0.0), "cost_after < 0")
    if eps == 0.0:
        expect(np.all(overlap_after == 0.0) and np.all(cost_after == 0.0),
               "overlap_after and cost_after must be exactly 0 at epsilon = 0")
        expect(np.all(cost_after <= cost_before), "cost_after > cost_before")
    else:
        # The literal two-chamber tensor model does not keep cost_after below
        # cost_before for every epsilon > 0 (see the note column), so these
        # rows are checked against the model itself.
        want_overlap = (eps * eps * want["tensor"]) ** 2
        expect_close("overlap_after", overlap_after, want_overlap, 1e-12)
        expect_close("cost_after", cost_after, helstrom(want_overlap), 1e-12)
    return SWEEP_POINTS


def _check_verify(op: Op) -> int:
    alpha = op.params["alpha"]
    path, log = op.outputs
    header, cols = read_table(path, "csv")
    expect_header(path, header, COEFF_HEADER)
    expect_rows(path, cols, VERIFY_N)
    expect_close("alpha", numeric(cols, "alpha"), alpha, 0.0)
    expect_close("n", numeric(cols, "n"), np.arange(1, VERIFY_N + 1), 0.0)
    norm_sq = {}
    for kind in "abcd":
        bare, norm = coefficients(kind, alpha, VERIFY_N)
        norm_sq[kind] = norm @ norm
        got = numeric(cols, kind)
        oracle = numeric(cols, f"oracle_{kind}")
        expect_close(kind, got, bare, 1e-13)
        expect_close(f"norm_{kind}", numeric(cols, f"norm_{kind}"), norm, 1e-13)
        expect_close(f"oracle_{kind}", oracle, bare, 1e-10)
        abs_diff = numeric(cols, f"abs_diff_{kind}")
        expect(np.all(abs_diff <= 1e-10), f"abs_diff_{kind} > 1e-10")
        expect_close(f"abs_diff_{kind}", abs_diff, np.abs(got - oracle), 1e-15)
    expect_close("deficit_reference", numeric(cols, "deficit_reference"),
                 1.0 - (norm_sq["a"] + norm_sq["b"]), 1e-12)
    expect_close("deficit_shifted", numeric(cols, "deficit_shifted"),
                 1.0 - (norm_sq["c"] + norm_sq["d"]), 1e-12)

    header, cols = read_table(log, "csv")
    expect_header(log, header, DISCREPANCY_HEADER)
    expect_rows(log, cols, VERIFY_N)
    expect(all(kind == "d" for kind in cols["kind"]), "discrepancy of a kind other than d")
    expect_close("discrepancy n", numeric(cols, "n"), np.arange(1, VERIFY_N + 1), 0.0)
    expect_close("discrepancy alpha", numeric(cols, "alpha"), alpha, 0.0)
    d = coefficients("d", alpha, VERIFY_N)[0]
    expect_close("adopted", numeric(cols, "adopted"), d, 1e-13)
    expect_close("uncorrected", numeric(cols, "uncorrected"), -d, 1e-13)
    expect_close("discrepancy oracle", numeric(cols, "oracle"), d, 1e-10)
    return 2 * VERIFY_N


def _check_snapshots(op: Op) -> int:
    p = op.params
    alpha = p["alpha"]
    path = op.outputs[0]
    header, cols = read_table(path, "csv")
    expect_header(path, header, EVOLVE_HEADER)
    n_frac = len(p["fracs"])
    expect_rows(path, cols, 2 * n_frac * SNAPSHOT_GRID)
    shape = (2, n_frac, SNAPSHOT_GRID)
    theta = numeric(cols, "theta").reshape(shape)
    density = numeric(cols, "density").reshape(shape)
    times = numeric(cols, "t").reshape(shape)
    chambers = numeric(cols, "chamber").reshape(shape)
    kinds = "ab" if p["candidate"] == "reference" else "cd"
    for c, kind in enumerate(kinds):
        lo, width, _ = chamber(kind, alpha)
        norm = coefficients(kind, alpha, SNAPSHOT_N)[1]
        retained = norm @ norm
        period = 4.0 * width * width / math.pi
        expect_close(f"chamber {c + 1} label", chambers[c], c + 1, 0.0)
        expect_close(f"chamber {c + 1} grid", theta[c], np.linspace(lo, lo + width, SNAPSHOT_GRID)[None, :], 1e-13)
        expect_close(f"chamber {c + 1} times", times[c] / period,
                     np.asarray(p["fracs"])[:, None], 1e-13)
        rho = density[c]
        expect(np.all(rho >= 0.0), "negative density")
        integral = 0.5 * np.sum((rho[:, 1:] + rho[:, :-1]) * np.diff(theta[c], axis=1), axis=1)
        expect_close(f"chamber {c + 1} trapezoid integral vs retained norm^2",
                     integral, retained, 1e-10)
        expect_close(f"chamber {c + 1} revival (frac 1 vs frac 0)", rho[-1], rho[0],
                     1e-12 * max(1.0, float(np.max(rho[0]))))
    return 2 * n_frac * SNAPSHOT_GRID


def _check_tables(op: Op) -> int:
    alpha = op.params["alpha"]
    path = op.outputs[0]
    header, cols = read_table(path, op.params["fmt"])
    expect_header(path, header, ENERGY_HEADER)
    expect_rows(path, cols, TABLE_NM * TABLE_NM)
    idx = np.arange(1, TABLE_NM + 1, dtype=float)
    n = np.repeat(idx, TABLE_NM)
    m = np.tile(idx, TABLE_NM)
    expect_close("alpha", numeric(cols, "alpha"), alpha, 0.0)
    expect_close("n", numeric(cols, "n"), n, 0.0)
    expect_close("m", numeric(cols, "m"), m, 0.0)
    # hbar = M = 1: chamber levels pi^2 n^2 / (2 w^2), minus the constant of each variant
    levels = 0.5 * math.pi ** 2 * (n * n / alpha ** 2 + m * m / (TWO_PI - alpha) ** 2)
    nominal = numeric(cols, "delta_e_nominal")
    conserving = numeric(cols, "delta_e_conserving")
    expect_close("delta_e_nominal / reference", nominal / (levels - 0.125), 1.0, 1e-13)
    expect_close("delta_e_conserving / reference", conserving / (levels - 0.5), 1.0, 1e-13)
    expect(np.all(nominal > 0.0) and np.all(conserving > 0.0), "non-positive energy transfer")
    expect(np.all(np.abs(numeric(cols, "variant_difference") - 0.375)
                  <= 1e-15 * (1.0 + np.abs(nominal))),
           "variant_difference != 3/8")
    return TABLE_NM * TABLE_NM

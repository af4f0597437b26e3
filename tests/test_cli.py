import csv
import dataclasses
import gc
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ringsplit
from ringsplit import cli
from ringsplit.cli import main
from ringsplit.discrimination import (NOTE_TENSOR_MODEL, BarrierModel, DiscriminationReport,
                                      post_insertion_cost)
from ringsplit.evolution import revival_period
from ringsplit.expansion import COEFF_KINDS, ChamberGeometry, truncation_sums
from table_checks import exact_sums

PI4 = repr(math.pi / 4)
#: largest |oracle - closed form| of a printed coeffs value (the FFT oracle
#: meets 4.4e-16 from N = 12 to COEFFS_N_LIMIT)
ORACLE_ABS_BOUND = 2e-15


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def read_csv_text(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def read_csv_file(path):
    return read_csv_text(path.read_text())


def col(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows]


# ---------------------------------------------------------------- cost

def test_cost_single_alpha_ideal_barriers(capsys):
    code, out, err = run_cli(
        ["cost", "--alpha", PI4, "--epsilon", "0", "--n-trunc", "300"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert len(rows) == 1
    assert abs(col(header, rows, "cost_before")[0] - 0.14644660940672627) < 1e-9
    assert col(header, rows, "cost_after")[0] == 0.0
    assert col(header, rows, "overlap_after")[0] == 0.0
    assert col(header, rows, "prior")[0] == 0.5


def test_cost_sweep_monotone_and_ordered(capsys):
    code, out, _ = run_cli(
        ["cost", "--alpha-sweep", "0.15:1.5:7", "--n-trunc", "80"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    alphas = col(header, rows, "alpha")
    assert alphas == sorted(alphas) and len(alphas) == 7
    costs = col(header, rows, "cost_before")
    assert all(c1 > c2 for c1, c2 in zip(costs, costs[1:]))


def test_cost_epsilon_column_strictly_between(capsys):
    after = {}
    for eps in ("0", "0.5", "1"):
        code, out, _ = run_cli(
            ["cost", "--alpha", PI4, "--epsilon", eps, "--n-trunc", "150"], capsys)
        assert code == 0
        header, rows = read_csv_text(out)
        after[eps] = col(header, rows, "cost_after")[0]
    assert after["0"] < after["0.5"] < after["1"]


def test_cost_deterministic_output(tmp_path, capsys):
    args = ["cost", "--alpha-sweep", "0.2:1.2:4", "--n-trunc", "120",
            "--epsilon", "0.3"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def traced_peak(argv) -> int:
    """The tracemalloc peak, in bytes, of an in-process run that exits 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_str_column_is_not_copied_into_an_array(fmt, tmp_path, monkeypatch):
    # at eps > 0 every row carries the same long note; the note column must
    # share that one string, and JSON must quote it a block at a time, so the
    # run's peak does not grow with its length
    peaks, notes = {}, {}
    # one report of columns as long as the sweep, all at one alpha
    monkeypatch.setattr(cli, "post_insertion_cost", lambda alphas, n_trunc, bm:
                        post_insertion_cost(np.full(len(alphas), 0.7), n_trunc, bm))
    for eps in ("0", "0.5"):
        notes[eps] = post_insertion_cost(0.7, 1000, BarrierModel(float(eps))).note
        peaks[eps] = traced_peak(["cost", "--alpha-sweep", "0.1:1.5:20000", "--epsilon", eps,
                                  "--format", fmt, "--out", str(tmp_path / f"cost.{fmt}")])
    assert notes["0"] == "" and len(notes["0.5"]) > 100
    assert abs(peaks["0.5"] - peaks["0"]) < 2**20


def test_cost_sweep_computes_one_report_of_columns(tmp_path, monkeypatch):
    # one report of columns per block of BLOCK_ROWS alphas, not one per alpha,
    # after one of the sweep's two ends where there are several blocks
    calls = []

    def counted(alphas, *args):
        calls.append(len(alphas))
        return post_insertion_cost(alphas, *args)

    monkeypatch.setattr(cli, "post_insertion_cost", counted)
    for count, blocks in ((50, [50]), (2 * cli.BLOCK_ROWS + 5, [2, *[cli.BLOCK_ROWS] * 2, 5])):
        calls.clear()
        assert main(["cost", "--alpha-sweep", f"0.1:1.5:{count}",
                     "--out", str(tmp_path / "cost.csv")]) == 0
        assert calls == blocks


def test_cost_sweep_peak_stays_below_a_report_per_alpha(tmp_path):
    # the columns and their transients take about 0.2 KB per alpha; holding a
    # DiscriminationReport per alpha until the columns were built took 0.49 KB
    peak = traced_peak(["cost", "--alpha-sweep", "0.01:1.5:20000", "--epsilon", "0.5",
                        "--out", str(tmp_path / "cost.csv")])
    assert peak < 20_000 * 300


def test_cost_sweep_peak_is_about_one_block(tmp_path):
    # each block, and the mapping it is sliced from, is let go before the next
    # is computed, so a 20 000-alpha sweep peaks near one block of 4096 alphas
    # (about 1.6 MB traced); one block more held beside it reads about 1.9x
    peaks = [traced_peak(["cost", "--alpha-sweep", f"0.01:1.5:{count}", "--epsilon", "0.5",
                          "--out", str(tmp_path / "cost.csv")])
             for count in (cli.BLOCK_ROWS, 20_000)]
    assert peaks[1] <= 1.6 * peaks[0]


def test_cost_and_parseval_tables_build_no_ring_state(tmp_path, monkeypatch):
    # the overlap cos(alpha) and sin(alpha) of every row come from libm
    # directly, not from a RingState per alpha
    def refuse(offset):
        raise AssertionError("a RingState was built on a table path")

    monkeypatch.setattr(ringsplit.ring, "ring_state", refuse)
    for argv in (["cost", "--alpha-sweep", "1e-100:1.5707963267948966:5000", "--epsilon", "0.5"],
                 ["parseval", "--alpha-sweep", "0.01:1.5:3000", "--n-trunc", "10,1000"]):
        assert main([*argv, "--out", str(tmp_path / "table.csv")]) == 0, argv


def test_parts_are_not_joined_into_a_second_table(tmp_path, monkeypatch):
    # 400 000 energy rows, computed as they are written in blocks of 4000: the
    # run's peak stays within a few blocks' bytes, where holding every part
    # (13.7 MB traced) or a joined copy of every column would not
    block_bytes = []
    blocks = cli.Table.blocks

    def measured(table):
        for block in blocks(table):
            block_bytes.append(sum(col.nbytes for col in block))
            yield block

    monkeypatch.setattr(cli.Table, "blocks", measured)
    peak = traced_peak(["energy", "--alpha-sweep", "0.3:1.5:10", "--nm-max", "200",
                        "--out", str(tmp_path / "energy.csv")])
    assert len(block_bytes) == 100 and sum(block_bytes) > 12 * 2**20
    assert peak < 8 * max(block_bytes)


def test_energy_peak_is_flat_in_nm_max(tmp_path):
    # 160 000 rows of one alpha: its 40 (alpha, n) pairs of 400 rows each are
    # computed a block at a time (all held before the first byte: 8.2 MB)
    peak = traced_peak(["energy", "--alpha", "0.9", "--nm-max", "400",
                        "--out", str(tmp_path / "energy.csv")])
    assert peak < 2 * 2**20


def _load_by_path(*parts):
    """A script of the checkout, imported by path (tools/ and perfbench/ are
    not packages)."""
    path = Path(__file__).resolve().parent.parent.joinpath(*parts)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def digest_runs(tmp_path_factory):
    """Every run of tools/cli_digests.py, once per format, in-process and
    once per test session: (argv, the files it wrote), in the tool's order.
    The tests that read them only read them."""
    tool = _load_by_path("tools", "cli_digests.py")
    runs = []
    with pytest.MonkeyPatch.context() as m:
        m.delenv("RINGSPLIT_CONFIG", raising=False)
        for argv, files in tool.invocations(tmp_path_factory.mktemp("digests")):
            assert main(argv) == 0, argv
            runs.append((argv, files))
    return runs


def test_tables_match_checked_in_digests(digest_runs):
    # a change that moves the bytes on purpose regenerates tools/cli_digests.sha256
    tool = _load_by_path("tools", "cli_digests.py")
    lines = [tool.digest_line(path) for _, files in digest_runs for path in files]
    manifest = Path(tool.__file__).with_name("cli_digests.sha256")
    assert lines == manifest.read_text().splitlines()


def test_cost_parseval_and_energy_tables_call_no_numpy_transcendental(tmp_path, capsys,
                                                                       monkeypatch):
    # every cost, parseval and energy run of tools/cli_digests.py, in-process,
    # with numpy's transcendental functions refused: the tables come from IEEE
    # arithmetic in numpy and math's sin and cos per alpha, and the writer
    # seeds each float's decimal exponent from np.frexp's exact binary one, so
    # their bytes should not depend on the numpy build or its SIMD level
    tool = _load_by_path("tools", "cli_digests.py")
    monkeypatch.delenv("RINGSPLIT_CONFIG", raising=False)
    manifest = set(Path(tool.__file__).with_name("cli_digests.sha256").read_text().splitlines())

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy transcendental function was called")

    for name in ("sin", "cos", "tan", "exp", "log", "log10", "log2", "power"):
        monkeypatch.setattr(np, name, refuse)
    commands = ("cost", "parseval", "energy")
    runs = 0
    for argv, (path, *_) in tool.invocations(tmp_path):
        if argv[0] in commands:
            assert main(argv) == 0, argv
            assert tool.digest_line(path) in manifest, argv
            runs += 1
    capsys.readouterr()
    assert runs == 2 * sum(argv[0] in commands for argv in tool.RUNS.values())


def _printed_rows(path):
    """The rows of a table the CLI wrote as CSV or JSON, as dicts of column
    name to cell: its text in CSV, its JSON value in JSON."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    return json.loads(path.read_text())


def _printed_values(path):
    """The rows of a table the CLI wrote as CSV or JSON, as dicts of column
    name to float; the note column is left out."""
    return [{name: float(value) for name, value in row.items() if name != "note"}
            for row in _printed_rows(path)]


def test_printed_cost_and_parseval_columns_obey_exact_identities(digest_runs):
    # every cost and parseval run of tools/cli_digests.py, checked against
    # identities and not against the manifest, so a regenerated manifest
    # cannot pass them
    tables = {"cost": 0, "parseval": 0}
    ideal_rows = 0
    for argv, (path, *_) in digest_runs:
        if argv[0] not in tables:
            continue
        rows = _printed_values(path)
        assert rows, argv
        tables[argv[0]] += 1
        for v in rows:
            alpha = v["alpha"]
            if argv[0] == "parseval":
                assert v["sum_rule_abs_error"] == abs(v["sum_rule_overlap"] - v["ring_overlap"])
                assert v["deficit_reference"] == v["deficit_shifted"]
                assert v["completeness_reference"] == v["completeness_shifted"]
                assert abs(v["deficit_reference"] + v["completeness_reference"] - 1.0) \
                    <= 8 * math.ulp(1.0)
                assert v["ring_overlap"] == math.cos(alpha)
                continue
            assert v["cost_before"] == 0.5 - 0.5 * math.sin(alpha)
            assert v["overlap_before"] == min(1.0, math.cos(alpha) * math.cos(alpha))
            assert v["cost_after"] == 0.5 - 0.5 * math.sqrt(1.0 - v["overlap_after"])
            if v["epsilon"] == 0.0:
                assert v["overlap_after"] == v["cost_after"] == 0.0
                ideal_rows += 1
    assert all(tables.values()) and ideal_rows


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def test_printed_coeffs_energy_sign_log_and_note_columns_obey_exact_identities(digest_runs):
    # every coeffs, energy and cost run of tools/cli_digests.py, and the sign
    # logs of the coeffs runs, checked against identities and not against the
    # manifest, so a regenerated manifest cannot pass them
    checked = dict.fromkeys(("coeffs", "energy", "cost", "sign log", "variants"), 0)
    for argv, (path, *log) in digest_runs:
        if argv[0] not in ("coeffs", "energy", "cost"):
            continue
        checked[argv[0]] += 1
        if argv[0] == "cost":
            for row in _printed_rows(path):
                assert row["note"] == ("" if float(row["epsilon"]) == 0.0 else NOTE_TENSOR_MODEL)
            continue
        rows = _printed_values(path)
        assert rows, argv
        if argv[0] == "energy":
            nm_max = int(_flag(argv, "--nm-max"))
            modes = [(n, m) for n in range(1, nm_max + 1) for m in range(1, nm_max + 1)]
            assert len(rows) % len(modes) == 0
            for start in range(0, len(rows), len(modes)):
                group = rows[start:start + len(modes)]
                assert len({v["alpha"] for v in group}) == 1
                assert [(v["n"], v["m"]) for v in group] == modes
            for v in rows if "variant_difference" in rows[0] else ():
                nominal = v["delta_e_nominal"]
                assert v["variant_difference"] == nominal - v["delta_e_conserving"]
                assert abs(v["variant_difference"] - 0.375) <= 1e-12 * max(1.0, abs(nominal))
                checked["variants"] += 1
            continue
        n_trunc = int(_flag(argv, "--n-trunc"))
        for v in rows:
            sign = (-1) ** int(v["n"])
            assert (v["c"], v["d"]) == (sign * v["a"], sign * v["b"])
            for kind in COEFF_KINDS:
                assert v[f"abs_diff_{kind}"] == abs(v[kind] - v[f"oracle_{kind}"])
                assert abs(v[f"oracle_{kind}"] - v[kind]) <= ORACLE_ABS_BOUND
            assert v["deficit_reference"] == v["deficit_shifted"] \
                == truncation_sums(v["alpha"], n_trunc).deficit
        by_mode = {(v["alpha"], v["n"]): v for v in rows}
        for record in _printed_rows(log[0]):
            v = by_mode[float(record["alpha"]), float(record["n"])]
            assert record["kind"] == "d"
            assert (float(record["adopted"]), float(record["oracle"]),
                    float(record["uncorrected"])) == (v["d"], v["oracle_d"], -v["d"])
            checked["sign log"] += 1
    assert all(checked.values()), checked


def test_printed_evolve_columns_obey_exact_identities(digest_runs):
    # every evolve run of tools/cli_digests.py, checked against the exact
    # revival, the mirror at half the revival period and the kept chamber
    # weight, and not against the manifest
    checked = dict.fromkeys(("runs", "revival", "mirror", "weight"), 0)
    for argv, (path, *_) in digest_runs:
        if argv[0] != "evolve":
            continue
        checked["runs"] += 1
        args = cli.build_parser().parse_args(argv)
        rows = _printed_values(path)
        assert rows and min(v["density"] for v in rows) >= 0.0, argv
        g, fracs = args.grid_points, args.time_fracs or ()
        sums = truncation_sums(args.alpha, args.n_trunc)
        # the snapshots of each chamber, in time order, each g rows long
        snapshots = {}
        for start in range(0, len(rows), g):
            rows_at = rows[start:start + g]
            assert len({(v["chamber"], v["t"]) for v in rows_at}) == 1
            snapshots.setdefault(int(rows_at[0]["chamber"]), []).append(
                [v["density"] for v in rows_at])
        for chamber, densities in snapshots.items():
            at = dict(zip(fracs, densities))
            if fracs and fracs[-1] == 1.0 and 0.0 in at:
                assert densities[-1] == at[0.0], (argv, chamber)  # the revival is exact
                checked["revival"] += 1
            if 0.5 in at and 0.0 in at:
                # psi(x, T/2) = -psi(w - x, 0) in the chamber's own coordinate
                bound = 1e-14 * max(at[0.0])
                assert all(abs(half - zero) <= bound
                           for half, zero in zip(at[0.5], reversed(at[0.0]))), (argv, chamber)
                checked["mirror"] += 1
            if g - 1 > args.n_trunc:
                # discrete sine orthogonality makes the trapezoid rule exact here
                weight = (sums.weight_1, sums.weight_2)[chamber - 1]
                h = ChamberGeometry(args.alpha).width(chamber) / (g - 1)
                for density in densities:
                    integral = h * (math.fsum(density) - (density[0] + density[-1]) / 2)
                    assert abs(integral - weight) <= 4e-15 * weight, (argv, chamber)
                    checked["weight"] += 1
    assert all(checked.values()), checked


def _evenly_spaced(values, count):
    """At most ``count`` of ``values``, evenly spaced, both ends included."""
    if len(values) <= count:
        return list(values)
    return [values[round(i * (len(values) - 1) / (count - 1))] for i in range(count)]


def test_printed_sums_and_energies_match_mpmath(digest_runs):
    # the deficits, completeness sums, sum rules and overlap_after of every
    # cost, coeffs and parseval run of tools/cli_digests.py (at most 24 alphas
    # a run), and every delta_e of every energy run, against mpmath
    mp = pytest.importorskip("mpmath")
    sums, levels = {}, {}  # shared by the CSV and JSON runs
    checked = dict.fromkeys(("cost", "coeffs", "parseval", "energy"), 0)

    def near(cell, exact, rel):
        # the printed float itself, which mpmath holds exactly
        return abs(float(cell) - exact) <= rel * abs(exact)

    with mp.workdps(40):
        for argv, (path, *_) in digest_runs:
            if argv[0] not in checked:
                continue
            args = cli.build_parser().parse_args(argv)
            rows = _printed_rows(path)
            assert rows, argv
            if argv[0] == "energy":
                offsets = {"nominal": mp.mpf(1) / 8, "conserving": mp.mpf(1) / 2}
                names = ({f"delta_e_{v}": v for v in offsets} if args.variant == "both"
                         else {"delta_e": args.variant})
                for row in rows:
                    key = float(row["alpha"]), int(row["n"]), int(row["m"])
                    if key not in levels:
                        a, n, m = mp.mpf(key[0]), key[1], key[2]
                        levels[key] = mp.pi**2 / 2 * (n * n / a**2 + m * m / (2 * mp.pi - a)**2)
                    for name, variant in names.items():
                        assert near(row[name], levels[key] - offsets[variant], 1e-15), (argv, key)
                    checked["energy"] += 1
                continue
            alphas = list(dict.fromkeys(float(row["alpha"]) for row in rows))
            chosen = set(_evenly_spaced(alphas, 24))
            for row in rows:
                alpha = float(row["alpha"])
                if alpha not in chosen:
                    continue
                n_trunc = int(row["n_trunc"]) if argv[0] == "parseval" else args.n_trunc
                if (alpha, n_trunc) not in sums:
                    sums[alpha, n_trunc] = exact_sums(mp, alpha, n_trunc)
                exact = sums[alpha, n_trunc]
                where = argv, alpha, n_trunc
                for name in [name for name in row if name.startswith("deficit_")]:
                    assert near(row[name], exact["deficit"], 1e-15), (where, name)
                for name in [name for name in row if name.startswith("completeness_")]:
                    assert near(row[name], exact["completeness"], 1e-15), (where, name)
                if "sum_rule_overlap" in row:
                    assert abs(float(row["sum_rule_overlap"]) - exact["sum_rule"]) <= 1e-15, where
                if argv[0] == "cost":
                    overlap_after = (mp.mpf(float(row["epsilon"]))**2 * exact["tensor"])**2
                    assert near(row["overlap_after"], overlap_after, 5e-15), where
                checked[argv[0]] += 1
    assert all(checked.values()), checked


def test_digest_tool_exits_1_when_a_run_fails(monkeypatch, capsys):
    tool = _load_by_path("tools", "cli_digests.py")
    monkeypatch.setattr(tool, "RUNS", {"bad": ["cost", "--alpha", "3.0"]})
    assert tool.main() == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bad.csv: exit 2\nringsplit: ")


def subprocess_env():
    """The environment for a child that imports this checkout's ringsplit."""
    src = str(Path(ringsplit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("RINGSPLIT_CONFIG", None)
    return env


def test_benchmark_patch_points_exist():
    # perfbench/spans.py replaces these names by string to trace a run; each
    # must stay a callable attribute of its module, imported there or not
    spans = _load_by_path("perfbench", "spans.py")
    pairs = [span[:2] for span in spans.SPANS] + list(spans.RING_CALLS)
    assert pairs
    missing = [(module, name) for module, name in pairs
               if not callable(getattr(importlib.import_module(f"ringsplit.{module}"),
                                       name, None))]
    assert missing == []


def test_cli_import_leaves_out_process_pool():
    env = subprocess_env()
    probe = "import sys, ringsplit.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def _probe(code: str, env=None) -> str:
    """The stdout of ``code`` run by a fresh interpreter, which must succeed."""
    result = subprocess.run([sys.executable, "-c", code], env=env or subprocess_env(),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    return result.stdout


def test_csv_run_leaves_out_json(tmp_path):
    # only the JSON writer and the config file need json
    argv = ["cost", "--n-trunc", "10", "--out", str(tmp_path / "cost.csv")]
    assert _probe("import sys, ringsplit.cli\n"
                  "print('json' in sys.modules)\n"
                  f"assert ringsplit.cli.main({argv!r}) == 0\n"
                  "print('json' in sys.modules)\n") == "False\nFalse\n"


@pytest.mark.parametrize("code, expected", [
    ("import sys, ringsplit\n"
     "print('numpy' in sys.modules, set(ringsplit.__all__) <= set(dir(ringsplit)))\n"
     "print('numpy' in sys.modules)", "False True\nFalse\n"),
    # the first lookup goes through the package's __getattr__, the second does not
    ("import sys, ringsplit\n"
     "assert ringsplit.__all__ == sorted(set(ringsplit.__all__))\n"
     "for name in ringsplit.__all__:\n"
     "    value = getattr(ringsplit, name)\n"
     "    assert value.__module__.startswith('ringsplit.'), name\n"
     "    assert value is getattr(sys.modules[value.__module__], name), name\n"
     "    assert getattr(ringsplit, name) is value, name\n"
     "print(len(ringsplit.__all__))", "34\n"),
    ("from ringsplit import *\n"
     "import ringsplit\n"
     "print([name for name in ringsplit.__all__\n"
     "       if globals().get(name) is not getattr(ringsplit, name)])", "[]\n"),
    ("import sys, ringsplit\n"
     "print(ringsplit.expansion is sys.modules['ringsplit.expansion'],"
     " ringsplit.ring.ring_overlap is ringsplit.ring_overlap)", "True True\n"),
    ("import ringsplit\n"
     "try:\n"
     "    ringsplit.no_such_name\n"
     "except AttributeError as exc:\n"
     "    print(exc)\n"
     "print(hasattr(ringsplit, 'cli'))",
     "module 'ringsplit' has no attribute 'no_such_name'\nFalse\n"),
], ids=["no-numpy", "names-of-their-modules", "star-import", "submodules", "unknown-name"])
def test_package_exports_load_on_first_use(code, expected):
    assert _probe(code) == expected


def _script_entry() -> str:
    """``module:function`` of the ``ringsplit`` console script in pyproject.toml."""
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    return re.search(r'^ringsplit = "(.+)"$', pyproject.read_text(), re.M).group(1)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the process's threads in /proc/self/task")
@pytest.mark.parametrize("entry", ["runpy", "script", "library"])
@pytest.mark.parametrize("preset", [None, "2"])
def test_program_mode_runs_one_blas_thread(entry, preset, tmp_path):
    # at exit: the variable as the run left it, and the process's OS threads
    argv = ["cost", "--n-trunc", "10", "--out", str(tmp_path / "cost.csv")]
    module, function = _script_entry().split(":")
    run = {
        "runpy": "import runpy\n"
                 "runpy.run_module('ringsplit.cli', run_name='__main__', alter_sys=True)",
        # what the generated console script does
        "script": f"from {module} import {function}\nsys.exit({function}())",
        "library": "from ringsplit.cli import main\nsys.exit(main(sys.argv[1:]))",
    }[entry]
    code = ("import atexit, os, sys\n"
            "atexit.register(lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'),"
            " len(os.listdir('/proc/self/task'))))\n"
            f"sys.argv = ['ringsplit', *{argv!r}]\n" + run)
    env = subprocess_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    variable, threads = _probe(code, env).split()
    if entry == "library":
        assert variable == str(preset)
    elif preset is None:
        assert (variable, threads) == ("1", "1")
    else:
        # OpenBLAS starts no more threads than the process may run on
        assert (variable, threads) == ("2", str(min(2, len(os.sched_getaffinity(0)))))
    assert (tmp_path / "cost.csv").read_text().startswith("alpha,")


def test_coeffs_run_ends_without_numpy_polynomial(tmp_path):
    # the oracle's Gauss rule is built by Newton's method: no run loads
    # numpy.polynomial (all of its modules, 2-4 ms) or calls LAPACK for it
    out = tmp_path / "coeffs.csv"
    probe = (
        "import runpy, sys\n"
        f"sys.argv = ['ringsplit', 'coeffs', '--alpha', '0.7', '--n-trunc', '40', '--out', {str(out)!r}]\n"
        "try:\n"
        "    runpy.run_module('ringsplit.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'numpy.polynomial' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 False\n"
    rows = _printed_values(out)
    assert len(rows) == 40
    assert all(abs(v[f"oracle_{kind}"] - v[kind]) <= ORACLE_ABS_BOUND
               for v in rows for kind in COEFF_KINDS)


def test_coeffs_at_the_truncation_limit(tmp_path):
    # the FFT oracle makes N = COEFFS_N_LIMIT cheap: every oracle value of the
    # table is within the absolute bound of the closed form
    out = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--alpha", "0.7", "--n-trunc", str(cli.COEFFS_N_LIMIT),
                 "--out", str(out)]) == 0
    rows = _printed_values(out)
    assert [v["n"] for v in rows] == list(range(1, cli.COEFFS_N_LIMIT + 1))
    worst = max(abs(v[f"oracle_{kind}"] - v[kind]) for v in rows for kind in COEFF_KINDS)
    assert worst <= ORACLE_ABS_BOUND
    # its peak stays O(N + panels): the Gauss points are transformed a group at
    # a time, and no table is kept at this size (3.73 MB measured; the child
    # peak of the dense route was 55 MB of RSS)
    tracemalloc.start()
    try:
        ringsplit.oracle_coefficients(0.7, cli.COEFFS_N_LIMIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 3.73e6, peak


def test_program_mode_writes_the_bytes_of_main(tmp_path, capsys):
    # `python -m ringsplit.cli` freezes the heap on its way out; the tables it
    # writes must be those of an in-process call
    argv = ["energy", "--alpha-sweep", "0.3:1.5:2", "--nm-max", "70"]
    child = [sys.executable, "-m", "ringsplit.cli", *argv]
    env = subprocess_env()
    printed = subprocess.run(child, env=env, capture_output=True, timeout=60)
    assert (printed.returncode, printed.stderr) == (0, b"")
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert printed.stdout.split(b"\n") == expected.split(b"\n")

    child_out, own_out = tmp_path / "child.json", tmp_path / "own.json"
    json_flags = ["--format", "json", "--out"]
    written = subprocess.run(child + json_flags + [str(child_out)], env=env,
                             capture_output=True, timeout=60)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert main(argv + json_flags + [str(own_out)]) == 0
    assert child_out.read_bytes().split(b"\n") == own_out.read_bytes().split(b"\n")


def test_program_mode_usage_error_exits_2(capsys, monkeypatch):
    argv = ["cost", "--no-such-flag"]
    # one width for argparse's usage line in both processes
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(subprocess_env(), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "ringsplit.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == capsys.readouterr().err
    assert proc.stderr.endswith("ringsplit: error: unrecognized arguments: --no-such-flag\n")


def _fail_to_converge(*args, **kwargs):
    raise cli.ConvergenceError("no convergence", 1.0)


def _exit_status(*argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,code", [
    (["cost", "--n-trunc", "10"], 0),
    (["cost", "--n-trunc", "10"], 1),
    (["cost", "--alpha", "3.0"], 2),
    (["cost", "--no-such-flag"], 2),
    (["cost", "--n-trunc", "10", "--out", "."], 74),
], ids=["ok", "convergence", "value", "usage", "write"])
def test_heap_is_frozen_only_in_program_mode(argv, code, capsys, monkeypatch):
    # a freeze on every call would stop the collector in any process that
    # calls main more than once (pytest, `perfbench/run.py --trace 1`)
    if code == 1:
        monkeypatch.setattr(cli, "post_insertion_cost", _fail_to_converge)
    before = gc.get_freeze_count()
    assert _exit_status(argv) == code
    assert gc.get_freeze_count() == before
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(True))
    monkeypatch.setattr(sys, "argv", ["ringsplit", *argv])
    assert _exit_status() == code
    assert freezes == [True]
    capsys.readouterr()


def test_cost_json_mirrors_csv_fields(capsys):
    # both formats name the columns as the fields of DiscriminationReport, in order
    fields = ["alpha", "epsilon", "n_trunc", "prior", "overlap_before", "cost_before",
              "overlap_after", "cost_after", "deficit_reference", "deficit_shifted",
              "sum_rule_overlap", "note"]
    assert [field.name for field in dataclasses.fields(DiscriminationReport)] == fields
    argv = ["cost", "--alpha", PI4, "--n-trunc", "60"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert read_csv_text(out)[0] == fields
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    rec = records[0]
    assert rec["n_trunc"] == 60
    assert rec["cost_after"] == 0.0
    assert list(rec) == fields


# ---------------------------------------------------------------- coeffs

def test_coeffs_table_and_discrepancy_log(tmp_path, capsys):
    disc = tmp_path / "disc.csv"
    code, out, _ = run_cli(
        ["coeffs", "--alpha", PI4, "--n-trunc", "12",
         "--discrepancies", str(disc)], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert len(rows) == 12
    for kind in ("a", "b", "c", "d"):
        assert max(col(header, rows, f"abs_diff_{kind}")) < 1e-10

    # deficit column matches a recomputation from the table itself
    alpha = col(header, rows, "alpha")[0]
    norm_a = col(header, rows, "norm_a")
    norm_b = col(header, rows, "norm_b")
    completeness = sum(v * v for v in norm_a) + sum(v * v for v in norm_b)
    deficit = col(header, rows, "deficit_reference")[0]
    assert abs(deficit - (1.0 - completeness)) < 1e-12

    dheader, drows = read_csv_file(disc)
    assert col(dheader, drows, "kind", str) == ["d"] * 12
    assert col(dheader, drows, "n", int) == list(range(1, 13))
    for u, a in zip(col(dheader, drows, "uncorrected"),
                    col(dheader, drows, "adopted")):
        assert u == -a


def test_coeffs_computes_each_oracle_coefficient_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(alpha, n_max):
        calls.append((alpha, n_max))
        return oracle(alpha, n_max)

    def refuse(*args, **kwargs):
        raise AssertionError("sign_discrepancies integrated again")

    def sign_log(alpha, oracle):
        # given the table's oracle values, the sign log does no quadrature
        with monkeypatch.context() as m:
            m.setattr(ringsplit.expansion, "project_modes", refuse)
            m.setattr(ringsplit.expansion, "project_mode", refuse)
            return sign_discrepancies(alpha, oracle)

    oracle = ringsplit.expansion.oracle_coefficients
    sign_discrepancies = ringsplit.expansion.sign_discrepancies
    monkeypatch.setattr(ringsplit.cli, "oracle_coefficients", counted)
    monkeypatch.setattr(ringsplit.cli, "sign_discrepancies", sign_log)
    code, _, _ = run_cli(["coeffs", "--alpha-sweep", "0.25:1.25:3", "--n-trunc", "7",
                          "--discrepancies", str(tmp_path / "disc.csv")], capsys)
    assert code == 0
    # one batched oracle per alpha, covering every kind and n
    assert calls == [(0.25, 7), (0.75, 7), (1.25, 7)]


def test_coeffs_computes_a_group_of_alphas_per_part(tmp_path, monkeypatch):
    # groups of BLOCK_ROWS // 14 = 292 alphas: one table part each, from one
    # call per kind of coefficient and one of truncation_sums, after the part
    # of the sweep's two ends; before them, the ends' truncation_sums, one
    # oracle per alpha and one sign log of the whole sweep
    calls, block_rows = [], []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    def refuse(*args, **kwargs):
        raise AssertionError("coeffs expanded a candidate")

    def kept(table, stream):
        # a table's blocks are read once: here, in place of writing them
        block_rows.append([len(block[0]) for block in table.blocks()])

    for name in ("coefficient", "truncation_sums", "sign_discrepancies", "oracle_coefficients"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "expand", refuse)
    monkeypatch.setattr(cli, "_write_csv", kept)
    assert main(["coeffs", "--alpha-sweep", "0.3:1.5:300", "--n-trunc", "14",
                 "--discrepancies", str(tmp_path / "disc.csv"),
                 "--out", str(tmp_path / "coeffs.csv")]) == 0
    # kind d flips for every n at these alphas, so the log has the table's
    # rows, in one part; each part of the table is one block
    assert block_rows == [[cli.BLOCK_ROWS, 300 * 14 - cli.BLOCK_ROWS], [292 * 14, 8 * 14]]
    group = ["coefficient"] * 4 + ["truncation_sums"]
    assert calls == ["truncation_sums", *["oracle_coefficients"] * 300, "sign_discrepancies",
                     *group * 3]


def test_coeffs_streams_its_table(tmp_path, monkeypatch):
    # groups of 292 and 8 alphas: the second group's closed forms are computed
    # after the first block is written, not before the first byte
    events = []

    def counted(kind, n, alpha):
        events.append(("coefficient", len(alpha)))
        return coefficient(kind, n, alpha)

    def recorded(table, stream):
        events.extend(("block", len(block[0])) for block in table.blocks())

    coefficient = cli.coefficient
    monkeypatch.setattr(cli, "coefficient", counted)
    monkeypatch.setattr(cli, "_write_csv", recorded)
    assert main(["coeffs", "--alpha-sweep", "0.3:1.5:300", "--n-trunc", "14",
                 "--out", str(tmp_path / "coeffs.csv")]) == 0
    # the part of the sweep's two ends, then each group in turn
    assert events == [*[("coefficient", 2)] * 4, *[("coefficient", 292)] * 4,
                      ("block", 292 * 14), *[("coefficient", 8)] * 4, ("block", 8 * 14)]


def test_empty_sign_log_keeps_its_header(tmp_path, capsys, monkeypatch):
    def confirming(alpha, oracle):
        # an oracle that confirms the uncorrected form refutes no sign; n is
        # the last axis of a group's stacked values
        n = np.arange(1, oracle["d"].shape[-1] + 1)
        return sign_discrepancies(alpha, {"d": -ringsplit.expansion.coefficient("d", n, alpha)})

    sign_discrepancies = ringsplit.expansion.sign_discrepancies
    monkeypatch.setattr(cli, "sign_discrepancies", confirming)
    disc = tmp_path / "disc.csv"
    code, _, _ = run_cli(["coeffs", "--n-trunc", "3", "--discrepancies", str(disc)], capsys)
    assert code == 0
    assert disc.read_text() == "kind,n,alpha,uncorrected,oracle,adopted\n"


def test_coeffs_reports_every_sign_correction_at_tiny_alpha(capsys):
    code, _, err = run_cli(["coeffs", "--alpha", "1e-12", "--n-trunc", "20"], capsys)
    assert code == 0
    assert "20 oracle sign corrections" in err


@pytest.mark.parametrize("alpha", [PI4, "0.3", "1.5", "1e-9"])
def test_coeffs_norm_columns_scale_their_own_kind(alpha, capsys):
    # norm_k is k on its chamber's orthonormal modes, sqrt(2 pi / width) * k:
    # kinds a and c lie in chamber 1 of width alpha, b and d in chamber 2 of
    # width 2 pi - alpha
    code, out, _ = run_cli(["coeffs", "--alpha", alpha, "--n-trunc", "40"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    for kind in "abcd":
        width = float(alpha) if kind in "ac" else 2.0 * math.pi - float(alpha)
        scale = math.sqrt(2.0 * math.pi / width)
        assert col(header, rows, f"norm_{kind}") == \
            [scale * value for value in col(header, rows, kind)], kind


def test_coeffs_single_row(capsys):
    code, out, _ = run_cli(["coeffs", "--alpha", PI4, "--n-trunc", "1"], capsys)
    assert code == 0
    _, rows = read_csv_text(out)
    assert len(rows) == 1


# ---------------------------------------------------------------- energy

def test_energy_table_positive_both_variants(capsys):
    code, out, _ = run_cli(["energy", "--alpha", PI4, "--nm-max", "100"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert len(rows) == 100 * 100
    assert min(col(header, rows, "delta_e_nominal")) > 0.0
    assert min(col(header, rows, "delta_e_conserving")) > 0.0
    diffs = col(header, rows, "variant_difference")
    assert all(abs(d - 0.375) < 1e-12 for d in diffs)


def test_energy_single_variant_column(capsys):
    code, out, _ = run_cli(
        ["energy", "--alpha", PI4, "--nm-max", "3", "--variant", "conserving"],
        capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["alpha", "n", "m", "delta_e"]
    assert len(rows) == 9


@pytest.mark.parametrize("variant,per_alpha", [
    ("nominal", ["nominal"]), ("conserving", ["conserving"]),
    ("both", ["nominal", "conserving"]),
])
def test_energy_computes_only_the_variants_asked_for(variant, per_alpha, capsys, monkeypatch):
    # one call per variant asked for on the rows of n = nm_max at the sweep's
    # ends, then one per variant and group of BLOCK_ROWS // nm_max (alpha, n)
    # pairs, with each pair in one group
    calls = []

    def counted(n, m, alpha, variant):
        calls.append((variant, np.ravel(n).tolist(), np.ravel(alpha).tolist()))
        return delta_energy(n, m, alpha, variant=variant)

    delta_energy = cli.delta_energy
    monkeypatch.setattr(cli, "delta_energy", counted)
    code, _, _ = run_cli(["energy", "--alpha-sweep", "0.3:1.5:600", "--nm-max", "4",
                          "--variant", variant], capsys)
    assert code == 0
    alphas = np.linspace(0.3, 1.5, 600).tolist()
    pairs = [(alpha, n) for alpha in alphas for n in range(1, 5)]
    group = cli.BLOCK_ROWS // 4
    groups = [pairs[first:first + group] for first in range(0, len(pairs), group)]
    assert len(groups) == 3
    ends = [(v, [4, 4], [0.3, 1.5]) for v in per_alpha]
    assert calls == ends + [(v, [n for _, n in part], [alpha for alpha, _ in part])
                            for part in groups for v in per_alpha]


# ---------------------------------------------------------------- evolve

def test_evolve_snapshots_identical_at_revival(capsys):
    code, out, _ = run_cli(
        ["evolve", "--alpha", PI4, "--n-trunc", "400", "--grid-points", "200",
         "--time-fracs", "0,1", "--chamber", "both"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    t_col = header.index("t")
    rho_col = header.index("density")
    ch_col = header.index("chamber")
    for chamber in ("1", "2"):
        times = sorted({r[t_col] for r in rows if r[ch_col] == chamber}, key=float)
        assert len(times) == 2
        start = [float(r[rho_col]) for r in rows
                 if r[ch_col] == chamber and r[t_col] == times[0]]
        revived = [float(r[rho_col]) for r in rows
                   if r[ch_col] == chamber and r[t_col] == times[1]]
        assert len(start) == 200
        assert max(abs(x - y) for x, y in zip(start, revived)) < 1e-9


def test_evolve_rejects_time_beyond_phase_resolution(capsys):
    # n_trunc^2 * t / T would leave no fractional phase bits: not a t = 0 snapshot
    code, out, err = run_cli(["evolve", "--times", "1e30"], capsys)
    assert code == 2
    assert out == ""
    assert "2**52" in err


def test_evolve_takes_negative_time_lists_attached_with_equals(capsys):
    # argparse reads "-1e3,2" after a space as a flag, so a list that starts
    # with a minus sign is attached with "="
    code, out, _ = run_cli(["evolve", "--alpha", "0.7", "--n-trunc", "20", "--grid-points",
                            "3", "--times=-1e3,2"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    # each chamber's grid at each time in turn
    assert col(header, rows, "t") == ([-1000.0] * 3 + [2.0] * 3) * 2
    code, out, _ = run_cli(["evolve", "--alpha", "0.7", "--n-trunc", "20", "--grid-points",
                            "3", "--time-fracs=-0.25,0.5"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    periods = [revival_period(ChamberGeometry(0.7).width(chamber)) for chamber in (1, 2)]
    assert col(header, rows, "t") == [f * period for period in periods
                                      for f in (-0.25, 0.5) for _ in range(3)]
    assert col(header, rows, "chamber", int) == [1] * 6 + [2] * 6


@pytest.mark.parametrize("argv,cause", [
    # the alpha check in the coefficients comes before the revival period
    (["evolve", "--n-trunc", "10", "--grid-points", "3"], "too small for float64"),
    (["energy", "--nm-max", "2"], "energy transfer overflows"),
    (["cost"], "weight underflowed"),
], ids=["evolve", "energy", "cost"])
def test_tiny_alpha_exits_2_with_the_cause(argv, cause, capsys):
    # at alpha = 1e-300 chamber 1 is too narrow for float64 arithmetic
    code, out, err = run_cli([*argv, "--alpha", "1e-300"], capsys)
    assert code == 2
    assert out == ""
    assert cause in err


@pytest.mark.parametrize("argv", [
    ["energy", "--alpha-sweep", "1.5:1e-160:3", "--nm-max", "2"],
    # three blocks of 2048, 2048 and 1904 (alpha, n) pairs; only the last alpha overflows
    ["energy", "--alpha-sweep", "1.5:1e-160:3000", "--nm-max", "2"],
    # one alpha in blocks of 40 (alpha, n) pairs; only the pairs from n = 41 overflow
    ["energy", "--alpha", "6.7e-153", "--nm-max", "100"],
    ["evolve", "--times", "0,1e30", "--n-trunc", "10", "--grid-points", "3"],
    # one group of 3 alphas, which fails as a whole
    ["coeffs", "--alpha-sweep", "1.5:1e-150:3", "--n-trunc", "2"],
    # groups of 40 alphas and 1; only the last alpha underflows
    ["coeffs", "--alpha-sweep", "1.5:1e-150:41", "--n-trunc", "100"],
    # blocks of 4096 and 904 alphas; only the last alpha underflows
    ["cost", "--alpha-sweep", "1.5:1e-150:5000"],
    ["parseval", "--alpha-sweep", "1.5:1e-150:5000", "--n-trunc", "10"],
], ids=["energy", "energy-groups", "energy-pairs", "evolve", "coeffs", "coeffs-groups",
        "cost-blocks", "parseval-blocks"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_failure_in_a_later_part_writes_no_rows(argv, to_file, tmp_path, capsys):
    # the first part computes; a later one would fail, and no row of the first
    # is written: a streamed table checks its failures before its first block
    out = tmp_path / "table.csv"
    code, stdout, err = run_cli([*argv, *(["--out", str(out)] if to_file else [])], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("ringsplit: ")
    assert not out.exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_coeffs_is_computed_before_its_first_byte(to_file, tmp_path, capsys, monkeypatch):
    # its oracle may fail to converge at any alpha, which no check can know in
    # advance: a failure at the last alpha, in the second of groups of 40
    # alphas and 1, writes no row, and exits 1
    def oracle(alpha, n_max):
        if alpha == 1.5:
            _fail_to_converge()
        return oracle_coefficients(alpha, n_max)

    oracle_coefficients = cli.oracle_coefficients
    monkeypatch.setattr(cli, "oracle_coefficients", oracle)
    out = tmp_path / "table.csv"
    code, stdout, err = run_cli(["coeffs", "--alpha-sweep", "0.3:1.5:41", "--n-trunc", "100",
                                 *(["--out", str(out)] if to_file else [])], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("ringsplit: quadrature failed to converge")
    assert not out.exists()


def _sweeps(count):
    """cost at eps = 0 and 0.5 and parseval over ``count`` alphas."""
    sweep = ["--alpha-sweep", f"0.01:1.5:{count}"]
    return [*(["cost", *sweep, "--n-trunc", "1000", "--epsilon", eps] for eps in ("0", "0.5")),
            ["parseval", *sweep, "--n-trunc", "10,1000"]]


#: block sizes of 1 and 7 rows (or one alpha, or one (alpha, n) pair, where
#: its rows are more), the default, and one block for the whole table
SMALL_BLOCKS = (1, 7, cli.BLOCK_ROWS, cli.ROW_LIMIT)


@pytest.mark.parametrize("argv,block_sizes", [
    *((argv, SMALL_BLOCKS) for argv in _sweeps(3 * 7 + 5)),
    # a block of 1 or 7 rows costs about 1 ms of per-call work, so the sweep
    # that spans default blocks is compared to one block only
    *((argv, (cli.BLOCK_ROWS, cli.ROW_LIMIT)) for argv in _sweeps(3 * cli.BLOCK_ROWS + 5)),
    (["energy", "--alpha", "0.9", "--nm-max", "95"], SMALL_BLOCKS),
    (["energy", "--alpha-sweep", "0.3:1.5:300", "--nm-max", "3"], SMALL_BLOCKS),
    (["evolve", "--n-trunc", "50", "--grid-points", "100", "--time-fracs", "0,0.3"],
     SMALL_BLOCKS),
], ids=["cost", "cost-eps", "parseval", "cost-long", "cost-eps-long", "parseval-long",
        "energy", "energy-sweep", "evolve"])
def test_block_size_changes_no_byte(argv, block_sizes, tmp_path, monkeypatch):
    tables = {}
    for block_rows in block_sizes:
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
        for fmt in ("csv", "json"):
            out = tmp_path / f"{block_rows}.{fmt}"
            assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
            tables.setdefault(fmt, []).append(out.read_bytes())
    assert all(len(set(texts)) == 1 for texts in tables.values())


@pytest.mark.parametrize("alpha", ["5e-324", "1e-310", "1e-300"])
@pytest.mark.parametrize("argv", [
    ["cost", "--n-trunc", "10"],
    ["parseval", "--n-trunc", "10"],
    ["coeffs", "--n-trunc", "3"],
    ["evolve", "--n-trunc", "10", "--grid-points", "3"],
], ids=["cost", "parseval", "coeffs", "evolve"])
def test_alpha_below_float64_range_exits_2(argv, alpha, capsys):
    # subnormal alphas once hit a "degenerate chamber-2 denominator" first
    code, out, err = run_cli([*argv, "--alpha", alpha], capsys)
    assert code == 2
    assert out == ""
    assert f"alpha={float(alpha)!r} is too small for float64" in err


@pytest.mark.parametrize("argv", [
    ["cost", "--alpha-sweep", "0.5:3.0:5"],
    ["energy", "--alpha", "3.0"],
], ids=["cost", "energy"])
def test_out_of_range_alpha_exits_2_before_any_row(argv, capsys, monkeypatch):
    # the alphas are checked before the sweep is built, not row by row
    def refuse(*args, **kwargs):
        raise AssertionError("a row was computed for an out-of-range alpha")
    monkeypatch.setattr(cli, "post_insertion_cost", refuse)
    monkeypatch.setattr(cli, "delta_energy", refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "3.0" in err


def test_tiny_alpha_candidates_stay_distinct(capsys):
    # below 1e-12 the shifted candidate was once taken for the reference
    code, out, _ = run_cli(["cost", "--alpha", "1e-13", "--n-trunc", "100"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert col(header, rows, "overlap_after") == [0.0]
    assert col(header, rows, "cost_after") == [0.0]


def test_evolve_rejects_sweep(capsys):
    code, _, err = run_cli(
        ["evolve", "--alpha-sweep", "0.2:1.0:3", "--grid-points", "10"], capsys)
    assert code == 2
    assert "single" in err


# ---------------------------------------------------------------- parseval

def test_parseval_slope_near_minus_one(capsys):
    code, out, _ = run_cli(
        ["parseval", "--alpha", PI4, "--n-trunc", "100,1000"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    deficits = col(header, rows, "deficit_reference")
    ns = col(header, rows, "n_trunc")
    slope = (math.log(deficits[1]) - math.log(deficits[0])) \
        / (math.log(ns[1]) - math.log(ns[0]))
    assert abs(slope + 1.0) < 0.15
    assert max(col(header, rows, "sum_rule_abs_error")) < 1e-4


# ---------------------------------------------------------------- emission

def reference_csv(header, rows):
    """The rows as the csv module writes them, floats as format(x, ".17g")."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, (str, int)) else format(v, ".17g") for v in row])
    return stream.getvalue()


def reference_json(header, rows):
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def synthetic_table(n_rows):
    """Columns of every kind the writers take, with the float extremes."""
    rng = np.random.default_rng(7)
    # ldexp is exact, where numpy's power may differ in the last bit by SIMD level
    floats = np.ldexp(rng.standard_normal(n_rows), rng.integers(-1000, 1000, n_rows))
    floats[:4] = [-0.0, 5e-324, 1e308, 1.0 / 3.0][:n_rows]
    nonfinite = rng.random(n_rows)
    nonfinite[1::5] = math.nan
    nonfinite[2::7] = math.inf
    nonfinite[3::11] = -math.inf
    ints = np.linspace(0, 10**12, n_rows).astype(np.int64)
    words = np.array([("kind d", "tab\there", "\u00e9t\u00e9", "back\\slash")[i % 4]
                      for i in range(n_rows)], dtype=object)
    columns = {"float": floats, "int": ints, "empty": np.array([""] * n_rows, dtype=object),
               "word": words, "nonfinite": nonfinite}
    return columns, table_rows(columns)


def table_rows(columns):
    """The rows of named columns, as Python values."""
    return list(zip(*[col.tolist() for col in columns.values()]))


#: each format's writer and its reference
WRITERS = {"csv": (cli._write_csv, reference_csv), "json": (cli._write_json, reference_json)}


def assert_writers_match_references(parts, rows, formats=tuple(WRITERS)):
    for write, reference in map(WRITERS.get, formats):
        # a table's blocks are read once, so each writer gets its own
        table = cli.Table(parts, len(rows))
        stream = io.StringIO()
        write(table, stream)
        # lines, so that a failure names the first one that differs and its
        # report does not diff two strings of up to a megabyte
        assert stream.getvalue().split("\n") == reference(table.header, rows).split("\n")


@pytest.mark.parametrize("n_rows", [0, 1, cli.BLOCK_ROWS, 2 * cli.BLOCK_ROWS + 5])
def test_writers_match_csv_and_json_modules(n_rows):
    columns, rows = synthetic_table(n_rows)
    assert_writers_match_references([columns], rows)


@pytest.mark.parametrize("n_rows", [1, 200, 2 * cli.BLOCK_ROWS + 5])
def test_every_block_is_written_as_one_text(n_rows, monkeypatch):
    # a block below BULK_ROWS is laid out as a larger one is: its cells and
    # separators go out through one _write_text call
    written = []
    write_text = cli._write_text

    def counted(stream, between, cells, rows, skip):
        written.append(rows)
        write_text(stream, between, cells, rows, skip)

    monkeypatch.setattr(cli, "_write_text", counted)
    columns, rows = synthetic_table(n_rows)
    assert_writers_match_references([columns], rows)
    blocks = [min(cli.BLOCK_ROWS, n_rows - start) for start in range(0, n_rows, cli.BLOCK_ROWS)]
    assert written == blocks * len(WRITERS)


@pytest.mark.parametrize("fmt", cli.FORMAT_CHOICES)
def test_small_table_leaves_out_the_numpy_formatter(fmt):
    # a block below BULK_ROWS formats its numbers with Python's %, so a
    # 200-alpha sweep never imports ringsplit._text (3-4 ms and about 1 MB of
    # numpy code pages in a fresh process)
    argv = ["cost", "--alpha-sweep", "0.3:1.4:200", "--n-trunc", "20000", "--format", fmt,
            "--out", os.devnull]
    assert _probe("import sys, ringsplit.cli\n"
                  f"assert ringsplit.cli.main({argv!r}) == 0\n"
                  "print('ringsplit._text' in sys.modules)\n") == "False\n"


def constant_block_table(n_rows, varying):
    """Columns that hold one value over whole blocks of cli.BLOCK_ROWS rows;
    ``step`` and the other ``step_*`` columns change inside the second block.
    With ``varying``, one column differs from row to row."""
    mixed_zero = np.zeros(n_rows)
    mixed_zero[n_rows // 2:n_rows // 2 + 1] = -0.0  # equal to 0.0, but its own bits
    before = min(n_rows, cli.BLOCK_ROWS + 100)

    def stepped(first, then):
        # an object array whose cells share the two objects
        return np.array([first] * before + [then] * (n_rows - before), dtype=object)

    columns = {
        "step": np.where(np.arange(n_rows) < cli.BLOCK_ROWS + 100, 0.25, 0.5),
        "neg_zero": np.full(n_rows, -0.0),
        "zero": np.zeros(n_rows),
        "mixed_zero": mixed_zero,
        "subnormal": np.full(n_rows, 5e-324),
        "inf": np.full(n_rows, math.inf),
        "neg_inf": np.full(n_rows, -math.inf),
        "nan": np.full(n_rows, math.nan),
        "big_int": np.full(n_rows, 2**53 + 1, dtype=np.int64),
        # object columns: one shared string (with a % to escape), equal strings
        # that are distinct objects, and ints beyond int64
        "text": np.full(n_rows, "100% one object", dtype=object),
        "equal_text": np.array(["".join(["eq", "ual"]) for _ in range(n_rows)], dtype=object),
        "step_text": stepped("\u00e9t\u00e9", "back\\slash"),
        "huge_int": np.full(n_rows, 2**70, dtype=object),
        "step_huge_int": stepped(2**64, -2**80 - 1),
    }
    if varying:
        columns["third"] = np.arange(n_rows) / 3.0
    return columns, table_rows(columns)


@pytest.mark.parametrize("varying", [True, False], ids=["varying", "all-constant"])
@pytest.mark.parametrize("n_rows", [0, 1, 2 * cli.BLOCK_ROWS + 5])
def test_writers_format_constant_columns_as_each_row_would(n_rows, varying):
    columns, rows = constant_block_table(n_rows, varying)
    assert_writers_match_references([columns], rows)


@pytest.mark.parametrize("part_rows", [1, 7, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS,
                                       cli.BLOCK_ROWS + 5])
@pytest.mark.parametrize("make", [
    synthetic_table,
    lambda n_rows: constant_block_table(n_rows, True),
    lambda n_rows: constant_block_table(n_rows, False),
], ids=["synthetic", "constant-varying", "all-constant"])
def test_writers_match_references_over_many_parts(make, part_rows):
    # each part is sliced into blocks, with a partial last block per part
    n_rows = -(-(2 * cli.BLOCK_ROWS + 5) // part_rows) * part_rows
    columns, rows = make(n_rows)
    parts = [{name: col[start:start + part_rows] for name, col in columns.items()}
             for start in range(0, n_rows, part_rows)]
    assert_writers_match_references(parts, rows)


#: writes the synthetic writer tables and the energy digest runs, and prints
#: the sha256 of each text; run as a child, with this file's directory on
#: sys.path and the output directory as its argument
PORTABLE_PROBE = """
import hashlib, io, sys
from pathlib import Path
import test_cli
from ringsplit import cli
tool = test_cli._load_by_path("tools", "cli_digests.py")
for make in (test_cli.synthetic_table, lambda n: test_cli.constant_block_table(n, True)):
    columns, rows = make(2 * cli.BLOCK_ROWS + 5)
    for write in (cli._write_csv, cli._write_json):
        stream = io.StringIO()
        write(cli.Table([columns], len(rows)), stream)
        print(hashlib.sha256(stream.getvalue().encode()).hexdigest(), write.__name__)
for argv, files in tool.invocations(Path(sys.argv[1])):
    if argv[0] == "energy":
        assert cli.main(argv) == 0, argv
        print(*map(tool.digest_line, files))
"""


def test_written_bytes_do_not_depend_on_the_simd_level(tmp_path):
    # the same tables with numpy held to its baseline: every SIMD level it
    # dispatches to at run time disabled (the names differ by architecture)
    from numpy._core._multiarray_umath import __cpu_dispatch__
    if not __cpu_dispatch__:
        pytest.skip("this numpy dispatches to no SIMD level above its baseline")
    env = subprocess_env()
    env["PYTHONPATH"] = os.pathsep.join((str(Path(__file__).resolve().parent), env["PYTHONPATH"]))
    printed = []
    for name, features in (("native", None), ("baseline", " ".join(__cpu_dispatch__))):
        child_env = dict(env, NPY_DISABLE_CPU_FEATURES=features) if features else env
        (tmp_path / name).mkdir()
        result = subprocess.run([sys.executable, "-c", PORTABLE_PROBE, str(tmp_path / name)],
                                env=child_env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        printed.append(result.stdout.splitlines())
    native, baseline = printed
    energy_runs = sum(argv[0] == "energy" for argv in _load_by_path("tools", "cli_digests.py")
                      .RUNS.values())
    assert len(native) == 4 + 2 * energy_runs  # two tables in two formats, each run in two
    assert baseline == native


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r", "nul\0"])
def test_csv_string_cell_needing_quotes_is_refused(cell):
    table = cli.Table([{"x": np.array([1.0, 2.0]), "s": np.array(["plain", cell], dtype=object)}],
                      2)
    with pytest.raises(AssertionError, match="CSV string cell"):
        cli._write_csv(table, io.StringIO())


def test_table_of_one_part_keeps_its_columns():
    part = {"x": np.arange(3.0), "word": np.array(["a", "b", "c"], dtype=object),
            "k": np.arange(3)}
    table = cli.Table([part], 3)
    assert table.header == ["x", "word", "k"]
    # a join would copy each column
    (block,) = table.blocks()
    assert all(np.shares_memory(col, part[name]) for name, col in zip(table.header, block))


def test_table_slices_parts_by_name_in_the_first_parts_order():
    # every block is a view of one part: none crosses from one part into the next
    first = {"b": np.arange(cli.BLOCK_ROWS + 2.0), "a": np.arange(cli.BLOCK_ROWS + 2)}
    second = {"a": np.array([3]), "b": np.array([5.0])}
    table = cli.Table([first, second], cli.BLOCK_ROWS + 3)
    assert table.header == ["b", "a"]
    assert len(table) == cli.BLOCK_ROWS + 3
    blocks = list(table.blocks())
    assert [len(block[0]) for block in blocks] == [cli.BLOCK_ROWS, 2, 1]
    for block, part in zip(blocks, (first, first, second)):
        assert all(np.shares_memory(col, part[name]) for name, col in zip(table.header, block))
    assert [[col.tolist() for col in block] for block in blocks[1:]] == \
        [[[cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1.0], [cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1]],
         [[5.0], [3]]]


def test_table_computes_each_part_when_its_blocks_are_reached():
    # the header comes from the first part, computed when the table is made;
    # len() computes nothing, and each later part waits for the writer
    computed = []

    def parts():
        for value in (1.0, 2.0, 3.0):
            computed.append(value)
            yield {"x": np.full(2, value)}

    table = cli.Table(parts(), 6)
    assert computed == [1.0] and table.header == ["x"] and len(table) == 6
    blocks = table.blocks()
    assert next(blocks)[0].tolist() == [1.0, 1.0] and computed == [1.0]
    assert next(blocks)[0].tolist() == [2.0, 2.0] and computed == [1.0, 2.0]
    assert [block[0].tolist() for block in blocks] == [[3.0, 3.0]]
    # the parts are read once
    with pytest.raises(AssertionError, match="hold 0 rows, not 6"):
        list(table.blocks())


@pytest.mark.parametrize("second", [
    {"a": np.array([2.0]), "b": np.array([3.0]), "c": np.array([4.0])},
    {"a": np.array([2.0])},
], ids=["extra-name", "missing-name"])
def test_table_refuses_parts_of_other_names(second):
    table = cli.Table([{"a": np.array([1.0]), "b": np.array([5.0])}, second], 2)
    with pytest.raises(AssertionError, match="parts differ in names"):
        list(table.blocks())


def test_table_takes_parts_but_not_columns_of_other_lengths():
    table = cli.Table([{"a": np.array([1.0]), "b": np.array([4])},
                       {"a": np.array([2.0, 3.0]), "b": np.array([5, 6])}], 3)
    assert len(table) == 3
    assert [len(block[0]) for block in table.blocks()] == [1, 2]
    table = cli.Table([{"a": np.array([1.0]), "b": np.array([4])},
                       {"a": np.array([2.0, 3.0]), "b": np.array([5])}], 3)
    with pytest.raises(AssertionError, match="columns differ in length"):
        list(table.blocks())
    # a row count other than the parts' is a program error too
    with pytest.raises(AssertionError, match="hold 1 rows, not 2"):
        list(cli.Table([{"a": np.array([1.0])}], 2).blocks())


@pytest.mark.parametrize("argv", [
    ["cost", "--alpha-sweep", "0.2:1.4:5", "--n-trunc", "50", "--epsilon", "0.5"],
    ["coeffs", "--alpha-sweep", "0.3:1.5:2", "--n-trunc", "6"],
    ["energy", "--alpha-sweep", "0.3:1.5:2", "--nm-max", "70"],
    ["evolve", "--n-trunc", "50", "--grid-points", "1500", "--time-fracs", "0,0.5"],
    ["parseval", "--alpha-sweep", "0.3:1.5:3", "--n-trunc", "10,100"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitted_row_count_is_len_of_table(argv, fmt, tmp_path, monkeypatch):
    # a per-layer benchmark counts rows as len() of _emit's second argument
    lengths = []
    emit = cli._emit

    def counted(args, table):
        lengths.append(len(table))
        emit(args, table)

    monkeypatch.setattr(cli, "_emit", counted)
    out = tmp_path / f"table.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    written = (len(read_csv_file(out)[1]) if fmt == "csv"
               else len(json.loads(out.read_text())))
    assert lengths == [written]
    assert written > 1


def test_integers_beyond_int64_print_exactly(capsys):
    argv = ["cost", "--alpha", PI4, "--n-trunc", str(10**20)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert col(header, rows, "n_trunc", str) == [str(10**20)]
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    assert f'"n_trunc": {10**20},' in out


@pytest.mark.parametrize("argv,message", [
    (["energy", "--nm-max", "100000"],
     "row count (--alpha-sweep count x --nm-max squared) is 10000000000"),
    (["energy", "--alpha-sweep", "0.1:1.5:1001", "--nm-max", "100"],
     "row count (--alpha-sweep count x --nm-max squared) is 10010000"),
    (["cost", "--alpha-sweep", "0.1:1.5:100000000000"],
     "row count (--alpha-sweep count) is 100000000000"),
    (["evolve", "--grid-points", "2000000"],
     "row count (--alpha-sweep count x --grid-points x times x chambers) is 20000000"),
    (["parseval", "--alpha-sweep", "0.1:1.5:4000000", "--n-trunc", "1,2,3"],
     "row count (--alpha-sweep count x --n-trunc count) is 12000000"),
    (["coeffs", "--alpha-sweep", "0.1:1.5:2000", "--n-trunc", "10000"],
     "row count (--alpha-sweep count x --n-trunc) is 20000000"),
    (["coeffs", "--n-trunc", "10001"], "--n-trunc is 10001"),
    (["evolve", "--n-trunc", "1000001"], "--n-trunc is 1000001"),
], ids=["energy", "energy-sweep", "cost-sweep", "evolve-grid", "parseval-sweep",
        "coeffs-sweep", "coeffs-n", "evolve-n"])
def test_size_above_limit_exits_2_before_allocating(argv, message, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking the size")

    # every size check comes before the sweep is built or anything is computed
    monkeypatch.setattr(cli.np, "linspace", refuse)
    for name in ("expand", "delta_energy", "post_insertion_cost", "truncation_sums"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    limit = cli.ROW_LIMIT if message.startswith("row count") else \
        {"coeffs": cli.COEFFS_N_LIMIT, "evolve": cli.EVOLVE_N_LIMIT}[argv[0]]
    assert err == f"ringsplit: {message}, above the limit of {limit}\n"


@pytest.mark.parametrize("argv,lines_read", [
    # about 4 MB of CSV, far more than a pipe holds: breaks while writing
    (["energy", "--nm-max", "200"], 1),
    # one row, still in the stdout buffer when the table is done
    (["cost", "--n-trunc", "10"], 0),
], ids=["energy", "cost"])
def test_closed_stdout_pipe_exits_141_silently(argv, lines_read):
    env = subprocess_env()
    # a buffered stdout, as by default, holds the last rows until the flush
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader:
        if not lines_read:
            reader.close()
        proc = subprocess.Popen([sys.executable, "-m", "ringsplit.cli", *argv],
                                stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        for _ in range(lines_read):
            assert reader.readline().startswith(b"alpha,")
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["cost", "--n-trunc", "10", "--out", "/dev/full"],
    ["coeffs", "--n-trunc", "3", "--discrepancies", "/dev/full"],
], ids=["out", "discrepancies"])
def test_failed_write_exits_74(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == cli.EXIT_IO_ERROR == 74
    assert err.startswith("ringsplit: cannot write output: [Errno 28]")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_stdout_exits_74():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "ringsplit.cli", "cost", "--n-trunc", "10"],
                              stdout=full, stderr=subprocess.PIPE, env=subprocess_env(),
                              timeout=60)
    assert proc.returncode == 74
    assert proc.stderr.startswith(b"ringsplit: cannot write output: [Errno 28]")


@pytest.mark.parametrize("argv,message", [
    (["cost", "--alpha-sweep", "0.1:1.0:0"], "sweep count must be >= 1"),
    (["cost", "--config", "{config}"], "config file {config!r} must contain a JSON object"),
    (["energy", "--nm-max", "0"], "--nm-max must be >= 1"),
    (["evolve", "--grid-points", "1"], "--grid-points must be >= 2"),
    (["coeffs", "--n-trunc", "0"], "truncation must be >= 1, got 0"),
    (["coeffs", "--config", "{zero}"], "truncation must be >= 1, got 0"),
], ids=["sweep-count", "config-not-object", "nm-max", "grid-points", "coeffs-n-trunc",
        "coeffs-n-trunc-config"])
def test_invalid_setting_exits_2_with_its_message(argv, message, tmp_path, capsys):
    config, zero = str(tmp_path / "config.json"), str(tmp_path / "zero.json")
    Path(config).write_text("[1, 2]")
    Path(zero).write_text('{"n_trunc": 0}')
    code, out, err = run_cli([arg.format(config=config, zero=zero) for arg in argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"ringsplit: {message.format(config=config)}\n"


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, out, err = run_cli(["cost", "--config", str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ringsplit: cannot read config file: [Errno 2]")


#: name -> contents of a config file that is not JSON: a syntax error, and
#: bytes that are not UTF-8
NOT_JSON = {"trailing-comma": b'{"alpha": 0.5,}', "not-utf8": b"\xff\xfe"}


@pytest.mark.parametrize("via", ["flag", "environment"])
@pytest.mark.parametrize("name", list(NOT_JSON))
def test_config_that_is_not_json_exits_2(name, via, tmp_path, capsys, monkeypatch):
    path = tmp_path / f"{name}.json"
    path.write_bytes(NOT_JSON[name])
    argv = ["cost", "--n-trunc", "10"]
    if via == "flag":
        argv += ["--config", str(path)]
    else:
        monkeypatch.setenv("RINGSPLIT_CONFIG", str(path))
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"ringsplit: config file {str(path)!r} is not valid JSON: ")


# ---------------------------------------------------------------- config handling

def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 0.5, "n_trunc": "40", "epsilon": 0.25}))
    code, out, _ = run_cli(
        ["cost", "--config", str(config), "--alpha", "0.9"], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert col(header, rows, "alpha")[0] == 0.9  # flag beats config
    assert col(header, rows, "n_trunc", int)[0] == 40  # config beats default
    assert col(header, rows, "epsilon")[0] == 0.25


def test_config_path_from_environment(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_trunc": "17"}))
    monkeypatch.setenv("RINGSPLIT_CONFIG", str(config))
    code, out, _ = run_cli(["cost", "--alpha", PI4], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert col(header, rows, "n_trunc", int)[0] == 17


#: key -> (command line, bad value): a misspelt key, the removed jobs key, a
#: bool for a number, a fraction for an int, a value outside the choices and a
#: sweep that is not START:STOP:COUNT
BAD_CONFIGS = {
    "n_truc": (["cost", "--n-trunc", "10"], 5),
    "jobs": (["cost", "--n-trunc", "10"], 2),
    "alpha": (["cost", "--n-trunc", "10"], True),
    "nm_max": (["energy", "--nm-max", "3"], 2.7),
    "candidate": (["evolve", "--n-trunc", "10", "--grid-points", "3",
                   "--time-fracs", "0"], "refrence"),
    "alpha_sweep": (["cost", "--n-trunc", "10"], "nonsense"),
}


@pytest.mark.parametrize("key", list(BAD_CONFIGS))
def test_bad_config_value_exits_2_naming_key(key, tmp_path, capsys):
    argv, value = BAD_CONFIGS[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    code, out, err = run_cli([*argv, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert repr(key) in err


def test_config_keys_of_other_subcommands_allowed(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_trunc": 12, "nm_max": 3, "candidate": "shifted"}))
    code, out, _ = run_cli(["cost", "--alpha", PI4, "--config", str(config)], capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    assert col(header, rows, "n_trunc", int) == [12]

    # energy reads only variant; n_trunc and epsilon belong to other subcommands
    config.write_text(json.dumps({"n_trunc": 12, "epsilon": 0.5, "variant": "conserving"}))
    energy = ["energy", "--alpha", PI4, "--nm-max", "3"]
    code_config, out_config, _ = run_cli([*energy, "--config", str(config)], capsys)
    code_flags, out_flags, _ = run_cli([*energy, "--variant", "conserving"], capsys)
    assert code_config == code_flags == 0
    assert out_config == out_flags


@pytest.mark.parametrize("argv", [
    ["energy", "--n-trunc", "5"],
    ["energy", "--epsilon", "0.1"],
    ["coeffs", "--epsilon", "0.1"],
    ["evolve", "--variant", "both"],
    ["parseval", "--epsilon", "0"],
    ["cost", "--variant", "nominal"],
], ids=lambda argv: "-".join(argv[:2]).replace("--", ""))
def test_flag_of_another_subcommand_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    capsys.readouterr()


FLAGS_AND_CONFIG = {
    "cost": (["--alpha-sweep", "0.2:1.4:3", "--n-trunc", "60", "--epsilon", "0.25",
              "--format", "json"],
             {"alpha_sweep": "0.2:1.4:3", "n_trunc": 60, "epsilon": 0.25,
              "format": "json"}),
    "coeffs": (["--alpha", "0.6", "--n-trunc", "4"], {"alpha": 0.6, "n_trunc": "4"}),
    "energy": (["--alpha", "0.5", "--nm-max", "4", "--variant", "conserving"],
               {"alpha": 0.5, "nm_max": 4, "variant": "conserving"}),
    "evolve": (["--alpha", "0.7", "--n-trunc", "50", "--grid-points", "9",
                "--candidate", "shifted", "--chamber", "2", "--time-fracs", "0,0.37"],
               {"alpha": 0.7, "n_trunc": 50, "grid_points": 9, "candidate": "shifted",
                "chamber": 2, "time_fracs": [0, 0.37]}),
    "parseval": (["--alpha", "1.1", "--n-trunc", "10,100"],
                 {"alpha": 1.1, "n_trunc": [10, 100]}),
}


@pytest.mark.parametrize("command", sorted(FLAGS_AND_CONFIG))
def test_config_file_gives_same_output_as_flags(command, tmp_path, capsys):
    flags, config = FLAGS_AND_CONFIG[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code_flags, out_flags, _ = run_cli([command, *flags], capsys)
    code_config, out_config, _ = run_cli([command, "--config", str(path)], capsys)
    assert code_flags == code_config == 0
    assert out_flags != ""
    assert out_config == out_flags


def test_invalid_epsilon_exits_nonzero(capsys):
    code, _, err = run_cli(["cost", "--alpha", PI4, "--epsilon", "1.5"], capsys)
    assert code == 2
    assert "epsilon" in err


def test_invalid_alpha_exits_nonzero(capsys):
    code, _, err = run_cli(["cost", "--alpha", "3.0"], capsys)
    assert code == 2
    assert err.strip() != ""


def test_alpha_and_sweep_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["cost", "--alpha", "0.5", "--alpha-sweep", "0.1:1:3"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_time_fracs_and_times_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["evolve", "--time-fracs", "0.5", "--times", "0.1"])
    assert excinfo.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


EVOLVE_SMALL = ["evolve", "--n-trunc", "10", "--grid-points", "3", "--chamber", "1"]


@pytest.mark.parametrize("argv,config", [
    ([*EVOLVE_SMALL, "--times", "0.1"], {"time_fracs": [0.5]}),
    (["cost", "--n-trunc", "10", "--alpha", "0.5"], {"alpha_sweep": "0.1:1:3"}),
    (["cost", "--n-trunc", "10", "--alpha-sweep", "0.2:0.4:2"], {"alpha": 0.5}),
], ids=["times-over-fracs", "alpha-over-sweep", "sweep-over-alpha"])
def test_flag_drops_configured_value_of_its_pair(argv, config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code_flags, out_flags, _ = run_cli(argv, capsys)
    code_config, out_config, _ = run_cli([*argv, "--config", str(path)], capsys)
    assert code_flags == code_config == 0
    assert out_config == out_flags


@pytest.mark.parametrize("argv,flag,config", [
    (["cost", "--n-trunc", "10"], "--epsilon=-0.0", {"epsilon": -0.0}),
    (EVOLVE_SMALL, "--times=-0.0,0.5", {"times": [-0.0, 0.5]}),
    (["cost", "--alpha", PI4], "--n-trunc=1000", {"n_trunc": 1000.0}),
    (["cost", "--alpha", PI4], "--n-trunc=100000000000000000000", {"n_trunc": 1e20}),
], ids=["negative-zero", "negative-zero-in-list", "integral-float", "integral-float-1e20"])
def test_configured_float_gives_the_bytes_of_its_flag(argv, flag, config, tmp_path, capsys):
    # an integral float stands for its integer, and -0.0 keeps its sign
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code_flags, out_flags, _ = run_cli([*argv, flag], capsys)
    code_config, out_config, _ = run_cli([*argv, "--config", str(path)], capsys)
    assert code_flags == code_config == 0
    assert out_config == out_flags


def test_time_fracs_flag_beats_configured_times(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"times": [0.1]}))
    code, out, _ = run_cli([*EVOLVE_SMALL, "--time-fracs", "0.5", "--config", str(path)],
                           capsys)
    assert code == 0
    header, rows = read_csv_text(out)
    # half of chamber 1's revival period, 4*alpha^2/pi at alpha = pi/4
    assert set(col(header, rows, "t")) == {0.5 * math.pi / 4}


@pytest.mark.parametrize("command,config", [
    ("cost", {"alpha": 0.5, "alpha_sweep": "0.1:1:3"}),
    ("evolve", {"time_fracs": 0.5, "times": 0.1}),
])
def test_config_naming_both_members_of_a_pair_exits_2(command, config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli([command, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert all(repr(key) in err for key in config)


def test_bad_sweep_spec_exits_nonzero(capsys):
    code, _, err = run_cli(["cost", "--alpha-sweep", "nonsense"], capsys)
    assert code == 2
    assert "START:STOP:COUNT" in err

import csv
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ringsplit
from ringsplit import cli
from ringsplit.cli import main
from ringsplit.discrimination import BarrierModel, post_insertion_cost
from ringsplit.expansion import CoeffDiscrepancy

PI4 = repr(math.pi / 4)


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
    for eps in ("0", "0.5"):
        report = post_insertion_cost(0.7, 1000, BarrierModel(float(eps)))
        notes[eps] = report.note
        # one real report for every alpha, so that the run does no per-alpha work
        monkeypatch.setattr(cli, "post_insertion_cost", lambda *args, report=report: report)
        peaks[eps] = traced_peak(["cost", "--alpha-sweep", "0.1:1.5:20000", "--epsilon", eps,
                                  "--format", fmt, "--out", str(tmp_path / f"cost.{fmt}")])
    assert notes["0"] == "" and len(notes["0.5"]) > 100
    assert abs(peaks["0.5"] - peaks["0"]) < 2**20


def test_parts_are_not_joined_into_a_second_table(tmp_path, monkeypatch):
    # ten 40 000-row energy parts: the run's peak stays near the parts' own
    # bytes, where a joined copy of every column would double it
    part_bytes = []
    emit = cli._emit

    def measured(header, table, args):
        arrays = {id(col): col for part in table.parts for col in part}
        part_bytes.append(sum(col.nbytes for col in arrays.values()))
        emit(header, table, args)

    monkeypatch.setattr(cli, "_emit", measured)
    peak = traced_peak(["energy", "--alpha-sweep", "0.3:1.5:10", "--nm-max", "200",
                        "--out", str(tmp_path / "energy.csv")])
    assert part_bytes[0] > 12 * 2**20
    assert peak < 1.25 * part_bytes[0]


def _load_by_path(*parts):
    """A script of the checkout, imported by path (tools/ and perfbench/ are
    not packages)."""
    path = Path(__file__).resolve().parent.parent.joinpath(*parts)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tables_match_checked_in_digests(tmp_path, capsys, monkeypatch):
    # every run of tools/cli_digests.py, in-process; a change that moves the
    # bytes on purpose regenerates tools/cli_digests.sha256
    tool = _load_by_path("tools", "cli_digests.py")
    monkeypatch.delenv("RINGSPLIT_CONFIG", raising=False)
    lines = []
    for argv, files in tool.invocations(tmp_path):
        assert main(argv) == 0, argv
        lines.extend(tool.digest_line(path) for path in files)
    capsys.readouterr()
    manifest = Path(tool.__file__).with_name("cli_digests.sha256")
    assert lines == manifest.read_text().splitlines()


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


def test_oracle_import_stays_deferred():
    # numpy.polynomial loads all of its modules; only the oracle needs leggauss
    probe = (
        "import sys, numpy as np, ringsplit.cli\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
        "from ringsplit.expansion import COEFF_KINDS, coefficient, oracle_coefficients\n"
        "oracle = oracle_coefficients(0.7, 4)\n"
        "for kind in COEFF_KINDS:\n"
        "    assert np.allclose(oracle[kind], coefficient(kind, np.arange(1, 5), 0.7),\n"
        "                       rtol=0, atol=1e-12), kind\n"
        "print('numpy.polynomial' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


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
    code, out, _ = run_cli(
        ["cost", "--alpha", PI4, "--n-trunc", "60", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    rec = records[0]
    assert rec["n_trunc"] == 60
    assert rec["cost_after"] == 0.0
    assert set(rec) == {"alpha", "epsilon", "n_trunc", "prior", "overlap_before",
                        "cost_before", "overlap_after", "cost_after",
                        "deficit_reference", "deficit_shifted",
                        "sum_rule_overlap", "note"}


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

    def sign_log(alpha, n_max, *, oracle=None):
        # given the table's oracle values, the sign log does no quadrature
        assert oracle is not None
        with monkeypatch.context() as m:
            m.setattr(ringsplit.expansion, "project_modes", refuse)
            m.setattr(ringsplit.expansion, "project_mode", refuse)
            return sign_discrepancies(alpha, n_max, oracle=oracle)

    oracle = ringsplit.expansion.oracle_coefficients
    sign_discrepancies = ringsplit.expansion.sign_discrepancies
    monkeypatch.setattr(ringsplit.cli, "oracle_coefficients", counted)
    monkeypatch.setattr(ringsplit.cli, "sign_discrepancies", sign_log)
    code, _, _ = run_cli(["coeffs", "--alpha-sweep", "0.25:1.25:3", "--n-trunc", "7",
                          "--discrepancies", str(tmp_path / "disc.csv")], capsys)
    assert code == 0
    # one batched oracle per alpha, covering every kind and n
    assert calls == [(0.25, 7), (0.75, 7), (1.25, 7)]


def test_empty_sign_log_keeps_its_header(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sign_discrepancies", lambda *args, **kwargs: [])
    disc = tmp_path / "disc.csv"
    code, _, _ = run_cli(["coeffs", "--n-trunc", "3", "--discrepancies", str(disc)], capsys)
    assert code == 0
    assert disc.read_text() == "kind,n,alpha,uncorrected,oracle,adopted\n"


def test_coeffs_reports_every_sign_correction_at_tiny_alpha(capsys):
    code, _, err = run_cli(["coeffs", "--alpha", "1e-12", "--n-trunc", "20"], capsys)
    assert code == 0
    assert "20 oracle sign corrections" in err


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
    variants = []

    def counted(n, m, alpha, variant):
        variants.append(variant)
        return delta_energy(n, m, alpha, variant=variant)

    delta_energy = cli.delta_energy
    monkeypatch.setattr(cli, "delta_energy", counted)
    code, _, _ = run_cli(["energy", "--alpha-sweep", "0.3:1.5:3", "--nm-max", "4",
                          "--variant", variant], capsys)
    assert code == 0
    assert variants == per_alpha * 3


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
    ["evolve", "--times", "0,1e30", "--n-trunc", "10", "--grid-points", "3"],
    ["coeffs", "--alpha-sweep", "1.5:1e-150:3", "--n-trunc", "2"],
], ids=["energy", "evolve", "coeffs"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_failure_in_a_later_part_writes_no_rows(argv, to_file, tmp_path, capsys):
    # the first part computes; a later one fails, and no row of the first is written
    out = tmp_path / "table.csv"
    code, stdout, err = run_cli([*argv, *(["--out", str(out)] if to_file else [])], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("ringsplit: ")
    assert not out.exists()


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
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    floats[:4] = [-0.0, 5e-324, 1e308, 1.0 / 3.0][:n_rows]
    nonfinite = rng.random(n_rows)
    nonfinite[1::5] = math.nan
    nonfinite[2::7] = math.inf
    nonfinite[3::11] = -math.inf
    ints = np.linspace(0, 10**12, n_rows).astype(np.int64)
    words = [("kind d", "tab\there", "\u00e9t\u00e9", "back\\slash")[i % 4]
             for i in range(n_rows)]
    columns = {"float": floats, "int": ints, "empty": [""] * n_rows, "word": words,
               "nonfinite": nonfinite}
    return columns, table_rows(columns)


def table_rows(columns):
    """The rows of named columns, as Python values."""
    return list(zip(*[col.tolist() if isinstance(col, np.ndarray) else col
                      for col in columns.values()]))


def assert_writers_match_references(table, rows):
    for write, reference in ((cli._write_csv, reference_csv),
                             (cli._write_json, reference_json)):
        stream = io.StringIO()
        write(table.header, table, stream)
        # lines, so that a failure names the first one that differs and its
        # report does not diff two strings of up to a megabyte
        assert stream.getvalue().split("\n") == reference(table.header, rows).split("\n")


@pytest.mark.parametrize("n_rows", [0, 1, cli.BLOCK_ROWS, 2 * cli.BLOCK_ROWS + 5])
def test_writers_match_csv_and_json_modules(n_rows):
    columns, rows = synthetic_table(n_rows)
    assert_writers_match_references(cli.Table([columns]), rows)


def constant_block_table(n_rows, varying):
    """Columns that hold one value over whole blocks of cli.BLOCK_ROWS rows;
    ``step`` changes inside the second block. With ``varying``, one column
    differs from row to row."""
    mixed_zero = np.zeros(n_rows)
    mixed_zero[n_rows // 2:n_rows // 2 + 1] = -0.0  # equal to 0.0, but its own bits
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
    }
    if varying:
        columns["third"] = np.arange(n_rows) / 3.0
    return columns, table_rows(columns)


@pytest.mark.parametrize("varying", [True, False], ids=["varying", "all-constant"])
@pytest.mark.parametrize("n_rows", [0, 1, 2 * cli.BLOCK_ROWS + 5])
def test_writers_format_constant_columns_as_each_row_would(n_rows, varying):
    columns, rows = constant_block_table(n_rows, varying)
    assert_writers_match_references(cli.Table([columns]), rows)


@pytest.mark.parametrize("part_rows", [1, 7, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS,
                                       cli.BLOCK_ROWS + 5])
@pytest.mark.parametrize("make", [
    synthetic_table,
    lambda n_rows: constant_block_table(n_rows, True),
    lambda n_rows: constant_block_table(n_rows, False),
], ids=["synthetic", "constant-varying", "all-constant"])
def test_writers_match_references_over_many_parts(make, part_rows):
    # parts smaller than a block are joined into blocks that end inside a
    # part; larger ones are sliced, with a partial last block per part
    n_rows = -(-(2 * cli.BLOCK_ROWS + 5) // part_rows) * part_rows
    columns, rows = make(n_rows)
    parts = [{name: col[start:start + part_rows] for name, col in columns.items()}
             for start in range(0, n_rows, part_rows)]
    assert_writers_match_references(cli.Table(parts), rows)


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_csv_string_cell_needing_quotes_is_refused(cell):
    table = cli.Table([{"x": np.array([1.0, 2.0]), "s": ["plain", cell]}])
    with pytest.raises(AssertionError, match="CSV string cell"):
        cli._write_csv(table.header, table, io.StringIO())


def test_table_of_one_part_keeps_its_columns():
    part = {"x": np.arange(3.0), "word": ["a", "b", "c"], "k": np.arange(3)}
    table = cli.Table([part])
    assert table.header == ["x", "word", "k"]
    # a join would copy each column
    assert all(col is part[name] for name, col in zip(table.header, table.parts[0]))
    (block,) = table.blocks()
    assert np.shares_memory(block[0], part["x"]) and np.shares_memory(block[2], part["k"])


def test_table_joins_parts_by_name_in_the_first_parts_order():
    first = {"b": np.array([1.0]), "a": np.array([2])}
    second = {"a": np.array([3]), "b": np.array([5.0])}
    table = cli.Table([first, second])
    assert table.header == ["b", "a"]
    assert len(table) == 2
    assert [[col.tolist() for col in block] for block in table.blocks()] == \
        [[[1.0, 5.0], [2, 3]]]


def test_table_refuses_parts_of_other_lengths():
    with pytest.raises(AssertionError, match="columns differ in length"):
        cli.Table([{"a": np.array([1.0])}, {"a": np.array([2.0, 3.0])}])


def test_empty_record_table_keeps_every_field_name():
    table = cli.Table([cli._records(CoeffDiscrepancy, [])])
    assert table.header == ["kind", "n", "alpha", "uncorrected", "oracle", "adopted"]
    assert len(table) == 0
    assert list(table.blocks()) == []


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

    def counted(header, table, args):
        lengths.append(len(table))
        emit(header, table, args)

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
], ids=["sweep-count", "config-not-object", "nm-max", "grid-points"])
def test_invalid_setting_exits_2_with_its_message(argv, message, tmp_path, capsys):
    config = str(tmp_path / "config.json")
    Path(config).write_text("[1, 2]")
    code, out, err = run_cli([arg.format(config=config) for arg in argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"ringsplit: {message.format(config=config)}\n"


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, out, err = run_cli(["cost", "--config", str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ringsplit: cannot read config file: [Errno 2]")


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

"""Checks of the benchmark itself. Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

1. The same seed gives the same argv list; another seed gives another.
2. A non-zero exit, a truncated table and a table with any one numeric cell
   perturbed are each counted as a failed operation.
3. Without the program's sources the benchmark exits non-zero and prints no
   result.
4. One short run per workload and trace mode prints every metric by name with
   its unit, and the names and units match BENCHMARK.json.

Takes a minute or two; exits non-zero on the first failed check.
"""
from __future__ import annotations

import csv
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import run
import workloads

SHORT_SECONDS = "1"


def require(condition, message):
    if not condition:
        raise SystemExit(f"FAIL {message}")


def check_argv_determinism():
    for workload in workloads.WORKLOADS:
        def argv_list(seed):
            return [workloads.make_op(workload, seed, i, "w").argv for i in range(8)]
        require(argv_list(5) == argv_list(5), f"{workload}: seed 5 is not reproducible")
        require(argv_list(5) != argv_list(6), f"{workload}: seeds 5 and 6 give the same argv")
    print("ok  same seed, same argv list; different seed, different list")


def _rewrite(path: str, fmt: str, edit):
    """Apply edit(header, rows) to a table file, keeping its format."""
    if fmt == "csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        edit(header, rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    else:
        with open(path) as fh:
            records = json.load(fh)
        header = list(records[0])
        rows = [[rec[key] for key in header] for rec in records]
        edit(header, rows)
        with open(path, "w") as fh:
            json.dump([dict(zip(header, row)) for row in rows], fh, indent=2)


def _numeric_columns(path, fmt):
    header, cols = workloads.read_table(path, fmt)
    numeric = []
    for key in header:
        try:
            workloads.numeric(cols, key)
        except ValueError:
            continue
        numeric.append(key)
    return numeric


def _expect_failure(op, what):
    _, _, error = run.check_outputs(op)
    require(error is not None, f"{op.workload}: {what} was not detected")


def check_corruption_is_failure(launcher):
    rng = random.Random(0)
    for workload in workloads.WORKLOADS:
        for index in (0, 1):
            op = workloads.make_op(workload, 1, index, str(run.WORKDIR))
            fmt = op.params.get("fmt", "csv")
            result = run.run_op(op, launcher)
            require(result.error is None, f"{workload}: clean output rejected: {result.error}")
            saved = {path: open(path, "rb").read() for path in op.outputs}

            def restore():
                for path, data in saved.items():
                    with open(path, "wb") as fh:
                        fh.write(data)

            mutations = 0
            for p, path in enumerate(op.outputs):
                path_fmt = fmt if p == 0 else "csv"
                _rewrite(path, path_fmt, lambda header, rows: rows.pop())
                _expect_failure(op, f"dropping the last row of {path}")
                restore()
                for key in _numeric_columns(path, path_fmt):
                    def perturb(header, rows, key=key):
                        row = rows[rng.randrange(len(rows))]
                        i = header.index(key)
                        value = float(row[i])
                        row[i] = value + 1e-4 * (1.0 + abs(value))
                        if path_fmt == "csv":
                            row[i] = format(row[i], ".17g")
                    _rewrite(path, path_fmt, perturb)
                    _expect_failure(op, f"perturbing one {key} cell of {path}")
                    restore()
                    mutations += 1
            require(run.check_outputs(op)[2] is None, f"{workload}: restored output rejected")
            print(f"ok  {workload} op {index} ({fmt}): truncation and {mutations} "
                  "single-cell perturbations each count as failed")
    bad = workloads.make_op("verify", 1, 0, str(run.WORKDIR))
    argv = list(bad.argv)
    argv[argv.index("--alpha") + 1] = "2.0"
    result = run.run_op(replace(bad, argv=tuple(argv)), launcher)
    require(result.error and result.error.startswith("exit 2"), result.error)
    print("ok  a non-zero exit counts as failed")


def check_no_sources():
    copy = run.WORKDIR / "no-sources"
    shutil.copytree(run.ROOT / "perfbench", copy / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", copy)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", SHORT_SECONDS, "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=180)
    require(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print("ok  without sources: exit", proc.returncode, "and no result")


def check_metric_names():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    require([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    table = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", SHORT_SECONDS, "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{workload}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0, (workload, trace, result))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == expected[trace], (workload, trace, got))
            for name, m in result["metrics"].items():
                table.setdefault((trace, name), {})[workload] = m["value"]
    print(f"\n{'metric':<42} {'unit':<14}" + "".join(f"{w:>13}" for w in workloads.WORKLOADS))
    for trace in (0, 1):
        for name, unit in expected[trace].items():
            row = table[(trace, name)]
            print(f"{name:<42} {unit:<14}"
                  + "".join(f"{row[w]:>13.5g}" for w in workloads.WORKLOADS))
    print("ok  every metric of BENCHMARK.json reported with its unit on every workload")


def main() -> int:
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    run.WORKDIR.mkdir(parents=True)
    try:
        check_argv_determinism()
        with run.Launcher() as launcher:
            check_corruption_is_failure(launcher)
        check_no_sources()
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    check_metric_names()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the ringsplit CLI.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, so nothing has to be installed. Closed loop, one client: each
operation is one ``python -m ringsplit.cli`` child process, started (by
``launcher.py``) only after the previous one has exited. One untimed warm-up operation comes first,
then whole cycles of operations (see ``workloads.CYCLE``) until ``--seconds``
have passed. Every output table is checked against references recomputed in
``workloads.py``; an operation that exits non-zero or fails its check counts
as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` instead runs the
same operations in this process, each once untraced and once traced
(alternating which goes first), and reports per-layer metrics from the spans
of ``spans.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A human-readable summary and the
machine facts go to stderr. Work files live in ``.bench_build/perfbench`` and
are removed at exit. BLAS thread settings are inherited unchanged; they are
among the machine facts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
SETUP_CODE = "import ringsplit.cli as c; c.build_parser()"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")


@dataclass
class Result:
    """One finished operation."""

    fmt: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    rows: int
    error: str | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The ``launcher.py`` process, which starts, times and reaps every child."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], stderr: str | None = None) -> dict:
        """wall_s, code, cpu_s and rss_mb of one child run to completion."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": stderr}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        return json.loads(reply)


def check_outputs(op: workloads.Op) -> tuple[int, int, str | None]:
    """(rows, bytes, error) of an operation that exited 0."""
    try:
        rows, size = workloads.check(op)
    except Exception as exc:  # any unreadable or wrong table is a failed operation
        return 0, 0, f"{type(exc).__name__}: {exc}"
    return rows, size, None


def clear_outputs(op: workloads.Op) -> None:
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)


def run_op(op: workloads.Op, launcher: Launcher) -> Result:
    """Run one operation as a child process and check its outputs."""
    clear_outputs(op)
    err_path = WORKDIR / "stderr.txt"
    child = launcher.run([sys.executable, "-m", "ringsplit.cli", *op.argv], str(err_path))
    if child["code"] != 0:
        rows, error = 0, f"exit {child['code']}: {err_path.read_text()[-500:].strip()}"
    else:
        rows, _, error = check_outputs(op)
    if error:
        report_failure(op, error)
    return Result(op.params.get("fmt", "csv"), child["wall_s"], child["cpu_s"],
                  child["rss_mb"], rows, error)


def time_setup(launcher: Launcher) -> float:
    child = launcher.run([sys.executable, "-c", SETUP_CODE])
    if child["code"] != 0:
        raise RuntimeError(f"importing ringsplit.cli failed with exit {child['code']}")
    return child["wall_s"]


def operations(workload: str, seed: int):
    return (workloads.make_op(workload, seed, i, str(WORKDIR)) for i in count())


def whole_cycles(seconds: float, cycle: int, step):
    """Call step() until ``seconds`` have passed and a cycle is complete."""
    start = time.perf_counter()
    for done in count(1):
        step()
        if time.perf_counter() - start >= seconds and done % cycle == 0:
            return


def report_failure(op: workloads.Op, error: str) -> None:
    print(f"FAILED {' '.join(op.argv)}\n  {error}", file=sys.stderr)


def end_to_end(workload: str, seed: int, seconds: float):
    ops = operations(workload, seed)
    results = []
    with Launcher() as launcher:
        warmup = run_op(next(ops), launcher)
        setups = [time_setup(launcher) for _ in range(SETUP_REPEATS)]
        whole_cycles(seconds, workloads.CYCLE[workload],
                     lambda: results.append(run_op(next(ops), launcher)))
    walls = [r.wall_s for r in results]
    attempted = len(results) + 1
    failed = sum(r.error is not None for r in [warmup, *results])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (median_per_format(results, "wall_s"), "s"),
        "rows_per_s": (sum(r.rows for r in results) / sum(walls), "rows/s"),
        "cpu_per_op_s": (median_per_format(results, "cpu_s"), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in [warmup, *results]), "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    per_format = (f"{len(walls)} timed operations; median per output format, "
                  "averaged over formats")
    notes = {"setup_s": f"median of {len(setups)} fresh interpreters",
             "op_p50_s": per_format, "cpu_per_op_s": per_format}
    return attempted, failed, metrics, notes


def median_per_format(results, field) -> float:
    """Mean over output formats of the median of ``field``.

    A workload that alternates CSV and JSON has a two-humped distribution, and
    the plain median of an even mix would sit in the gap between the humps,
    moving with the slowest CSV and the fastest JSON operation.
    """
    groups = {}
    for result in results:
        groups.setdefault(result.fmt, []).append(getattr(result, field))
    return statistics.fmean(statistics.median(values) for values in groups.values())


def import_program() -> dict:
    sys.path.insert(0, str(SRC))
    from ringsplit import cli, discrimination, evolution, expansion, quadrature, ring
    return dict(cli=cli, discrimination=discrimination, evolution=evolution,
                expansion=expansion, quadrature=quadrature, ring=ring)


def layers(workload: str, seed: int, seconds: float):
    modules = import_program()
    cli = modules["cli"]
    tracer = spans.Tracer()
    ops = operations(workload, seed)
    failures = []
    totals = {"traced": 0.0, "untraced": 0.0, "bytes": 0, "ops": 0}

    def call(op, traced):
        clear_outputs(op)
        main = tracer.wrap("cli.main", cli.main) if traced else cli.main
        with spans.patched(modules, tracer) if traced else nullcontext():
            start = time.perf_counter()
            code = main(list(op.argv))
            wall = time.perf_counter() - start
        rows, size, error = check_outputs(op) if code == 0 else (0, 0, f"exit {code}")
        if error:
            failures.append(error)
            report_failure(op, error)
        return wall, size

    call(next(ops), traced=False)

    def step():
        op = next(ops)
        order = (False, True) if totals["ops"] % 2 == 0 else (True, False)
        for traced in order:
            wall, size = call(op, traced)
            if traced:
                totals["traced"] += wall
                totals["bytes"] += size
            else:
                totals["untraced"] += wall
        totals["ops"] += 1

    whole_cycles(seconds, workloads.CYCLE[workload], step)
    metrics = spans.layer_metrics(tracer, totals["ops"], totals["traced"],
                                  totals["untraced"], totals["bytes"])
    notes = {"trace.overhead_frac": f"{totals['ops']} operations, each run traced and untraced"}
    return 2 * totals["ops"] + 1, len(failures), metrics, notes


def machine_facts() -> dict:
    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                model = value.strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / name).read_text().strip()
                             for name in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        # unset means OpenBLAS starts one thread per core
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ringsplit" / "cli.py").is_file():
        print(f"perfbench: no ringsplit sources under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_facts()}), file=sys.stderr)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    try:
        measure = layers if args.trace else end_to_end
        attempted, failed, metrics, notes = measure(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:>9} {name:<42} {value:>14.6g} {unit}{note}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

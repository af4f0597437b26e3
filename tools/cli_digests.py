"""Print a sha256 digest of every output file of a fixed set of CLI runs.

Usage, from anywhere in a checkout:

    python3 tools/cli_digests.py

Each run is ``python -m ringsplit.cli ARGV --format FMT --out FILE`` with the
checkout's ``src/`` on PYTHONPATH, once per output format, writing into a
temporary directory. One ``sha256  name`` line is printed per file, including
the sign-correction CSV that ``coeffs --discrepancies`` writes. Run it before
and after a change and compare the two outputs: a refactor that keeps the
tables byte-identical prints the same lines. Exits 1 if any run fails.

``cli_digests.sha256`` next to this script holds the lines of the current
tables, generated with numpy 2.4.6, and the test suite checks them. The
columns that ``coeffs`` and ``evolve`` compute through numpy's ``sin``,
``exp`` or FFT may differ in the last bit on another numpy; ``cost``,
``parseval`` and ``energy`` call none of these, and neither does the writer,
which tests check. A change that moves
bytes on purpose regenerates the file with
``python3 tools/cli_digests.py > tools/cli_digests.sha256``.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PI4 = "0.7853981633974483"

#: name -> argv; each runs once per format
RUNS = {
    "cost-sweep": ["cost", "--alpha-sweep", "0.2:1.4:5", "--n-trunc", "300",
                   "--epsilon", "0.25"],
    "cost-single": ["cost", "--alpha", PI4, "--n-trunc", "1000"],
    "coeffs": ["coeffs", "--alpha", PI4, "--n-trunc", "50"],
    "coeffs-sweep": ["coeffs", "--alpha-sweep", "0.3:1.5:3", "--n-trunc", "12"],
    "energy-nominal": ["energy", "--alpha", "0.5", "--nm-max", "30", "--variant", "nominal"],
    "energy-conserving": ["energy", "--alpha", "0.5", "--nm-max", "30",
                          "--variant", "conserving"],
    "energy-both": ["energy", "--alpha", "0.5", "--nm-max", "30", "--variant", "both"],
    "energy-sweep": ["energy", "--alpha-sweep", "0.3:1.5:3", "--nm-max", "7"],
    "evolve-reference": ["evolve", "--alpha", "0.7", "--n-trunc", "400", "--grid-points",
                         "257", "--time-fracs", "0,0.37,1", "--candidate", "reference"],
    "evolve-shifted": ["evolve", "--alpha", "0.7", "--n-trunc", "400", "--grid-points",
                       "257", "--time-fracs", "0,0.37,1", "--candidate", "shifted"],
    "evolve-times": ["evolve", "--alpha", "0.7", "--times", "0.1,2.5", "--chamber", "2"],
    "parseval": ["parseval", "--alpha", "1.1", "--n-trunc", "100,1000,10000"],
    "parseval-sweep": ["parseval", "--alpha-sweep", "0.3:1.5:4", "--n-trunc", "10,100"],
    # O(1) in the truncation; a build that allocates O(N) arrays cannot run these
    "cost-huge": ["cost", "--alpha", PI4, "--n-trunc", "1000000000000", "--epsilon", "0.5"],
    "parseval-huge": ["parseval", "--alpha", "1.1", "--n-trunc", "1000000000,1000000000000"],
    # more rows than two blocks of cli.BLOCK_ROWS (4096), with a partial last block
    "energy-blocks": ["energy", "--alpha", "0.5", "--nm-max", "95"],
    "evolve-blocks": ["evolve", "--alpha", "0.7", "--n-trunc", "1000", "--grid-points",
                      "3001", "--time-fracs", "0,0.37,1"],
    # a column that is constant over a block and changes inside the next one:
    # alpha at row 4900 of 9800, t and chamber every 1000 rows
    "energy-straddle": ["energy", "--alpha-sweep", "0.3:1.5:2", "--nm-max", "70"],
    "evolve-straddle": ["evolve", "--alpha", "0.7", "--n-trunc", "300", "--grid-points",
                        "1000", "--time-fracs", "0,0.5,1"],
    # an --n-trunc beyond int64, so the n_trunc column is an object array of ints
    "parseval-bigint": ["parseval", "--alpha-sweep", "0.3:1.5:2", "--n-trunc",
                        "100,100000000000000000000"],
    # many alphas of a few rows each: energy's fill one part of cli.BLOCK_ROWS
    # rows and part of a second, coeffs' two groups of 292 and 8 alphas of 14
    # rows each, so its table and sign log cross a group boundary, and
    # parseval's one part has a block that ends inside it; the last one also
    # has an n_trunc beyond int64
    "energy-small-parts": ["energy", "--alpha-sweep", "0.3:1.5:1500", "--nm-max", "2"],
    "coeffs-small-parts": ["coeffs", "--alpha-sweep", "0.3:1.5:300", "--n-trunc", "14"],
    "parseval-small-parts": ["parseval", "--alpha-sweep", "0.01:1.5:2100", "--n-trunc",
                             "10,100000000000000000000"],
    # more rows than cli.BLOCK_ROWS, all in the head-only branch of N <= 20, at epsilon > 0
    "cost-blocks": ["cost", "--alpha-sweep", "0.001:1.57:5000", "--n-trunc", "20",
                    "--epsilon", "0.5"],
    # an --n-trunc beyond int64, so cost's n_trunc column is an object array of ints
    "cost-bigint": ["cost", "--alpha-sweep", "0.3:1.5:3", "--n-trunc",
                    "100000000000000000000", "--epsilon", "0.5"],
    # one energy part of 32 alphas of 100 rows each; at alpha =
    # 1.0354838709677419 numpy's x*x of 2*pi - alpha differs in the last bit
    # from Python's x**2
    "energy-groups": ["energy", "--alpha-sweep", "0.3:1.5:32", "--nm-max", "10"],
    # the ends of the range of alpha: 1e-100, far below where 1 - cos^2 keeps
    # a digit, its midpoint, and pi/2, where cost_before is 0
    "cost-edges": ["cost", "--alpha-sweep", "1e-100:1.5707963267948966:3", "--n-trunc",
                   "1000", "--epsilon", "0.5"],
    "parseval-edges": ["parseval", "--alpha-sweep", "1e-100:1.5707963267948966:3",
                       "--n-trunc", "10,1000000000000"],
}


def invocations(directory):
    """(argv after ``ringsplit``, output files) of every run, once per format,
    writing into ``directory``."""
    for name, argv in RUNS.items():
        for fmt in ("csv", "json"):
            files = [Path(directory, f"{name}.{fmt}")]
            extra = []
            if argv[0] == "coeffs":
                files.append(Path(directory, f"{name}.{fmt}.D.csv"))
                extra = ["--discrepancies", str(files[1])]
            yield [*argv, "--format", fmt, "--out", str(files[0]), *extra], files


def digest_line(path: Path) -> str:
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("RINGSPLIT_CONFIG", None)
    with tempfile.TemporaryDirectory() as tmp:
        for argv, files in invocations(tmp):
            result = subprocess.run([sys.executable, "-m", "ringsplit.cli", *argv],
                                    env=env, capture_output=True, text=True)
            if result.returncode != 0:
                print(f"{files[0].name}: exit {result.returncode}\n{result.stderr}",
                      file=sys.stderr)
                return 1
            for path in files:
                print(digest_line(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
tables, and the test suite checks them; a change that moves bytes on purpose
regenerates it with ``python3 tools/cli_digests.py > tools/cli_digests.sha256``.
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
    # many parts of a few rows each, so that a block of cli.BLOCK_ROWS rows
    # ends inside a part; the last one also has an n_trunc beyond int64
    "energy-small-parts": ["energy", "--alpha-sweep", "0.3:1.5:1500", "--nm-max", "2"],
    "coeffs-small-parts": ["coeffs", "--alpha-sweep", "0.3:1.5:300", "--n-trunc", "14"],
    "parseval-small-parts": ["parseval", "--alpha-sweep", "0.01:1.5:2100", "--n-trunc",
                             "10,100000000000000000000"],
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

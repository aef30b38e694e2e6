"""Regenerate the golden NDJSON files that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each case runs one `clanmc` subcommand at --shards 1 and writes
tests/golden/<name>.ndjson: a header line with the argv, the exit code,
the numpy version and the path the run must take, then the
`kind=result` lines exactly as the CLI wrote them, then one
`kind=stdout` line per printed report line.  A change that means to move
numbers regenerates these files and names the changed records in
CHANGES.md; any other change leaves them alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from clanmc import cli

GOLDEN_DIR = Path(__file__).resolve().parent

# name -> (argv, property the run must show)
CASES = {
    "validate-uniform": (["validate", "--seed", "1", "--family", "uniform", "--halfwidth", "1.5"], None),
    "validate-twopoint": (["validate", "--seed", "1", "--family", "twopoint", "--step", "0.7"], None),
    "prob-gaussian-fixed_i": (
        ["prob", "--seed", "2024", "--n-grid", "8,16,32,64", "--regime", "fixed_i",
         "--regime-param", "2", "--m-samples", "1300"], None),
    "prob-uniform-end_window": (
        ["prob", "--seed", "7", "--family", "uniform", "--halfwidth", "2", "--n-grid", "16,33,48",
         "--regime", "end_window", "--regime-param", "3", "--m-samples", "1300"], None),
    "prob-twopoint-proportional": (
        ["prob", "--seed", "8", "--family", "twopoint", "--step", "0.7", "--regime", "proportional",
         "--regime-param", "0.5", "--allow-assumption-violations", "true",
         "--n-grid", "8,16,32", "--m-samples", "1300"], None),
    # sigma = 30: prefix slices far below the row maximum take the logsumexp fallback
    "prob-sigma30-fallback": (
        ["prob", "--seed", "30", "--sigma", "30", "--n-grid", "16,64,128,256",
         "--regime", "fixed_i", "--regime-param", "2", "--m-samples", "600"], "lse-fallback"),
    # an unsorted grid with a repeated point
    "prob-chunked": (
        ["prob", "--seed", "9", "--n-grid", "64,8,16,32,16", "--regime", "fixed_i",
         "--regime-param", "2", "--m-samples", "300"], None),
    "pgf-gaussian-end_window": (
        ["pgf", "--seed", "3", "--n", "32", "--s-grid", "0,0.25,0.5,0.9,1",
         "--m-samples", "2000"], None),
    "pgf-uniform-end_window": (
        ["pgf", "--seed", "4", "--family", "uniform", "--halfwidth", "1", "--n", "48",
         "--regime-param", "5", "--s-grid", "0,0.5,1", "--m-samples", "1300"], None),
    "lst-gaussian-proportional": (
        ["lst", "--seed", "31337", "--n", "64", "--regime", "proportional", "--regime-param", "0.5",
         "--beta-grid", "1e-4,1e-2,1,1e2,inf", "--m-samples", "2000"], None),
    "lst-twopoint-fixed_i": (
        ["lst", "--seed", "12", "--family", "twopoint", "--step", "0.7", "--n", "32",
         "--regime", "fixed_i", "--regime-param", "4", "--beta-grid", "0.5,10,inf",
         "--m-samples", "1300"], None),
    "scaling-gaussian-end_window": (
        ["scaling", "--seed", "1", "--n-grid", "16,32,64,128,256", "--m-samples", "2000"], None),
    "scaling-uniform-fixed_i": (
        ["scaling", "--seed", "2", "--family", "uniform", "--halfwidth", "1.5", "--regime", "fixed_i",
         "--regime-param", "1", "--n-grid", "8,16,32,64", "--m-samples", "1300"], None),
    "scaling-gaussian-proportional": (
        ["scaling", "--seed", "3", "--regime", "proportional", "--regime-param", "0.5",
         "--n-grid", "16,32,64,128", "--m-samples", "2000"], None),
    "duality-gaussian-proportional": (
        ["duality", "--seed", "5", "--n", "64", "--regime", "proportional", "--regime-param", "0.5",
         "--beta-grid", "1e-2,1,100,inf", "--m-samples", "2000"], None),
    "duality-twopoint-fixed_i": (
        ["duality", "--seed", "9", "--family", "twopoint", "--step", "0.7", "--n", "16",
         "--regime", "fixed_i", "--regime-param", "12", "--beta-grid", "0.5,2,inf",
         "--m-samples", "1300"], None),
    # sigma = 30: slice sums of both orientations take the logsumexp fallback
    "duality-sigma30-fallback": (
        ["duality", "--seed", "30", "--sigma", "30", "--n", "64", "--regime", "end_window",
         "--regime-param", "3", "--beta-grid", "1e-2,1,inf", "--m-samples", "600"], "lse-fallback"),
    "strata-gaussian-fixed_i": (
        ["strata", "--seed", "9", "--n", "64", "--regime", "fixed_i", "--regime-param", "48",
         "--strata-N", "3", "--beta-grid", "1,inf", "--m-samples", "2000"], None),
    "strata-uniform-proportional": (
        ["strata", "--seed", "10", "--family", "uniform", "--halfwidth", "1", "--n", "48",
         "--regime", "proportional", "--regime-param", "0.5", "--strata-N", "4",
         "--beta-grid", "1", "--m-samples", "1300"], None),
    # walks longer than 1023 steps: a sweep block's 256 rows run in several row slabs
    "prob-twopoint-multislab": (
        ["prob", "--seed", "17", "--family", "twopoint", "--step", "0.7", "--regime", "end_window",
         "--regime-param", "3", "--n-grid", "1001,2047,4095", "--m-samples", "517"], "multi-slab"),
    "scaling-uniform-multislab": (
        ["scaling", "--seed", "18", "--family", "uniform", "--halfwidth", "1.5",
         "--n-grid", "256,512,1024,2048", "--m-samples", "600"], "multi-slab"),
    "pgf-twopoint-multislab": (
        ["pgf", "--seed", "19", "--family", "twopoint", "--step", "0.7", "--n", "4095",
         "--s-grid", "0,0.5,0.9,1", "--m-samples", "300"], "multi-slab"),
    "duality-uniform-multislab": (
        ["duality", "--seed", "20", "--family", "uniform", "--halfwidth", "1", "--n", "2999",
         "--regime", "end_window", "--regime-param", "5", "--beta-grid", "1,inf",
         "--m-samples", "300"], "multi-slab"),
    "strata-gaussian-multislab": (
        ["strata", "--seed", "21", "--n", "3000", "--regime", "end_window", "--regime-param", "100",
         "--strata-N", "10", "--beta-grid", "1", "--m-samples", "300"], "multi-slab"),
    "oracle-gaussian": (["oracle", "--seed", "13", "--m-samples", "5000"], None),
    # 5 persistence blocks, so 5 jackknife groups; x + X lands on table nodes
    "oracle-twopoint": (
        ["oracle", "--seed", "14", "--family", "twopoint", "--step", "1", "--m-samples", "20000"], None),
    "oracle-uniform": (
        ["oracle", "--seed", "15", "--family", "uniform", "--halfwidth", "1.5",
         "--m-samples", "20000"], None),
}


def run_case(argv: list[str], out: Path) -> tuple[int, list[str], list[str]]:
    """Exit code, `kind=result` lines and printed lines of one CLI run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv + ["--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines() if out.exists() else []
    results = [ln for ln in lines if json.loads(ln).get("kind") == "result"]
    return rc, results, stdout.getvalue().splitlines()


def write_case(name: str, argv: list[str], requires: str | None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        rc, results, printed = run_case(argv + ["--shards", "1"], Path(tmp) / "out.ndjson")
    header = {"kind": "golden", "argv": argv, "exit": rc, "numpy": np.__version__,
              "requires": requires}
    lines = [json.dumps(header, separators=(",", ":")), *results]
    lines += [json.dumps({"kind": "stdout", "line": ln}, separators=(",", ":")) for ln in printed]
    (GOLDEN_DIR / f"{name}.ndjson").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    for old in GOLDEN_DIR.glob("*.ndjson"):
        old.unlink()
    for name, (argv, requires) in CASES.items():
        write_case(name, argv, requires)
        print(f"wrote {name}.ndjson")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""clanmc benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload it runs every workload in turn, each in its own process.
Run from the root of a checkout; no install step is needed.  The checkout's
`src/` is put on the import path, and the run stops before measuring if
`clanmc` resolves to a copy outside the checkout.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones (setup_s, run_s, cpu_s,
peak_rss_mb).  With --trace 1 untraced and traced rounds alternate, and the
metrics are the per-layer ones, the traced and untraced round times, and the
summed self time of all traced layers.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 11


def import_clanmc():
    """Import clanmc from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "clanmc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'clanmc'} not found; "
                         "run the benchmark from the root of a clanmc checkout")
    sys.path.insert(0, str(src))
    import clanmc
    where = Path(clanmc.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"perfbench: clanmc was imported from {where}, "
                         f"not from the checkout under test ({src})")
    return clanmc


def setup(name: str, seed: int):
    """Import clanmc and resolve every configuration the workload will run."""
    import_clanmc()
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed)
    for op in workload.operations():
        op.config()
    return workload


def time_setup(args) -> float:
    """Wall time of a fresh interpreter that imports clanmc and resolves the config."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    began = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - began
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return elapsed


def run_operation(op, out_path: Path):
    """One clanmc subcommand through the CLI entry point, as a user runs it."""
    from clanmc import cli
    from workloads import Outcome
    stdout = io.StringIO()
    error = ""
    out_path.unlink(missing_ok=True)  # a failed call must not leave an earlier round's output
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout):
        warnings.simplefilter("always")
        try:
            code = cli.main(op.argv(str(out_path)))
        except Exception as exc:  # a crash is a failed operation, reported below
            code, error = None, f"{type(exc).__name__}: {exc}"
    output = out_path.read_text(encoding="utf-8") if out_path.is_file() else ""
    return Outcome(code, stdout.getvalue(), [str(w.message) for w in caught], output, error)


def judge(workload, ops, outcomes, reference=None) -> list[str]:
    """Problems with one round: every failed operation, then the workload's
    checks (first round) or any result record that differs from the first round's."""
    problems = [f"{op.label}: exit code {o.exit_code} {o.error}".rstrip()
                for op, o in zip(ops, outcomes) if o.failed]
    if reference is None:
        return problems + workload.check(outcomes)
    return problems + [f"{op.label}: result records differ from the first round's"
                       for op, a, b in zip(ops, reference, outcomes)
                       if a.result_lines() != b.result_lines()]


def run_all(args) -> int:
    """Run every workload, each in a process of its own, and sum up their results."""
    import_clanmc()
    import workloads
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or all (the default) to run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    workload = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    # Set-up probes are spread over the run, one before each round and the
    # rest after the last, so that their median does not rest on one moment
    # of a shared host.
    setup_times = []
    probes = 0 if args.trace else SETUP_PROBES

    raw_dir = RESULTS / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    ops = workload.operations()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    # A traced run starts with one untimed round, so that neither the traced
    # nor the untraced rounds it compares carry the process's first-round cost.
    warmup = 1 if tracer else 0
    walls = {False: [], True: []}   # round wall times, keyed by "traced"
    cpus = []
    layer_rounds = []
    first = None
    attempted = failed = 0
    problems = []
    spent = 0.0
    rnd = 0
    while (rnd <= warmup or spent < args.seconds
           or (tracer and not (walls[True] and walls[False]))):
        if len(setup_times) < probes:
            setup_times.append(time_setup(args))
        traced = bool(tracer) and rnd % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            outcomes = [run_operation(op, raw_dir / f"{workload.name}-{op.label}.ndjson")
                        for op in ops]
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if traced:
                tracer.uninstall()
        if rnd >= warmup:
            spent += wall
            walls[traced].append(wall)
            if traced:
                layer_rounds.append(tracer.layer_metrics())
            else:
                cpus.append(cpu)
        attempted += len(outcomes)
        failed += sum(o.failed for o in outcomes)
        problems += [f"round {rnd}: {p}" for p in judge(workload, ops, outcomes, first)]
        first = first or outcomes
        rnd += 1
    setup_times += [time_setup(args) for _ in range(probes - len(setup_times))]

    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)

    if tracer:
        from tracing import PER_LAYER
        metrics = {}
        for name, unit in PER_LAYER:
            metrics[name] = {"value": statistics.median(r[name] for r in layer_rounds), "unit": unit}
        traced_s, untraced_s = statistics.median(walls[True]), statistics.median(walls[False])
        metrics["trace.run_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.untraced_run_s"] = {"value": untraced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        metrics["trace.self_s_total"] = {
            "value": statistics.median(r["self_s_total"] for r in layer_rounds), "unit": "s"}
        dump = {"workload": workload.name, "seed": args.seed, "rounds": layer_rounds,
                "last_round_spans": tracer.span_dump()}
        (RESULTS / f"trace-{workload.name}.json").write_text(json.dumps(dump), encoding="utf-8")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print("round wall times (s): " + " ".join(
        f"{'T' if traced else 'U'}{w:.3f}" for traced in (False, True) for w in walls[traced]),
        file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    correct = not problems
    print(f"{workload.name} attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload once at a tiny size through the same operation runner
and judgement the benchmark uses, then judges a deliberately broken copy of
that output to show it is rejected.  Finally it runs
lst-proportional at shards=1 and shards=2 and requires byte-identical
kind=result records (the shard count may change only wall time).  Prints
one PASS/FAIL line per item and exits 0 when all pass; takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from run import RESULTS, import_clanmc, judge, run_operation

SEED = 1


def run_round(workload, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    return [run_operation(op, out_dir / f"{workload.name}-{op.label}.ndjson")
            for op in workload.operations()]


def broken(outcome, edit):
    """A copy of the outcome whose result records went through edit(records)."""
    records = [json.loads(ln) for ln in outcome.result_lines()]
    edit(records)
    output = "\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    return dataclasses.replace(outcome, output=output)


def _raise_last_point(records):
    points = [r for r in records if r["quantity"] == "scaling-point"]
    points[-1]["mean"] = 2.0 * points[-2]["mean"]


def _nonzero_lambda_inf(records):
    records[-1]["mean"] = 1e-300


def _failed_oracle(outcome):
    """What `clanmc oracle` gives when one of its checks fails: a FAIL line and exit 3."""
    return dataclasses.replace(outcome, exit_code=3,
                               stdout=outcome.stdout.replace("PASS ", "FAIL ", 1))


# one corruption per workload that the benchmark must reject
BREAKERS = {
    "scaling-end-window": lambda o: broken(o, _raise_last_point),
    "lst-proportional": lambda o: broken(o, _nonzero_lambda_inf),
    "oracle-suite": _failed_oracle,
}


def main() -> int:
    import_clanmc()
    from workloads import WORKLOADS, LstProportional

    out_dir = RESULTS / "selftest"
    results = []
    for name, cls in WORKLOADS.items():
        workload = cls(SEED, size="tiny")
        ops = workload.operations()
        outcomes = run_round(workload, out_dir)
        problems = judge(workload, ops, outcomes)
        results.append((f"{name} runs and passes its checks", not problems, "; ".join(problems)))
        if not problems:
            mutated = [BREAKERS[name](outcomes[0])] + outcomes[1:]
            caught = judge(workload, ops, mutated)
            results.append((f"{name} rejects a corrupted output", bool(caught),
                            "; ".join(caught) or "corruption not detected"))

    lines = {}
    for shards in (1, 2):
        (outcome,) = run_round(LstProportional(SEED, size="tiny", shards=shards),
                               out_dir / f"shards{shards}")
        lines[shards] = outcome.result_lines()
    same = bool(lines[1]) and lines[1] == lines[2]
    results.append(("lst-proportional kind=result records identical at shards=1 and 2", same,
                    f"{len(lines[1])} records" if same else "records differ"))

    for label, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())

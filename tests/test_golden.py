"""Every subcommand's `kind=result` lines against the committed golden files.

The files under tests/golden/ hold, per case, the argv, the exit code, the
numpy version that wrote them, the result lines and the printed report
lines; tests/golden/regenerate.py writes them.  Each case runs here at
shards 1 and 2 and must give the same bytes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from clanmc import estimators

from golden.regenerate import run_case

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FILES = sorted(GOLDEN_DIR.glob("*.ndjson"))


def load(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(ln) for ln in lines]
    results = [ln for ln, rec in zip(lines, records) if rec["kind"] == "result"]
    printed = [rec["line"] for rec in records if rec["kind"] == "stdout"]
    return records[0], results, printed


def test_golden_files_present():
    subcommands = {load(p)[0]["argv"][0] for p in FILES}
    assert subcommands == {"validate", "prob", "pgf", "lst", "scaling", "duality", "strata",
                           "oracle"}


@pytest.mark.parametrize("shards", ["1", "2"])
@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_same_records_as_golden(path, shards, tmp_path, monkeypatch):
    header, results, printed = load(path)
    assert header["numpy"] == np.__version__, (
        f"{path.name} was written with numpy {header['numpy']}, this is numpy "
        f"{np.__version__}; bits may differ across numpy versions, so regenerate the "
        f"golden files with tests/golden/regenerate.py on a tree whose numbers are known good")
    blocks, kernel_calls, fallback_rows = [], [], []
    sweep, logsumexp = estimators._sweep, estimators.logsumexp

    def counting_sweep(spec, n, m_samples, stream, purpose, kernel, *args, **kwargs):
        blocks.append(-(-m_samples // estimators._SWEEP_BLOCK))

        def counting_kernel(s):
            kernel_calls.append(s.shape[0])
            return kernel(s)
        return sweep(spec, n, m_samples, stream, purpose, counting_kernel, *args, **kwargs)

    def counting_logsumexp(a, *args, **kwargs):
        fallback_rows.append(a.shape[0])
        return logsumexp(a, *args, **kwargs)
    monkeypatch.setattr(estimators, "_sweep", counting_sweep)
    monkeypatch.setattr(estimators, "logsumexp", counting_logsumexp)

    rc, got_results, got_printed = run_case(header["argv"] + ["--shards", shards],
                                            tmp_path / "out.ndjson")
    assert rc == header["exit"]
    assert got_results == results
    assert got_printed == printed
    # the case exercises the path it was chosen for
    if header["requires"] == "lse-fallback":
        assert sum(fallback_rows) > 0
    elif header["requires"] == "multi-slab":  # some block ran in several row slabs
        assert len(kernel_calls) > sum(blocks)

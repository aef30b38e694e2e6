"""Every subcommand's `kind=result` lines against the committed golden files.

The files under tests/golden/ hold, per case, the argv, the exit code, the
numpy version that wrote them, the result lines and the printed report
lines; tests/golden/regenerate.py writes them.  Each case runs here at
shards 1 and 2 and must give the same bytes.  The files hold the bits of
numpy's AVX-512 dispatch path; on another path the exp/log kernels round
differently, so only the shard-count equality is checked there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clanmc import estimators

from conftest import simd_dispatch
from golden.regenerate import run_case

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FILES = sorted(GOLDEN_DIR.glob("*.ndjson"))
# the features whose dispatch path the golden files hold
AVX512_DISPATCH = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


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
    dispatch = (f"numpy here dispatches to {' '.join(simd_dispatch()) or 'baseline only'}; the "
                f"golden files hold the bits of the AVX-512 path ({' '.join(AVX512_DISPATCH)}), "
                f"and other paths round exp and log differently in the last digits")
    assert got_results == results, dispatch
    assert got_printed == printed, dispatch
    # the case exercises the path it was chosen for
    if header["requires"] == "lse-fallback":
        assert sum(fallback_rows) > 0
    elif header["requires"] == "multi-slab":  # some block ran in several row slabs
        assert len(kernel_calls) > sum(blocks)


@pytest.mark.skipif(not set(AVX512_DISPATCH) & set(simd_dispatch()),
                    reason="numpy dispatches to no AVX-512 path here, so there is none to disable")
def test_shard_counts_agree_off_the_golden_dispatch(tmp_path):
    # the golden path's kernels disabled in a subprocess: its bits may differ
    # from the files, but shards 1 and 2 must still give the same result lines
    header, _, _ = load(GOLDEN_DIR / "prob-uniform-end_window.ndjson")
    tests = Path(__file__).resolve().parent
    code = ("import json, sys\n"
            "from conftest import simd_dispatch\n"
            "from pathlib import Path\n"
            "from golden.regenerate import run_case\n"
            "argv = json.loads(sys.argv[1])\n"
            "runs = [run_case(argv + ['--shards', s], Path(f'out-{s}.ndjson')) for s in '12']\n"
            "print(json.dumps({'dispatch': simd_dispatch(), 'runs': runs}))\n")
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": " ".join(set(AVX512_DISPATCH) & set(simd_dispatch())),
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(header["argv"])], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert not set(AVX512_DISPATCH) & set(got["dispatch"])
    (rc1, results1, _), (rc2, results2, _) = got["runs"]
    assert rc1 == rc2 == header["exit"]
    assert results1 and results1 == results2

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clanmc import assoc_walk, clan_sim, cli, diagnostics, estimators, parallel
from clanmc.cli import RunConfig, parse_config_file
from clanmc.errors import ConfigurationError


def make_config(**over):
    values = {"seed": "12345"}
    values.update({k: str(v) for k, v in over.items()})
    return RunConfig.from_strings(values)


def result_lines(path):
    out = []
    for line in open(path, encoding="utf-8"):
        rec = json.loads(line)
        if rec.get("kind") == "result":
            out.append(line)
    return out


class TestConfig:
    def test_seed_mandatory(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_strings({})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_strings({"seed": "1", "bogus": "2"})

    def test_echo_round_trip(self):
        cfg = make_config(family="uniform", sigma="2", halfwidth="2.5", step="0.25",
                          regime="proportional", regime_param="0.25", n="48",
                          n_grid="8,16,32", m_samples="777", s_grid="0,1",
                          beta_grid="0.5,inf", strata_N="4", shards="3", out="x.ndjson",
                          format="csv", allow_assumption_violations="true")
        again = RunConfig.from_strings(cfg.echo_dict())
        assert again == cfg

    def test_every_flag_sets_its_key(self):
        flags = {
            "--seed": "seed", "--shards": "shards", "--out": "out", "--format": "format",
            "--family": "family", "--sigma": "sigma", "--halfwidth": "halfwidth",
            "--step": "step", "--regime": "regime", "--regime-param": "regime_param",
            "--n": "n", "--n-grid": "n_grid", "--m-samples": "m_samples",
            "--s-grid": "s_grid", "--beta-grid": "beta_grid", "--strata-N": "strata_N",
            "--allow-assumption-violations": "allow_assumption_violations",
        }
        parser = cli._build_parser()
        for flag, key in flags.items():
            assert getattr(parser.parse_args(["validate", flag, "v"]), key) == "v"

    def test_empty_grid_refused_before_shards_resolve(self):
        # a directly built config reaches the checks without the grid parser
        cfg = make_config()
        for key in ("n_grid", "s_grid", "beta_grid"):
            with pytest.raises(ConfigurationError, match="grids must be nonempty"):
                dataclasses.replace(cfg, **{key: ()}, shards=None)

    def test_infinity_parses(self):
        cfg = make_config(beta_grid="1,inf")
        assert cfg.beta_grid == (1.0, math.inf)

    def test_config_file_parsing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nseed = 42\nm_samples = 1000  # trailing\n\nfamily=gaussian\n")
        values = parse_config_file(str(p))
        assert values == {"seed": "42", "m_samples": "1000", "family": "gaussian"}

    def test_config_file_not_utf8_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"seed = 1\xff\n")
        rc = cli.main(["prob", "--config", str(p), "--m-samples", "200",
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"configuration error: cannot read config "
                                                   f"file {p}: ")
        assert not (tmp_path / "x.ndjson").exists()

    def test_single_n_defaults_to_grid_max(self):
        cfg = make_config(n_grid="8,64,32")
        assert cfg.single_n() == 64
        assert make_config(n="16").single_n() == 16

    @pytest.mark.parametrize("item", ["8", " 8 ", "+8", "08", "-3", "1_000", "9007199254740993",
                                      "1e3", "8.0", "0.5", "0x10", "nan", "inf", "eight"])
    def test_n_and_n_grid_parse_items_alike(self, item):
        def parse(key):
            try:
                return getattr(make_config(**{key: item}), key)
            except ConfigurationError as exc:
                assert str(exc).startswith(f"{key}: expected an integer")
                return None
        n, grid = parse("n"), parse("n_grid")
        assert (grid is None and n is None) or grid == (n,)
        if item == "9007199254740993":  # no float round trip
            assert grid == (2**53 + 1,)


class TestSubcommands:
    def test_cold_start_loads_no_scipy(self, tmp_path):
        # scipy.special alone costs about a third of a second per start
        src = Path(__file__).resolve().parents[1] / "src"
        code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
                "import clanmc, clanmc.cli\n"
                "assert clanmc.cli.main(['validate', '--seed', '1']) == 0\n"
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_import_loads_no_thread_pool(self, tmp_path):
        # map_blocks starts plain threads; concurrent.futures and the logging it
        # imports cost about 7-10 ms per start
        src = Path(__file__).resolve().parents[1] / "src"
        code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
                "import clanmc, clanmc.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('concurrent', 'logging')))\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("out", [False, True], ids=["records", "report-lines"])
    def test_closed_stdout_exits_one_without_traceback(self, out, tmp_path):
        # the records, or with --out only the report lines, meet a closed pipe
        argv = ["validate", "--seed", "1"] + (["--out", str(tmp_path / "v.ndjson")] if out else [])
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen([sys.executable, "-c",
                                 f"import sys; sys.path.insert(0, {str(src)!r})\n"
                                 f"from clanmc import cli; sys.exit(cli.main({argv!r}))"],
                                cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        proc.stdout.close()  # before the child has even imported numpy
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1, err
        assert err == "error: standard output closed before the run finished writing\n"

    def test_validate_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "v.ndjson"
        rc = cli.main(["validate", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text().splitlines()[1])
        assert rec["quantity"] == "validate" and rec["tag"] == "conforms"

    def test_prob_symmetry_smoke(self, tmp_path):
        out = tmp_path / "p.ndjson"
        rc = cli.main(["prob", "--seed", "7", "--n-grid", "1", "--regime", "fixed_i",
                       "--regime-param", "0", "--m-samples", "20000", "--out", str(out)])
        assert rc == 0
        rec = json.loads(result_lines(out)[0])
        assert abs(rec["mean"] - 0.5) <= 3 * rec["stderr"]

    def test_pgf_requires_end_window(self, tmp_path):
        rc = cli.main(["pgf", "--seed", "3", "--regime", "fixed_i", "--regime-param", "2",
                       "--n", "16", "--m-samples", "100", "--out", str(tmp_path / "t.ndjson")])
        assert rc == 2

    def test_pgf_endpoints_exact(self, tmp_path):
        out = tmp_path / "t.ndjson"
        rc = cli.main(["pgf", "--seed", "3", "--n", "32", "--m-samples", "2000",
                       "--s-grid", "0,0.5,1", "--out", str(out)])
        assert rc == 0
        recs = [json.loads(line) for line in result_lines(out)]
        assert recs[0]["param"] == 0.0 and recs[0]["mean"] == 0.0
        assert recs[-1]["param"] == 1.0 and recs[-1]["mean"] == 1.0

    @pytest.mark.parametrize("argv, exact", [
        (["pgf", "--s-grid", "0,1e-9,1e-6,0.5,1"], {0.0, 1.0}),
        (["lst", "--regime", "proportional", "--regime-param", "0.5",
          "--beta-grid", "100,1e4,1e8,inf"], {math.inf}),
    ])
    def test_transform_stderr_zero_only_at_exact_points(self, argv, exact, tmp_path):
        # theta(0), theta(1) and lambda(inf) are exact; every other point has an error,
        # however close its ratio is to a trivial end
        out = tmp_path / "t.ndjson"
        rc = cli.main(argv + ["--seed", "1", "--n", "256", "--m-samples", "20000",
                              "--out", str(out)])
        assert rc == 0
        recs = [json.loads(line) for line in result_lines(out)]
        assert len(recs) == len(argv[-1].split(","))
        for rec in recs:
            param = math.inf if rec["param"] == "inf" else rec["param"]
            if param in exact:
                assert rec["stderr"] == 0.0, rec
            else:
                assert rec["stderr"] > 0.0, rec

    def test_lst_unreliable_ratio_exit_three(self, tmp_path):
        rc = cli.main(["lst", "--seed", "11", "--regime", "proportional", "--regime-param",
                       "0.5", "--n", "2048", "--m-samples", "2000",
                       "--out", str(tmp_path / "l.ndjson")])
        assert rc == 3

    @pytest.mark.parametrize("subcommand", ["prob", "lst", "scaling", "duality", "strata"])
    def test_proportional_lattice_exit_four(self, subcommand, tmp_path, capsys):
        # every subcommand that reads the regime refuses it, and the override tags every record
        out = tmp_path / "s.ndjson"
        argv = [subcommand, "--seed", "5", "--family", "twopoint", "--step", "0.7",
                "--regime", "proportional", "--regime-param", "0.5", "--n", "16",
                "--n-grid", "8,16,32,64", "--strata-N", "2", "--beta-grid", "1",
                "--m-samples", "200", "--out", str(out)]
        assert cli.main(argv) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert cli.main(argv + ["--allow-assumption-violations", "true"]) == 0
        recs = [json.loads(line) for line in open(out, encoding="utf-8")]
        results = [r for r in recs if r["kind"] == "result"]
        assert results and {r["tag"] for r in results} == {"assumptions-violated"}
        assert recs[-1]["tags"] == ["assumptions-violated"]

    def test_unknown_subcommand_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--seed", "1"])
        assert exc.value.code == 2

    def test_missing_seed_exit_two(self, tmp_path):
        rc = cli.main(["prob", "--n-grid", "4", "--m-samples", "10",
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2

    def test_csv_format(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = cli.main(["prob", "--seed", "7", "--n-grid", "4,8", "--m-samples", "500",
                       "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,n,i,param,mean,stderr,count,tag"
        assert len(lines) == 3
        assert lines[1].startswith("prob,4,1,,")

    def test_oracle_all_pass(self, tmp_path, capsys):
        out = tmp_path / "o.ndjson"
        rc = cli.main(["oracle", "--seed", "13", "--m-samples", "5000", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "oracle suite: all checks passed" in printed
        recs = [json.loads(line) for line in result_lines(out)]
        assert len(recs) == 5 and all(r["tag"] == "pass" for r in recs)

    def test_oracle_runs_on_its_shards(self, tmp_path, monkeypatch):
        seen = []
        for mod in (assoc_walk, clan_sim):
            def counting(fn, n_blocks, shards=None, _orig=mod.map_blocks, _name=mod.__name__):
                seen.append((_name, shards))
                return _orig(fn, n_blocks, shards)
            monkeypatch.setattr(mod, "map_blocks", counting)
        out = tmp_path / "o.ndjson"
        args = ["oracle", "--seed", "13", "--m-samples", "5000", "--out", str(out)]
        assert cli.main(args + ["--shards", "2"]) == 0
        assert {name for name, _ in seen} == {"clanmc.assoc_walk", "clanmc.clan_sim"}
        assert {shards for _, shards in seen} == {2}
        # without --shards the run resolves its count once and echoes it
        seen.clear()
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        assert cli.main(args) == 0
        assert json.loads(out.read_text().splitlines()[0])["shards"] == "3"
        assert seen and {shards for _, shards in seen} == {3}

    @pytest.mark.parametrize("requested, used", [("20000", 20_000), ("100000", 50_000)])
    def test_oracle_run_record_carries_samples_used(self, requested, used, tmp_path, capsys,
                                                    monkeypatch):
        # the suite is stubbed: only the sample count it is handed matters here
        seen = []

        def stub_suite(spec, stream, m_samples, shards=None):
            seen.append(m_samples)
            return [diagnostics.CheckResult("stub", True, "ok")]
        monkeypatch.setattr(diagnostics, "run_oracle_suite", stub_suite)
        out = tmp_path / "o.ndjson"
        assert cli.main(["oracle", "--seed", "1", "--m-samples", requested, "--out", str(out)]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert seen == [used]
        assert lines[0]["m_samples"] == requested  # the echo keeps the request
        assert lines[-1]["kind"] == "run_record" and lines[-1]["m_samples_used"] == used
        assert capsys.readouterr().out.splitlines() == ["PASS stub: ok",
                                                        "oracle suite: all checks passed"]

    def test_oracle_single_persistence_block_exit_two(self, tmp_path, capsys):
        # 4096 samples fill one persistence block; the jackknife needs two
        rc = cli.main(["oracle", "--seed", "1", "--m-samples", "4096",
                       "--out", str(tmp_path / "o.ndjson")])
        assert rc == 2
        assert "m_samples must be >= 4097" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, args", [
        *(pytest.param(sub, ["--sigma", "40", "--n", "32", "--n-grid", "8,16,32,64"], id=sub)
          for sub in cli.SUBCOMMANDS),
        # at sigma = 1e307 some partial sums of a 256-step walk leave the double range
        *(pytest.param(sub, ["--sigma", "1e307", "--n", "256", "--n-grid", "8,16,32,256",
                             "--strata-N", "1"], id=f"{sub}-overflowed-walk")
          for sub in cli.SUBCOMMANDS),
    ])
    def test_unrepresentable_moment_documented_exit(self, subcommand, args, tmp_path, capsys):
        # exp(0.5 sigma^2) exceeds the double range from sigma ~ 37.7 on
        rc = cli.main([subcommand, "--seed", "1", *args, "--m-samples", "200",
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc in (0, 2, 3)
        if subcommand == "validate":
            assert rc == 0
            assert "exp_moment_value: inf" in capsys.readouterr().out
        elif args[1] == "1e307" and subcommand != "oracle":
            assert rc == 3
            assert "walk overflowed" in capsys.readouterr().err

    def test_walk_spread_beyond_double_range_exit_three(self, tmp_path, capsys):
        # finite walks whose max - min leaves the double range have no usable log-sums
        rc = cli.main(["duality", "--seed", "1", "--sigma", "1e307", "--n", "32",
                       "--m-samples", "200", "--out", str(tmp_path / "x.ndjson")])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: environment walk spans more than the double range"]

    @pytest.mark.parametrize("sigma", ["100", "1e200"])
    def test_oracle_harmonicity_table_bounded(self, sigma, tmp_path, capsys, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("the harmonicity table was allocated")
        monkeypatch.setattr(assoc_walk, "_persistence_scan", scan)
        rc = cli.main(["oracle", "--seed", "1", "--sigma", sigma, "--m-samples", "5000",
                       "--out", str(tmp_path / "o.ndjson")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "limit of 1024" in err[0]

    def test_oracle_refuses_before_other_checks(self, tmp_path, capsys, monkeypatch):
        def check(*args, **kwargs):
            raise AssertionError("an oracle check ran before the harmonicity refusal")
        for name in ("mobius_equivalence_check", "definitional_h_check", "simulator_check",
                     "reversed_product_check"):
            monkeypatch.setattr(diagnostics, name, check)
        # too wide a table, then too few persistence blocks
        for m_samples in ("5000", "500"):
            rc = cli.main(["oracle", "--seed", "1", "--sigma", "100", "--m-samples", m_samples,
                           "--out", str(tmp_path / "o.ndjson")])
            assert rc == 2
            assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["prob", "--n-grid", str(10**300)],
        ["prob", "--n-grid", "1000000000"],
        ["lst", "--n", "65537"],
        ["scaling", "--n-grid", "8,16,32,1000000000"],
        ["strata", "--n", "100000", "--regime", "fixed_i", "--regime-param", "0"],
    ])
    def test_walk_length_bounded_before_sampling(self, argv, tmp_path, capsys, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a sweep drew increments before the walk-length refusal")
        monkeypatch.setattr(estimators, "draw_increments", draw)
        rc = cli.main([*argv, "--seed", "1", "--m-samples", "2",
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"limit of {estimators._MAX_N}" in err[0]

    @pytest.mark.parametrize("shards", ["65", "100000"])
    def test_shard_count_bounded_before_threads(self, shards, tmp_path, capsys, monkeypatch):
        def thread(*args, **kwargs):
            raise AssertionError("a worker thread started before the shard-count refusal")
        monkeypatch.setattr(parallel.threading, "Thread", thread)
        rc = cli.main(["prob", "--seed", "1", "--shards", shards, "--m-samples", "10000000",
                       "--n-grid", "256", "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"between 1 and {parallel._MAX_SHARDS}" in err[0]

    def test_scaling_grid_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("a grid point was sampled before the grid was refused")
        monkeypatch.setattr(estimators, "_sweep", sweep)
        # floor(0.01 n) = 0 on every grid point, where the compensator vanishes
        rc = cli.main(["scaling", "--seed", "1", "--regime", "proportional",
                       "--regime-param", "0.01", "--n-grid", "8,16,32,64",
                       "--m-samples", "200000", "--out", str(tmp_path / "s.ndjson")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "gives i=0 at n=8" in err[0]

    @pytest.mark.parametrize("regime_args, advice", [
        (["--regime-param", "3"], "the largest valid strata_N is 1"),
        (["--regime", "fixed_i", "--regime-param", "10"], "the largest valid strata_N is 18"),
        (["--regime-param", "2"], "no strata_N is valid; choose a regime that leaves n - i >= 3"),
    ])
    def test_strata_window_refusal_names_the_fix(self, regime_args, advice, tmp_path, capsys):
        rc = cli.main(["strata", "--seed", "7", "--n", "48", "--m-samples", "3000",
                       *regime_args, "--out", str(tmp_path / "st.ndjson")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(advice), err

    @pytest.mark.parametrize("subcommand, args", [
        ("prob", ["--n-grid", "16"]),
        ("lst", ["--n", "16"]),
    ])
    def test_single_sample_exit_two(self, subcommand, args, tmp_path, capsys):
        # one sample has no standard error: prob reported 0.0, lst bare Infinity tokens
        rc = cli.main([subcommand, "--seed", "1", *args, "--m-samples", "1",
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: m_samples must be between 2 and 2^53 = 9007199254740992, "
            "got 1"]

    def test_oversized_sample_count_exit_two(self, tmp_path, capsys, monkeypatch):
        # every record echoes the count, which a JSON reader holding doubles keeps
        # exact only up to 2^53; the count is refused before any sampling
        def run(*args, **kwargs):
            raise AssertionError("the run started before the sample count was refused")
        monkeypatch.setattr(cli, "run", run)
        rc = cli.main(["prob", "--seed", "1", "--n-grid", "8", "--regime", "fixed_i",
                       "--regime-param", "2", "--m-samples", "100000000000000000",
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: m_samples must be between 2 and 2^53 = 9007199254740992, "
            "got 100000000000000000"]

    def test_sample_count_limit_is_two_to_the_53(self):
        assert RunConfig.from_strings({"seed": "1", "m_samples": str(2**53)}).m_samples == 2**53
        with pytest.raises(ConfigurationError, match="2\\^53"):
            RunConfig.from_strings({"seed": "1", "m_samples": str(2**53 + 1)})

    def test_unallocatable_run_exit_two(self, tmp_path, capsys, monkeypatch):
        def estimate(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(estimators, "estimate_event_prob_grid", estimate)
        rc = cli.main(["prob", "--seed", "1", "--n-grid", "8", "--m-samples", "10",
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: the run needs more memory than it could allocate; "
            "lower m_samples"]

    def test_zero_variance_scaling_exit_three(self, tmp_path, capsys):
        # step 0 is the constant environment: every point has stderr 0 and no finite weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["scaling", "--seed", "1", "--family", "twopoint", "--step", "0",
                           "--n-grid", "8,16,32,64", "--m-samples", "100",
                           "--out", str(tmp_path / "s.ndjson")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "grid point n=8 has standard error 0.0" in err[0]

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exit_two_before_sampling(self, where, tmp_path, capsys, monkeypatch):
        def run(*args, **kwargs):
            raise AssertionError("the run started before the output path was refused")
        monkeypatch.setattr(cli, "run", run)
        out = tmp_path / "missing" / "x.ndjson" if where == "missing-dir" else tmp_path
        rc = cli.main(["validate", "--seed", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"configuration error: out '{out}'"), err

    def test_failed_run_empties_a_stale_out_file(self, tmp_path, capsys):
        out = tmp_path / "f.ndjson"
        out.write_text('{"kind":"result","stale":true}\n', encoding="utf-8")
        rc = cli.main(["lst", "--seed", "5", "--n", "3001", "--regime", "proportional",
                       "--regime-param", "0.5", "--beta-grid", "1e-3,1,inf",
                       "--m-samples", "1000", "--out", str(out)])
        assert rc == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert out.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("shards", ["1", "2"])
    @pytest.mark.parametrize("argv", [
        ["prob", "--sigma", "1e200", "--n-grid", "8", "--m-samples", "50"],
        ["lst", "--sigma", "1e20", "--n", "8", "--m-samples", "200", "--beta-grid", "1,inf"],
        # here a drawn increment itself leaves the double range
        ["prob", "--sigma", "1e308", "--n-grid", "8", "--m-samples", "10"],
        ["lst", "--sigma", "1.7e308", "--n", "8", "--m-samples", "10"],
    ])
    def test_overflowing_probability_column_exit_three(self, argv, shards, tmp_path, capsys):
        # exp of a log-probability column, or an increment, overflows to inf;
        # no numpy warning may leak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([*argv, "--seed", "1", "--shards", shards,
                           "--out", str(tmp_path / "x.ndjson")])
        assert rc == 3
        walk = float(argv[2]) > 1e300
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: environment walk overflowed the double range" if walk else
            "numerical failure: a Monte Carlo average got a non-finite sample value"]

    @pytest.mark.parametrize("argv", [
        ["--n-grid", "inf"],
        ["--n-grid", "nan"],
        ["--regime", "fixed_i", "--regime-param", "nan"],
        ["--regime", "end_window", "--regime-param", "inf"],
        ["--family", "uniform", "--halfwidth", "1e308"],
    ])
    def test_nonfinite_config_exit_two(self, argv, tmp_path):
        rc = cli.main(["prob", "--seed", "1", "--n-grid", "8", "--m-samples", "10", *argv,
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2

    def test_scaling_dropped_points_are_records(self, tmp_path):
        out = tmp_path / "s.ndjson"
        rc = cli.main(["scaling", "--seed", "1", "--regime", "fixed_i", "--regime-param", "0",
                       "--n-grid", "8,16,24,32,64,8192", "--m-samples", "200",
                       "--out", str(out)])
        assert rc == 0
        recs = [json.loads(line) for line in result_lines(out)]
        dropped = [r for r in recs if r["quantity"] == "scaling-dropped"]
        assert [r["n"] for r in dropped] == [64, 8192]
        assert all(r["mean"] <= 3 * r["stderr"] for r in dropped)
        assert [r["n"] for r in recs if r["quantity"] == "scaling-point"] == [8, 16, 24, 32]

    def test_float_grid_item_exit_two(self, tmp_path, capsys):
        rc = cli.main(["prob", "--seed", "1", "--n-grid", "8,1e3", "--m-samples", "10",
                       "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: n_grid: expected an integer, got '1e3'"]

    def test_prob_grid_records(self, tmp_path):
        def records(grid):
            out = tmp_path / f"p-{grid}.ndjson"
            assert cli.main(["prob", "--seed", "5", "--n-grid", grid, "--m-samples", "600",
                             "--out", str(out)]) == 0
            return result_lines(out)
        # the largest point of a grid is the one-point run, byte for byte
        assert records("64,128,256")[-1] == records("256")[0]
        # order and repeats are kept; a repeat is the same record
        lines = records("128,64,128")
        assert [json.loads(line)["n"] for line in lines] == [128, 64, 128]
        assert lines[0] == lines[2]

    def test_duality_and_strata_smoke(self, tmp_path):
        rc = cli.main(["duality", "--seed", "9", "--regime", "fixed_i", "--regime-param", "12",
                       "--n", "16", "--beta-grid", "1,inf", "--m-samples", "2000",
                       "--out", str(tmp_path / "d.ndjson")])
        assert rc == 0
        rc = cli.main(["strata", "--seed", "9", "--regime", "fixed_i", "--regime-param", "48",
                       "--n", "64", "--beta-grid", "1", "--strata-N", "3",
                       "--m-samples", "2000", "--out", str(tmp_path / "st.ndjson")])
        assert rc == 0
        recs = [json.loads(line) for line in result_lines(tmp_path / "st.ndjson")]
        total = next(r for r in recs if r["quantity"] == "strata-total")
        masses = sum(r["mean"] for r in recs if r["quantity"] != "strata-total")
        assert masses == pytest.approx(total["mean"], rel=1e-12)


class TestDeterminism:
    def test_shard_count_immaterial(self, tmp_path):
        # 1300 samples: five full blocks of 256 and a short last block of 20
        for args in (
            ["prob", "--n-grid", "32,64"],
            ["prob", "--n-grid", "16,33", "--family", "uniform", "--halfwidth", "2"],
            ["prob", "--n-grid", "16,33", "--family", "twopoint",
             "--allow-assumption-violations", "true"],
            ["pgf", "--n", "32", "--s-grid", "0,0.5,1"],
            ["lst", "--n", "32", "--regime", "proportional", "--regime-param", "0.5",
             "--beta-grid", "0.5,10,inf"],
            ["scaling", "--n-grid", "8,16,32,64"],
            ["duality", "--n", "32", "--beta-grid", "1,inf"],
            ["strata", "--n", "32", "--regime", "fixed_i", "--regime-param", "8",
             "--strata-N", "3", "--beta-grid", "1,inf"],
        ):
            args = args + ["--seed", "2024", "--m-samples", "1300"]
            lines = []
            for shards in ("1", "2", "4"):
                out = tmp_path / f"{args[0]}-{shards}.ndjson"
                assert cli.main(args + ["--shards", shards, "--out", str(out)]) == 0, args
                lines.append(result_lines(out))
            assert lines[0] and lines[0] == lines[1] == lines[2], args

    def test_identical_rerun_byte_identical(self, tmp_path):
        args = ["lst", "--seed", "31337", "--regime", "end_window", "--regime-param", "3",
                "--n", "64", "--beta-grid", "0.5,inf", "--m-samples", "2000"]
        out1, out2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert result_lines(out1) == result_lines(out2)
        # run records differ only in wall-clock timing and the output path
        rec1, rec2 = (json.loads(open(p).readlines()[-1]) for p in (out1, out2))
        for rec in (rec1, rec2):
            rec.pop("timing_s")
            rec["config"].pop("out")
        assert rec1 == rec2


def edge_argv(subcommand, n):
    if subcommand == "prob":
        return ["prob", "--n-grid", str(n)]
    if subcommand == "scaling":
        return ["scaling", "--n-grid", f"{n // 8},{n // 4},{n // 2},{n}"]
    return [subcommand, "--n", str(n)] + (["--strata-N", "1"] if subcommand == "strata" else [])


# walks of several row slabs, up to the walk-length limit and one past it; kept
# out of the fuzz loop below, whose 500 examples draw n <= 64
@pytest.mark.parametrize("subcommand, n", [
    *[(sub, n) for n in (1024, 4095)
      for sub in ("prob", "scaling", "pgf", "lst", "duality", "strata")],
    *[(sub, n) for n in (65536, 65537) for sub in ("prob", "lst")],
])
def test_edge_walk_lengths(subcommand, n, tmp_path):
    results = []
    for shards in ("1", "2"):
        out = tmp_path / f"shards{shards}.ndjson"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*edge_argv(subcommand, n), "--seed", "1", "--m-samples", "300",
                           "--shards", shards, "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert rc in (0, 2, 3, 4) and (rc == 2) == (n > estimators._MAX_N), (rc, lines)
        if rc:
            assert len(lines) == 1, lines
        for line in out.read_text().splitlines():  # strict JSON: no bare NaN or Infinity
            json.loads(line, parse_constant=lambda token: pytest.fail(f"{token} in {line}"))
        results.append(result_lines(out))
    assert results[0] == results[1]


def mostly(sane, extreme):
    """One value in ten from the extreme list, so most runs get past validation."""
    return st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(extreme if k == 9 else sane))


SCALE = mostly(["0.5", "1", "3"], ["nan", "inf", "-inf", "-1", "0", "5e-324", "1e-300", "40",
                                    "1e307", "1.7e308"])
N_VALUES = mostly(["5", "8", "12", "16", "24", "33", "48", "64"],
                  ["nan", "inf", "-4", "0", "0.5", "1", "2", "3", "1e9", "1e300"])
REGIMES = mostly([("end_window", "1"), ("end_window", "3"), ("fixed_i", "0"), ("fixed_i", "3"),
                  ("proportional", "0.01"), ("proportional", "0.5"), ("proportional", "0.99")],
                 [("bogus", "1"), ("fixed_i", "nan"), ("fixed_i", "-1"), ("fixed_i", "1e300"),
                  ("end_window", "inf"), ("end_window", "5e-324"), ("proportional", "-inf"),
                  ("proportional", "0")])


def grid(values, size=4):
    return st.integers(0, 9).flatmap(lambda k: st.lists(
        values, min_size=1 if k == 9 else size, max_size=size)).map(",".join)


# "=" keeps argparse from reading a value such as "-inf" as a flag
KEYS = {
    "--seed": mostly(["1", "2", "3"], ["-1", "0", str(2**64 - 1), str(2**64)]),
    "--family": mostly(["gaussian", "uniform", "twopoint"], ["cauchy"]),
    "--sigma": SCALE, "--halfwidth": SCALE, "--step": SCALE,
    "--n": N_VALUES,
    "--n-grid": grid(N_VALUES),
    "--m-samples": mostly(["2", "3", "50", "200", "500"], ["-1", "0", "1"]),
    "--s-grid": grid(mostly(["0", "0.25", "0.5", "0.99", "1"],
                            ["nan", "-inf", "-0.5", "5e-324", "2", "inf"])),
    "--beta-grid": grid(mostly(["1e-4", "1", "100", "inf"],
                               ["nan", "-inf", "-1", "0", "5e-324", "1e-300", "1e300"])),
    "--strata-N": mostly(["1", "2", "3"], ["-1", "0", "100"]),
    "--shards": mostly(["1", "2", "3"], ["-1", "0", "65", "1000000"]),
}


@st.composite
def cli_argv(draw):
    regime, param = draw(REGIMES)
    return [draw(st.sampled_from(cli.SUBCOMMANDS)), f"--regime={regime}",
            f"--regime-param={param}"] + [f"{flag}={draw(values)}" for flag, values in KEYS.items()]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
# two duality forms that differ with zero standard error exit 3, not z = Infinity
@example(argv=["duality", "--seed=1", "--family=twopoint", "--step=0.7", "--n=1",
               "--regime=fixed_i", "--regime-param=0", "--m-samples=2", "--beta-grid=1"])
def test_cli_config_fuzz(argv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "x.ndjson"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", str(out)])
    lines = err.getvalue().splitlines()
    assert rc in (0, 2, 3, 4), (argv, rc, lines)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert len(lines) == 1, (argv, lines)
    else:  # strict JSON: no bare NaN or Infinity tokens
        for line in out.read_text().splitlines():
            json.loads(line, parse_constant=lambda token: pytest.fail(f"{token} in {line}"))

import dataclasses
import json
import math

import pytest

from clanmc import assoc_walk, cli
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
        assert list(cfg.echo_dict()) == [f.name for f in dataclasses.fields(RunConfig)]

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

    def test_infinity_parses(self):
        cfg = make_config(beta_grid="1,inf")
        assert cfg.beta_grid == (1.0, math.inf)

    def test_config_file_parsing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nseed = 42\nm_samples = 1000  # trailing\n\nfamily=gaussian\n")
        values = parse_config_file(str(p))
        assert values == {"seed": "42", "m_samples": "1000", "family": "gaussian"}

    def test_single_n_defaults_to_grid_max(self):
        cfg = make_config(n_grid="8,64,32")
        assert cfg.single_n() == 64
        assert make_config(n="16").single_n() == 16


class TestSubcommands:
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

    def test_lst_unreliable_ratio_exit_three(self, tmp_path):
        rc = cli.main(["lst", "--seed", "11", "--regime", "proportional", "--regime-param",
                       "0.5", "--n", "2048", "--m-samples", "2000",
                       "--out", str(tmp_path / "l.ndjson")])
        assert rc == 3

    def test_proportional_lattice_exit_four(self, tmp_path):
        rc = cli.main(["scaling", "--seed", "5", "--family", "twopoint", "--step", "0.7",
                       "--regime", "proportional", "--regime-param", "0.5",
                       "--n-grid", "8,16,32,64", "--m-samples", "200",
                       "--out", str(tmp_path / "s.ndjson")])
        assert rc == 4

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
        args = ["prob", "--seed", "2024", "--n-grid", "32,64", "--m-samples", "3000",
                "--regime", "end_window", "--regime-param", "3"]
        out1, out4 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert cli.main(args + ["--shards", "1", "--out", str(out1)]) == 0
        assert cli.main(args + ["--shards", "4", "--out", str(out4)]) == 0
        assert result_lines(out1) == result_lines(out4)

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

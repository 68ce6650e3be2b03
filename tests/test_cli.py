"""Command line behavior: parsing, validation, outputs, and determinism."""

import argparse
import json
import math
from dataclasses import replace

import pytest

from chfdet import cli, fredholm, painleve
from chfdet.cli import main, parse_config, run, ConfigError, RunConfig
from chfdet.fredholm import log_det
from chfdet.kernel import Configuration, KernelParams
from chfdet.painleve import cpv_init
from chfdet.stats import counting_statistics

SINE_ARGS = ["--alpha", "0", "--beta-im", "0", "--r", "0=0,1=1", "--gamma", "0=0.5"]

# The keys each command reads besides alpha, beta_im, r, out and format
READS = {
    "det": {"gamma", "t", "t_range"},
    "asymp": {"gamma", "t", "t_range"},
    "painleve": {"gamma", "t", "tol"},
    "verify": {"gamma", "t_range", "tol"},
    "moments": {"t"},
}
VALID_ARGV = {
    "det": ["det", *SINE_ARGS, "--t", "2"],
    "asymp": ["asymp", *SINE_ARGS, "--t", "2"],
    "painleve": ["painleve", *SINE_ARGS, "--t", "2"],
    "verify": ["verify", *SINE_ARGS, "--t-range", "1:2:2"],
    "moments": ["moments", "--r", "0=0,1=1", "--t", "2"],
}
KEY_VALUES = {"gamma": "0=0.5", "t": "2", "t_range": "1:2:2", "tol": "1e-9"}


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParsing:
    def test_full_flag_set_builds_expected_run_config(self):
        rc = parse_config(
            [
                "painleve",
                "--alpha",
                "0.25",
                "--beta-im",
                "0.3",
                "--r",
                "0=-1,1=0,2=1",
                "--gamma",
                "0=0.3,1=0.6",
                "--t",
                "5",
                "--tol",
                "1e-8",
                "--format",
                "csv",
            ]
        )
        assert rc.command == "painleve"
        assert rc.params == KernelParams(alpha=0.25, beta_im=0.3)
        assert rc.config == Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=5.0)
        assert rc.tol == 1e-8
        assert rc.format == "csv"

    def test_missing_origin_endpoint_is_rejected(self, capsys):
        code = main(["det", "--r", "0=1,1=2", "--gamma", "0=0.5", "--t", "2"])
        assert code == 2
        assert "exactly one endpoint must be 0" in capsys.readouterr().err

    def test_missing_required_keys_name_the_key(self, capsys):
        assert main(["det", "--gamma", "0=0.5", "--t", "2"]) == 2
        assert "'r'" in capsys.readouterr().err
        assert main(["det", "--r", "0=0,1=1", "--gamma", "0=0.5"]) == 2
        assert "'t'" in capsys.readouterr().err
        assert main(["verify", "--r", "0=0,1=1", "--gamma", "0=0.5"]) == 2
        assert "'t_range'" in capsys.readouterr().err

    def test_weight_outside_unit_interval_is_rejected(self, capsys):
        code = main(["det", "--r", "0=0,1=1", "--gamma", "0=1.5", "--t", "2"])
        assert code == 2
        assert "'gamma'" in capsys.readouterr().err

    def test_order_is_not_an_input(self, tmp_path, capsys):
        # the ellipse rule alone sets each panel's order
        argv = ["det", "--r", "0=0,1=1", "--gamma", "0=0.5", "--t", "1"]
        assert main([*argv, "--order", "40"]) == 2
        assert capsys.readouterr().out == ""
        path = tmp_path / "order.cfg"
        path.write_text("order = 40\n")
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown key 'order'" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [*VALID_ARGV.values(), ["det", *SINE_ARGS, "--t-range", "1:2:2"]],
        ids=[*VALID_ARGV, "det-t-range"],
    )
    def test_no_command_takes_an_order(self, argv, capsys):
        # each argv is valid, so the exit 2 is the flag's alone
        assert parse_config(argv).command == argv[0]
        assert main([*argv, "--order", "40"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --order 40" in captured.err

    def test_unit_weight_allowed_for_det_only(self):
        rc = parse_config(["det", "--r", "0=0,1=1", "--gamma", "0=1", "--t", "2"])
        assert rc.config.gamma == (1.0,)
        ranged = ["--r", "0=0,1=1", "--gamma", "0=1", "--t-range", "1:2:2"]
        rc = parse_config(["det", *ranged])
        assert rc.config.gamma == (1.0,) and rc.t_range == (1.0, 2.0, 2)
        with pytest.raises(ConfigError, match="requires weights < 1"):
            parse_config(["asymp", *ranged])
        with pytest.raises(ConfigError, match="requires weights < 1"):
            parse_config(["asymp", "--r", "0=0,1=1", "--gamma", "0=1", "--t", "2"])

    def test_indexed_values_must_cover_a_contiguous_range(self):
        with pytest.raises(ConfigError, match="0..1"):
            parse_config(["det", "--r", "0=0,2=1", "--gamma", "0=0.5", "--t", "2"])
        with pytest.raises(ConfigError, match="duplicate index"):
            parse_config(["det", "--r", "0=0,0=1", "--gamma", "0=0.5", "--t", "2"])

    def test_malformed_range_and_tolerance_are_rejected(self):
        base = ["verify", "--r", "0=0,1=1", "--gamma", "0=0.5"]
        with pytest.raises(ConfigError, match="start:stop:count"):
            parse_config(base + ["--t-range", "1:2"])
        with pytest.raises(ConfigError, match="count must be >= 0"):
            parse_config(base + ["--t-range", "1:2:-1"])
        with pytest.raises(ConfigError, match="start must be > 0"):
            parse_config(base + ["--t-range", "0:2:3"])
        with pytest.raises(ConfigError, match="'tol'"):
            parse_config(base + ["--t-range", "1:2:2", "--tol", "1"])

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--alpha", "abc"], "key 'alpha': expected a number"),
            (["--beta-im", "inf"], "key 'beta_im': value must be finite"),
            (["--format", "xml"], "key 'format': expected one of json, csv"),
            (["--tol", "1"], "key 'tol': must lie in [1e-12, 1e-04]"),
            (["--alpha", "-0.5"], "alpha must be > -1/2"),
            (["--t", "0"], "key 't': must be > 0"),
        ],
    )
    def test_invalid_values_exit_2(self, extra, message, capsys):
        argv = ["painleve", "--r", "0=0,1=1", "--gamma", "0=0.5", "--t", "2", *extra]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["det", "--r", "0=0,1", "--gamma", "0=0.5", "--t", "2"],
             "entry '1' is not of the form index=value"),
            (["det", "--r", "0=0,1=1", "--t", "2"], "command 'det' requires key 'gamma'"),
            (["det", *SINE_ARGS, "--t-range", "2:1:3"], "stop must be >= start"),
            (["asymp", *SINE_ARGS, "--t-range", "1:1:2"], "stop must exceed start when count > 1"),
        ],
    )
    def test_invalid_entries_and_ranges_exit_2(self, argv, message, capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [["--t", "1e10"], ["--t-range", "1:1e10:2"]], ids=["t", "t-range"])
    def test_endpoints_that_overflow_exit_2(self, scale, capsys):
        # r_1 t = 1e310 is not a double; a range is checked at its stop,
        # before any point runs
        assert main(["det", "--r", "0=0,1=1e300", "--gamma", "0=0.5", *scale]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "r_k and r_k t must be finite" in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "config file"),
            ("alpha 0.1\n", "config file line 1: expected key=value"),
            ("alpha = 0.1\n# again\nalpha = 0.2\n", "config file line 3: duplicate key 'alpha'"),
        ],
    )
    def test_bad_config_files_exit_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        if text is not None:
            path.write_text(text)
        assert main(["det", "--config", str(path), *SINE_ARGS, "--t", "2"]) == 2
        assert message in capsys.readouterr().err

    def test_config_file_with_unknown_key_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.1\nordr = 32\n")
        code = main(["det", "--config", str(path), "--r", "0=0,1=1", "--gamma", "0=0.5", "--t", "2"])
        assert code == 2
        assert "unknown key 'ordr'" in capsys.readouterr().err

    def test_flags_override_config_file_values(self, tmp_path):
        path = tmp_path / "base.cfg"
        path.write_text(
            "# base configuration\n"
            "alpha = 0.1\n"
            "r = 0=0,1=1\n"
            "gamma = 0=0.5\n"
            "t = 2\n"
        )
        rc = parse_config(["det", "--config", str(path), "--alpha", "0.3"])
        assert rc.params.alpha == 0.3
        assert rc.config.t == 2.0

    def test_moments_defaults_weights_to_zero(self):
        rc = parse_config(["moments", "--r", "0=0,1=1", "--t", "2"])
        assert rc.config.gamma == (0.0,)

    @pytest.mark.parametrize("r", ["0=0,1=1,2=2,3=3", "0=-3,1=0,2=1", "0=-1,1=0"])
    def test_moments_rejects_endpoints_it_does_not_read(self, r, capsys):
        # moments reads r1 and r2 of r = 0,r1,r2; a third radius or a
        # negative endpoint would be dropped without a word
        assert main(["moments", "--r", r, "--t", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires 'r' to be 0,r1 or 0,r1,r2" in captured.err

    @pytest.mark.parametrize(
        "extra",
        [["--gamma", "0=0.5"], ["--gamma", "0=1"], ["--tol", "1e-12"], ["--t-range", "1:2:2"]],
    )
    def test_moments_rejects_keys_it_does_not_use(self, extra, capsys):
        # moments puts its own weights on the intervals it counts, runs no
        # flow and evaluates one t: a key it would ignore exits 2, named
        assert main(["moments", "--r", "0=0,1=1", "--t", "2", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not take key '{extra[0][2:].replace('-', '_')}'" in captured.err

    def test_moments_inputs_block_reparses_without_unused_keys(self, tmp_path):
        argv = ["moments", "--alpha", "0.2", "--r", "0=0,1=1,2=2", "--t", "3"]
        rc = parse_config(argv)
        document, _, _ = run(rc)
        assert not {"gamma", "tol", "inner", "t_range"} & document["inputs"].keys()
        path = tmp_path / "echo.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in document["inputs"].items()))
        assert parse_config(["moments", "--config", str(path)]) == rc

    @pytest.mark.parametrize(
        "argv, echoed",
        [
            (["det", *SINE_ARGS, "--t", "2"], {"gamma", "t"}),
            (["det", "--alpha", "0.1", "--r", "0=0,1=1", "--gamma", "0=0.3", "--t-range",
              "0.5:2.5:3", "--format", "csv"], {"gamma", "t_range"}),
            (["asymp", "--alpha", "0.1", "--r", "0=0,1=1", "--gamma", "0=0.3", "--t-range",
              "0.5:2.5:3"], {"gamma", "t_range"}),
            (["painleve", *SINE_ARGS, "--t", "0.5", "--tol", "1e-8"], {"gamma", "t", "tol"}),
            (["verify", *SINE_ARGS, "--t-range", "1:2:2"], {"gamma", "t_range", "tol"}),
            (["moments", "--r", "0=0,1=1", "--t", "2"], {"t"}),
        ],
        ids=["det", "det-t-range", "asymp-t-range", "painleve", "verify", "moments"],
    )
    def test_inputs_block_reparses_to_the_same_run_config(self, argv, echoed, tmp_path):
        # the block echoes the command's keys, with the one of t and t_range
        # given, and never the output path
        rc = parse_config([*argv, "--out", str(tmp_path / "out")])
        document, _, _ = run(rc)
        assert document["inputs"].keys() == {"alpha", "beta_im", "r", "format"} | echoed
        path = tmp_path / "echo.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in document["inputs"].items()))
        assert parse_config([argv[0], "--config", str(path)]) == replace(rc, out=None)

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c, reads in READS.items() for k in sorted(KEY_VALUES.keys() - reads)],
    )
    def test_every_command_refuses_a_key_it_does_not_read(self, command, key, tmp_path, capsys):
        assert set(cli._KEYS) == {"alpha", "beta_im", "r", "out", "format", *KEY_VALUES}
        argv = VALID_ARGV[command]
        assert parse_config(argv).command == command
        path = tmp_path / "extra.cfg"
        path.write_text(f"{key} = {KEY_VALUES[key]}\n")
        for extra in (["--" + key.replace("_", "-"), KEY_VALUES[key]], ["--config", str(path)]):
            assert main([*argv, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"command '{command}' does not take key '{key}'" in captured.err

    @pytest.mark.parametrize("command", ["det", "asymp"])
    def test_point_or_range_commands_take_exactly_one_scale(self, command, capsys):
        assert main([command, *SINE_ARGS, "--t", "5", "--t-range", "1:2:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"command '{command}' requires key 't' or 't_range', not both" in captured.err
        assert main([command, *SINE_ARGS]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.rstrip().endswith(f"command '{command}' requires key 't' or 't_range'")

    def test_sweep_and_inner_are_gone(self, capsys):
        assert main(["sweep", *SINE_ARGS, "--t-range", "1:2:2"]) == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        assert main(["det", *SINE_ARGS, "--t-range", "1:2:2", "--inner", "det"]) == 2
        assert "unrecognized arguments: --inner det" in capsys.readouterr().err

    def test_help_and_unknown_command_exit_codes(self, capsys):
        assert main(["--help"]) == 0
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_rejected_argv_leaves_the_parser_unchanged(self, capsys):
        # one parser serves every call; flags of a rejected argv must not
        # reach the next call
        argv = ["moments", "--r", "0=0,1=1", "--t", "2"]
        want = RunConfig(
            command="moments",
            params=KernelParams(alpha=0.0, beta_im=0.0),
            config=Configuration(r=(0.0, 1.0), gamma=(0.0,), t=2.0),
        )
        with pytest.raises(SystemExit):
            parse_config(["moments", "--alpha", "0.3", "--format", "csv", "--bogus", "1"])
        capsys.readouterr()
        assert parse_config(argv) == want
        with pytest.raises(ConfigError, match="'gamma'"):
            parse_config(["det", "--beta-im", "0.5", "--r", "0=0,1=1", "--gamma", "0=1.5", "--t", "3"])
        assert parse_config(argv) == want

    def test_parser_is_built_once(self, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_argparser.cache_clear()
        try:
            for t in ("1", "2", "3"):
                assert parse_config(["det", *SINE_ARGS, "--t", t]).config.t == float(t)
        finally:
            cli._build_argparser.cache_clear()
        assert len(built) == 1


class TestOutputs:
    def test_det_with_zero_weights_reports_zero(self, capsys):
        code = main(["det", "--r", "0=0,1=1", "--gamma", "0=0", "--t", "5"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 1
        assert document["command"] == "det"
        assert document["results"]["lnf"] == 0.0

    def test_asymp_with_zero_weights_reports_all_zero_terms(self, capsys):
        code = main(["asymp", "--r", "0=-1,1=0,2=1", "--gamma", "0=0,1=0", "--t", "5"])
        assert code == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["total"] == 0.0
        for value in results["breakdown"].values():
            assert value == 0.0

    def test_det_csv_matches_direct_evaluation(self, tmp_path):
        out = tmp_path / "det.csv"
        code = main(["det", *SINE_ARGS, "--t", "2", "--format", "csv", "--out", str(out)])
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["t", "lnf"]
        assert len(rows) == 1 and len(rows[0]) == len(header)
        expected = log_det(
            KernelParams(alpha=0.0, beta_im=0.0),
            Configuration(r=(0.0, 1.0), gamma=(0.5,), t=2.0),
        )
        assert float(rows[0][1]) == pytest.approx(expected, rel=1e-15)

    def test_det_diagnostics_describe_the_grid(self, capsys):
        # at t = 20 each of the two unit intervals is one panel, and each
        # panel takes the ellipse rule's order, 26 at width 20
        argv = ["det", "--r", "0=-1,1=0,2=1", "--gamma", "0=0.4,1=0.4", "--t", "20"]
        config = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.4, 0.4), t=20.0)
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["diagnostics"] == {"nodes": 52, "panels": 2, "order_per_panel": [26, 26]}
        assert document["results"]["lnf"] == log_det(KernelParams(0.0, 0.0), config)

    def test_one_point_range_evaluates_its_start(self, capsys):
        assert main(["det", *SINE_ARGS, "--t-range", "3:7:1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0] == "t,lnf"
        config = Configuration(r=(0.0, 1.0), gamma=(0.5,), t=3.0)
        assert lines[1] == "3,%.17g" % log_det(KernelParams(0.0, 0.0), config)

    def test_moments_csv_lists_the_statistics(self, capsys):
        assert main(["moments", "--r", "0=0,1=1,2=2", "--t", "10", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "statistic,numeric,asymptotic,difference"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["mean_right", "mean_left", "variance", "cov_same_side",
                         "cov_opposite_side"]
        for line in lines[1:]:
            numeric, predicted, difference = map(float, line.split(",")[1:])
            assert difference == numeric - predicted

    def test_empty_range_writes_header_only_csv(self, tmp_path):
        out = tmp_path / "range.csv"
        code = main(["det", *SINE_ARGS, "--t-range", "1:2:0", "--format", "csv", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == b"t,lnf\n"
        code = main(["asymp", *SINE_ARGS, "--t-range", "1:2:0", "--format", "csv", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == b"t,total,linear_term,log_term,constant_term\n"

    def test_identical_inputs_produce_byte_identical_files(self, tmp_path):
        argv = [
            "det",
            "--alpha",
            "0.25",
            "--beta-im",
            "0.3",
            "--r",
            "0=-1,1=0,2=1",
            "--gamma",
            "0=0.3,1=0.6",
            "--t",
            "5",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_range_json_reruns_identically_from_its_inputs_block(self, tmp_path, capsys):
        argv = ["asymp", *SINE_ARGS, "--t-range", "1:3:3"]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["diagnostics"] == {"points": 3}
        path = tmp_path / "echo.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in document["inputs"].items()))
        assert main(["asymp", "--config", str(path)]) == 0
        rerun = json.loads(capsys.readouterr().out)
        assert rerun == document

    @pytest.mark.parametrize(
        "command,gamma", [("det", "0=0.3,1=1,2=0.5"), ("asymp", "0=0.3,1=0.9,2=0.5")]
    )
    def test_range_rows_are_the_point_rows(self, command, gamma, capsys):
        args = ["--alpha", "0.5", "--beta-im", "-0.2", "--r", "0=-1,1=0,2=1,3=2"]
        args += ["--gamma", gamma, "--format", "csv"]
        assert main([command, *args, "--t-range", "1:30:4"]) == 0
        ranged = capsys.readouterr().out.splitlines()
        expected = []
        for point in (1.0, 1.0 + 29.0 / 3.0, 1.0 + 29.0 * 2.0 / 3.0, 30.0):
            assert main([command, *args, "--t", repr(point)]) == 0
            header, row = capsys.readouterr().out.splitlines()
            expected.append(row)
        assert ranged == [header] + expected

    def test_verify_reports_small_flow_residuals_for_plain_kernel(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(
            ["verify", *SINE_ARGS, "--t-range", "1:3:3", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        header, rows = _read_csv(out)
        assert header[:3] == ["t", "lnf_nystrom", "lnf_flow"]
        assert len(rows) == 3
        residuals = [float(row[4]) for row in rows]
        assert max(residuals) < 1e-7

    def test_verify_runs_below_the_old_flow_seed_time(self, tmp_path):
        out = tmp_path / "verify.csv"
        argv = ["verify", *SINE_ARGS, "--t-range", "1e-12:1e-3:3", "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert [float(row[0]) for row in rows][::2] == [1e-12, 1e-3]
        assert max(float(row[4]) for row in rows) < 1e-9

    def test_verify_over_a_span_below_the_step_floor(self, tmp_path):
        # the second point lies 1e-13 past the first in ln t, the smallest
        # step the integrator's controller may ask for
        out = tmp_path / "verify.csv"
        argv = ["verify", *SINE_ARGS, "--t-range", "1:1.0000000000001:2", "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert float(rows[0][2]) == pytest.approx(float(rows[1][2]), abs=1e-13)
        assert max(float(row[4]) for row in rows) < 1e-7

    def test_painleve_runs_below_the_old_flow_seed_time(self, capsys):
        # the sine seed time is (3/2) sqrt(eps), about 2.2e-8: a flow runs
        # from it to t = 1e-6, and t = 1e-12 is its own seed
        assert main(["painleve", *SINE_ARGS, "--t", "1e-6"]) == 0
        document = json.loads(capsys.readouterr().out)
        config = Configuration(t=1e-6, r=(0.0, 1.0), gamma=(0.5,))
        assert document["diagnostics"]["t0"] == cpv_init(KernelParams(0.0, 0.0), config).t < 1e-6
        assert document["diagnostics"]["steps"] > 0
        final = document["results"]["rows"][-1]
        assert final[0] == 1e-6
        # small-t leading term of lnF for the sine kernel at weight 1/2
        assert final[-1] == pytest.approx(-0.5e-6 / math.pi, abs=1e-9)
        assert main(["painleve", *SINE_ARGS, "--t", "1e-12"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["diagnostics"]["t0"] == 1e-12
        assert document["diagnostics"]["steps"] == 0
        assert document["results"]["rows"][-1][-1] == pytest.approx(-0.5e-12 / math.pi, rel=1e-14)

    def test_painleve_and_verify_answer_below_the_seed_time(self, tmp_path, capsys):
        # below the seed time (about 2.2e-8 here) the small-t closed form is exact
        lnf = -0.5e-200 / math.pi
        assert main(["painleve", *SINE_ARGS, "--t", "1e-200"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["diagnostics"]["steps"] == 0
        (row,) = document["results"]["rows"]
        assert row[0] == 1e-200
        assert row[-2] == pytest.approx(-0.5 / math.pi, rel=1e-12)
        assert row[-1] == pytest.approx(lnf, rel=1e-14)
        out = tmp_path / "verify.csv"
        argv = ["verify", *SINE_ARGS, "--t-range", "1e-200:1e-3:3", "--format", "csv"]
        assert main(argv + ["--out", str(out)]) == 0
        _, rows = _read_csv(out)
        assert float(rows[0][2]) == pytest.approx(lnf, rel=1e-14)
        assert max(float(row[4]) for row in rows) < 1e-9

    def test_painleve_seeds_at_t_below_the_seed_time(self, capsys):
        assert main(["painleve", *SINE_ARGS, "--t", "1e-200"]) == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"]["t0"] == 1e-200

    def test_painleve_and_verify_refuse_where_the_seed_time_underflows(self, capsys):
        args = ["--alpha", "-0.49", "--beta-im", "0.3", "--r", "0=-1,1=0,2=1"]
        args += ["--gamma", "0=0.4,1=0.6"]
        for argv in (["painleve", *args, "--t", "5"], ["verify", *args, "--t-range", "1:5:2"]):
            assert main(argv) == 1
            document = json.loads(capsys.readouterr().out)
            assert document["error"]["type"] == "RegimeError"
            assert "seed time underflows" in document["error"]["message"]

    def test_painleve_table_has_flow_columns_and_consistent_endpoint(self, capsys):
        code = main(["painleve", *SINE_ARGS, "--t", "2"])
        assert code == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["columns"] == ["t", "u1_re", "u1_im", "v1_re", "v1_im", "h", "lnf"]
        final = results["rows"][-1]
        assert final[0] == 2.0
        expected = log_det(
            KernelParams(alpha=0.0, beta_im=0.0),
            Configuration(r=(0.0, 1.0), gamma=(0.5,), t=2.0),
        )
        assert final[-1] == pytest.approx(expected, abs=1e-7)

    def test_painleve_table_orders_columns_by_endpoint_index(self, capsys):
        argv = ["painleve", "--r", "0=-1,1=0,2=1", "--gamma", "0=0.4,1=0.4", "--t", "2"]
        assert main(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["columns"] == [
            "t",
            "u0_re", "u0_im", "v0_re", "v0_im",
            "u2_re", "u2_im", "v2_re", "v2_im",
            "h",
            "lnf",
        ]
        expected = log_det(
            KernelParams(alpha=0.0, beta_im=0.0),
            Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.4, 0.4), t=2.0),
        )
        assert results["rows"][-1][-1] == pytest.approx(expected, abs=1e-7)

    def test_moments_table_lists_single_radius_statistics(self, capsys):
        code = main(["moments", "--r", "0=0,1=1", "--t", "2"])
        assert code == 0
        results = json.loads(capsys.readouterr().out)["results"]
        names = [row[0] for row in results["rows"]]
        assert names == ["mean_right", "mean_left", "variance"]
        for row in results["rows"]:
            assert abs(row[3]) < 0.05

    def test_unwritable_output_path_reports_structured_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        code = main(["det", *SINE_ARGS, "--t", "2", "--out", str(out)])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 1
        assert document["error"]["type"] == "FileNotFoundError"

    def test_imaginary_flow_reports_structured_error(self, monkeypatch, capsys):
        real_field = painleve._field

        def complex_field(params, config):
            field = real_field(params, config)

            def complex_rates(s, y):
                dy = field(s, y)
                dy[-1] += 1j
                return dy

            return complex_rates

        monkeypatch.setattr(painleve, "_field", complex_field)
        code = main(["painleve", *SINE_ARGS, "--t", "2"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "painleve"
        assert document["error"]["type"] == "RegimeError"

    def test_moments_numeric_column_is_counting_statistics(self, capsys):
        assert main(["moments", "--r", "0=0,1=1,2=2", "--t", "10"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["rows"]
        want = counting_statistics(KernelParams(0.0, 0.0), 10.0, 1.0, 2.0)
        assert [row[1] for row in rows] == [
            want.mean_right, want.mean_left, want.var, want.cov_same, want.cov_opposite
        ]

    def test_moments_builds_one_kernel_matrix(self, monkeypatch, capsys):
        calls = []
        original = fredholm.chf_kernel_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fredholm, "chf_kernel_matrix", counting)
        assert main(["moments", "--alpha", "0.25", "--r", "0=0,1=1,2=2", "--t", "10"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

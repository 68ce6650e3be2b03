"""Command line behavior: parsing, validation, outputs, and determinism."""

import json

import pytest

from chfdet.cli import main, parse_config, run, ConfigError
from chfdet.fredholm import log_det
from chfdet.kernel import Configuration, KernelParams

SINE_ARGS = ["--alpha", "0", "--beta-im", "0", "--r", "0=0,1=1", "--gamma", "0=0.5"]


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParsing:
    def test_full_flag_set_builds_expected_run_config(self):
        rc = parse_config(
            [
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
                "--order",
                "32",
                "--tol",
                "1e-8",
                "--format",
                "csv",
            ]
        )
        assert rc.command == "det"
        assert rc.params == KernelParams(alpha=0.25, beta_im=0.3)
        assert rc.config == Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.3, 0.6), t=5.0)
        assert rc.order == 32
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

    def test_unit_weight_allowed_for_det_only(self):
        rc = parse_config(["det", "--r", "0=0,1=1", "--gamma", "0=1", "--t", "2"])
        assert rc.config.gamma == (1.0,)
        sweep = ["sweep", "--r", "0=0,1=1", "--gamma", "0=1", "--t-range", "1:2:2"]
        rc = parse_config(sweep + ["--inner", "det"])
        assert rc.config.gamma == (1.0,) and rc.inner == "det"
        with pytest.raises(ConfigError, match="requires weights < 1"):
            parse_config(sweep + ["--inner", "asymp"])
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

    def test_inputs_block_reparses_to_the_same_run_config(self, tmp_path):
        argv = [
            "sweep",
            "--alpha",
            "0.1",
            "--r",
            "0=0,1=1",
            "--gamma",
            "0=0.3",
            "--t-range",
            "0.5:2.5:3",
            "--inner",
            "asymp",
            "--order",
            "32",
        ]
        rc = parse_config(argv)
        document, _, _ = run(rc)
        path = tmp_path / "echo.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in document["inputs"].items()))
        assert parse_config(["sweep", "--config", str(path)]) == rc

    def test_help_and_unknown_command_exit_codes(self, capsys):
        assert main(["--help"]) == 0
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


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

    def test_empty_sweep_writes_header_only_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", *SINE_ARGS, "--t-range", "1:2:0", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == b"t,lnf\n"

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

    def test_sweep_json_reruns_identically_from_its_inputs_block(self, tmp_path, capsys):
        argv = ["sweep", *SINE_ARGS, "--t-range", "1:3:3", "--inner", "asymp"]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        path = tmp_path / "echo.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in document["inputs"].items()))
        assert main(["sweep", "--config", str(path)]) == 0
        rerun = json.loads(capsys.readouterr().out)
        assert rerun == document

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

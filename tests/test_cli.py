import os
from pathlib import Path

import pytest

from porosplit import cli
from porosplit.cli import (EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                           EXIT_VALIDATION, main, parse_config)


class TestParseConfig:
    def test_toy_flags(self):
        cfg = parse_config(["toy", "--k", "2", "--tau", "0.125", "--gamma",
                            "0.5", "--omega", "2"])
        assert cfg.subcommand == "toy"
        assert cfg.order == 2
        assert cfg.tau == 0.125
        assert cfg.gamma == 0.5
        assert cfg.omega == 2.0

    def test_power_of_two_tokens(self):
        cfg = parse_config(["toy", "--tau", "2^-5"])
        assert cfg.tau == 2.0 ** -5

    def test_gamma_and_stabilization_exclusive(self):
        with pytest.raises(cli.ValidationError):
            parse_config(["toy", "--tau", "0.125", "--gamma", "0.5",
                          "--L", "3.0"])

    def test_order_out_of_range(self):
        with pytest.raises(SystemExit):
            # argparse accepts ints; validation catches the range
            cfg = parse_config(["toy", "--k", "not-an-int"])
        with pytest.raises(cli.ValidationError):
            parse_config(["toy", "--k", "6", "--tau", "0.125"])

    def test_tau_must_divide_t(self):
        with pytest.raises(cli.ValidationError):
            parse_config(["toy", "--tau", "0.3", "--T", "1"])

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 2\ntau = 2^-4\ngamma = 0.5\nomega = 4\n")
        cfg = parse_config(["toy", "--config", str(path), "--omega", "2"])
        assert cfg.order == 2
        assert cfg.tau == 0.0625
        assert cfg.omega == 2.0  # flag wins

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k = 2\nwibble = 3\n")
        with pytest.raises(cli.UsageError) as err:
            parse_config(["toy", "--config", str(path)])
        assert "wibble" in str(err.value)

    def test_config_file_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nk = 3  # trailing\n")
        cfg = parse_config(["toy", "--config", str(path), "--tau", "0.125"])
        assert cfg.order == 3


class TestDryRun:
    @pytest.mark.parametrize("argv", [
        ["toy", "--tau", "0.125", "--dry-run"],
        ["biot2d", "--tau", "0.125", "--n", "4", "--dry-run"],
        ["network", "--tau", "0.125", "--dry-run"],
        ["convergence", "--dry-run"],
        ["balance", "--dry-run"],
        ["iters", "--dry-run"],
        ["stability", "--dry-run"],
    ])
    def test_every_subcommand_supports_dry_run(self, argv, capsys):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert argv[0] in out


class TestMain:
    def test_usage_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nope = 1\n")
        assert main(["toy", "--config", str(bad)]) == EXIT_USAGE

    def test_validation_exit_code(self):
        assert main(["toy", "--tau", "0.125", "--gamma", "0.5",
                     "--L", "2"]) == EXIT_VALIDATION

    def test_numerical_exit_code(self, tmp_path):
        # stabilization far below threshold with a tight tolerance cannot
        # terminate and must surface as a numerical failure
        code = main(["toy", "--tau", "0.125", "--L", "0.0",
                     "--tol", "1e-9", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL

    def test_toy_run_writes_steps_csv(self, tmp_path, capsys):
        code = main(["toy", "--k", "1", "--tau", "2^-3", "--gamma", "0.5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        path = tmp_path / "toy_steps_1.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("n,t,J_n,predicted_J_n,terminal_functional,"
                            "contraction_ratio_median")
        assert len(lines) == 9  # 8 steps

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POROSPLIT_OUT", str(tmp_path / "envout"))
        code = main(["toy", "--k", "1", "--tau", "2^-3", "--gamma", "0.5"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "toy_steps_1.csv").exists()

    def test_missing_output_dir_created(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert main(["toy", "--tau", "2^-3", "--out", str(out)]) == EXIT_OK
        assert out.is_dir()

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["iters", "--ks", "1", "--omegas", "2", "--gammas", "0.5",
                "--taus", "2^-3,2^-4"]
        assert main(argv + ["--out", str(tmp_path / "r1")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "r2")]) == EXIT_OK
        a = (tmp_path / "r1" / "iterations_1.csv").read_bytes()
        b = (tmp_path / "r2" / "iterations_1.csv").read_bytes()
        assert a == b

    def test_network_run(self, tmp_path):
        code = main(["network", "--k", "1", "--tau", "2^-3",
                     "--networks", "2", "--alphas", "0.4,0.2",
                     "--moduli", "1,2", "--mobilities", "1,0.5",
                     "--beta", "0,1=1e-3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "network_steps_1.csv").exists()

    def test_stability_subcommand(self, tmp_path, capsys):
        assert main(["stability", "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "stability.csv").read_text().splitlines()
        assert text[0] == "k,eta,min_real_part,identity_residual"
        assert len(text) == 6

    def test_convergence_subcommand(self, tmp_path, capsys):
        code = main(["convergence", "--k", "1", "--problem", "toy",
                     "--taus", "2^-3,2^-4,2^-5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "fitted order" in out
        header = (tmp_path / "convergence_1.csv").read_text().splitlines()[0]
        assert header == "k,tau,tol,err_u_V,err_p_H,mode"

    def test_iters_csv_schema(self, tmp_path):
        assert main(["iters", "--ks", "1", "--omegas", "2", "--gammas",
                     "0.5", "--taus", "2^-3", "--out",
                     str(tmp_path)]) == EXIT_OK
        header = (tmp_path / "iterations_1.csv").read_text().splitlines()[0]
        assert header == "k,omega,gamma,tau,L,mean_Jn"


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:           # argparse usage errors
        return exc.code


class TestProblemDispatch:
    @pytest.mark.parametrize("argv, label", [
        (["toy", "--tau", "2^-3"], "toy(omega=2)"),
        (["biot2d", "--tau", "2^-3", "--n", "4"], "biot2d(n=4)"),
        (["network", "--tau", "2^-3"], "network-toy(J=2)"),
    ])
    def test_single_run_uses_the_named_problem(self, argv, label, tmp_path,
                                               capsys):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"{label}: 8 split steps")

    def test_threads_only_on_studies_that_use_it(self):
        assert _exit_code(["iters", "--threads", "2", "--dry-run"]) == EXIT_USAGE
        for sub in ("convergence", "balance"):
            cfg = parse_config([sub, "--threads", "2"])
            assert cfg.threads == 2


class TestBadNumericInput:
    @pytest.mark.parametrize("argv", [
        ["toy", "--tau", "nan"],
        ["toy", "--tau", "inf"],
        ["toy", "--tau", "0"],
        ["toy", "--tau", "-0.125"],
        ["toy", "--tau", "0.3"],                  # does not divide T = 1
        ["toy", "--tau", "2^-3", "--T", "nan"],
        ["toy", "--tau", "2^-3", "--T", "0"],
        ["toy", "--tau", "2^-3", "--tol", "nan"],
        ["toy", "--tau", "2^-3", "--tol", "-1e-6"],
        ["toy", "--tau", "2^-3", "--s", "inf"],
        ["toy", "--tau", "2^-3", "--gamma", "nan"],
        ["toy", "--tau", "2^-3", "--L", "nan"],
        ["toy", "--tau", "2^-3", "--L", "-1"],
        ["toy", "--tau", "2^-3", "--omega", "0"],
        ["biot2d", "--tau", "2^-3", "--n", "1"],
        ["iters", "--taus", "2^-3,nan"],
        ["convergence", "--taus", "2^-3,-0.0625"],
        ["toy", "--tau", "abc"],
    ])
    def test_fails_with_exit_code_and_no_traceback(self, argv, tmp_path,
                                                   capsys):
        code = _exit_code(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in (EXIT_USAGE, EXIT_VALIDATION), err
        assert "Traceback" not in err
        assert err.strip()

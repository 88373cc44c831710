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

    def test_threads_rejected_and_seed_only_on_stability(self):
        for sub in cli.SUBCOMMANDS:
            assert _exit_code([sub, "--threads", "2", "--dry-run"]) == EXIT_USAGE
            code = _exit_code([sub, "--seed", "3", "--dry-run"])
            assert code == (EXIT_OK if sub == "stability" else EXIT_USAGE)


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
        ["iters", "--ks", "abc"],
        ["iters", "--taus", ","],
        ["network", "--tau", "2^-3", "--beta", "0,1=abc"],
        ["network", "--tau", "2^-3", "--alphas", "nan,0.2"],
        ["network", "--tau", "2^-3", "--beta", "0,1=nan"],
        ["network", "--tau", "2^-3", "--moduli", "inf,1"],
        ["network", "--tau", "2^-3", "--networks", "2",   # 3 alphas for 2
         "--alphas", "0.4,0.2,0.1", "--moduli", "1,1,5"],
    ])
    def test_fails_with_exit_code_and_no_traceback(self, argv, tmp_path,
                                                   capsys):
        code = _exit_code(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in (EXIT_USAGE, EXIT_VALIDATION), err
        assert "Traceback" not in err
        assert err.strip()

    def test_malformed_config_value_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("k = abc\n")
        assert main(["toy", "--tau", "2^-3", "--config", str(path)]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert "k: expected an integer" in err
        assert "Traceback" not in err


# One valid value per option row, different from every default.
SAMPLES = {
    "out": "elsewhere", "k": "2", "ks": "1,3", "tau": "2^-4",
    "taus": "2^-2,2^-3", "T": "2", "tol": "1e-7", "s": "3", "gamma": "0.3",
    "L": "2", "gammas": "0.2", "omega": "3", "omegas": "3", "problem": "toy",
    "reference": "analytic", "n": "8", "networks": "3",
    "alphas": "0.1,0.2,0.3", "moduli": "1,2,3", "mobilities": "1,2,3",
    "beta": "0,2=1e-3", "seed": "5",
}


def _option_cases(read: bool):
    return [pytest.param(opt, sub, id=f"{opt.name}-{sub}")
            for opt in cli.OPTIONS for sub in cli.SUBCOMMANDS
            if (sub in opt.readers) == read]


class TestOptionTable:
    @pytest.mark.parametrize("opt, sub", _option_cases(read=True))
    def test_flag_and_config_key_agree(self, opt, sub, tmp_path):
        value = SAMPLES[opt.name]
        path = tmp_path / "run.cfg"
        path.write_text(f"{opt.name} = {value}\n")
        from_flag = parse_config([sub, f"--{opt.name}", value])
        from_file = parse_config([sub, "--config", str(path)])
        default = parse_config([sub])
        assert getattr(from_flag, opt.dest) == getattr(from_file, opt.dest)
        assert getattr(from_flag, opt.dest) != getattr(default, opt.dest)

    @pytest.mark.parametrize("opt, sub", _option_cases(read=False))
    def test_unread_option_is_rejected(self, opt, sub, tmp_path, capsys):
        value = SAMPLES[opt.name]
        assert _exit_code([sub, f"--{opt.name}", value]) == EXIT_USAGE
        path = tmp_path / "run.cfg"
        path.write_text(f"{opt.name} = {value}\n")
        assert main([sub, "--config", str(path)]) == EXIT_USAGE
        assert f"porosplit {sub} reads no option" in capsys.readouterr().err

    def test_config_seed_is_kept_and_the_flag_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\n")
        assert parse_config(["stability", "--config", str(path)]).seed == 5
        assert parse_config(["stability", "--config", str(path),
                             "--seed", "7"]).seed == 7

    @pytest.mark.parametrize("sub, gamma", [("toy", 0.5), ("biot2d", 0.4),
                                            ("network", 0.4)])
    def test_gamma_default_gives_way_to_L(self, sub, gamma, tmp_path):
        assert parse_config([sub]).gamma == gamma
        cfg = parse_config([sub, "--L", "2"])
        assert (cfg.gamma, cfg.stabilization) == (None, 2.0)
        path = tmp_path / "run.cfg"
        path.write_text("L = 2\n")
        assert parse_config([sub, "--config", str(path)]).gamma is None
        assert f"gamma = {gamma}" in parse_config([sub]).summary()

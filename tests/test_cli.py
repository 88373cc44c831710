import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from porosplit import cli, fem2d, splitsolve, stability, studies
from porosplit.bdf import scheme
from porosplit.linalg import weighted_norm_sq
from porosplit.splitsolve import SplitConfig, integrate
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

    def test_tau_must_give_k_steps(self):
        with pytest.raises(cli.ValidationError,
                           match="tau=0.5 gives T/tau = 1 on T=0.5; BDF-3"):
            parse_config(["toy", "--k", "3", "--tau", "0.5", "--T", "0.5"])
        parse_config(["toy", "--k", "3", "--tau", "0.5", "--T", "1.5"])

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
    def test_every_subcommand_supports_dry_run(self, argv, tmp_path,
                                               capsys):
        out_dir = tmp_path / "out"
        argv = argv + ["--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        # the summary is all it prints, and it writes no file
        assert capsys.readouterr().out == parse_config(argv).summary() + "\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("sub", ["toy", "biot2d", "network"])
    def test_single_run_without_tau_fails_before_the_dry_run(self, sub,
                                                             tmp_path,
                                                             capsys):
        # the dry run checks what the run checks: a single run needs --tau
        out_dir = tmp_path / "out"
        assert main([sub, "--dry-run", "--out", str(out_dir)]) \
            == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tau is required" in captured.err
        assert not out_dir.exists()


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

    def test_zero_stabilization_run_that_converges_exits_ok(self, tmp_path):
        # L = 0 guarantees no contraction factor, so no J_n is predicted
        code = main(["biot2d", "--n", "4", "--tau", "2^-3", "--L", "0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "biot2d_steps_1.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        assert all(row.split(",")[3] == "" for row in rows)

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
                     "--alphas", "0.4,0.2",
                     "--moduli", "1,2", "--mobilities", "1,0.5",
                     "--beta", "0,1=1e-3", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "network_steps_1.csv").exists()

    def test_network_count_is_the_number_of_alphas(self, tmp_path, capsys):
        assert main(["network", "--tau", "2^-3", "--alphas", "0.4,0.2,0.1",
                     "--moduli", "1,1,5", "--mobilities", "1,1,1",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("network-toy(J=3):")
        assert main(["network", "--tau", "2^-3", "--alphas", "0.4,0.2,0.1",
                     "--moduli", "1,1,5", "--out", str(tmp_path)]) \
            == EXIT_VALIDATION
        assert "one alpha/modulus/mobility per network" \
            in capsys.readouterr().err
        assert _exit_code(["network", "--tau", "2^-3", "--networks", "2",
                           "--dry-run"]) == EXIT_USAGE

    def test_stability_subcommand(self, tmp_path, capsys):
        assert main(["stability", "--out", str(tmp_path)]) == EXIT_OK
        text = (tmp_path / "stability.csv").read_text().splitlines()
        assert text[0] == "k,eta,min_real_part,identity_residual"
        assert len(text) == 6
        for k, line in enumerate(text[1:], 1):
            order, eta, min_re, resid = line.split(",")
            cert = stability.find_multiplier(k)
            assert (int(order), float(eta), float(min_re)) \
                == (k, cert.multiplier, cert.min_real_part)
            # a plain number where the identity is checked, else empty
            assert (0.0 <= float(resid) < 1e-12) if k <= 2 else resid == ""

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


class TestStudySubcommands:
    def test_convergence_default_biot_run_fits_its_order(self, tmp_path,
                                                         capsys):
        # the studies' clock starts at t = 1, past the initial layer that
        # bends the k = 3 fit to 2.62 when the runs start at t = 0
        assert main(["convergence", "--k", "3", "--out", str(tmp_path)]) \
            == EXIT_OK
        fitted = re.search(r"fitted order (\S+)", capsys.readouterr().out)
        assert abs(float(fitted.group(1)) - 3.0) <= 0.2

    def test_balance_writes_both_tables_from_one_set_of_runs(
            self, tmp_path, monkeypatch, study_runs):
        results = []
        study = studies.balancing_study

        def keep(*args, **kwargs):
            results.append(study(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(studies, "balancing_study", keep)
        assert main(["balance", "--n", "4", "--taus", "2^-3,2^-4",
                     "--out", str(tmp_path)]) == EXIT_OK
        # one reference run, the shift of the clock to t_start = 1, then per
        # tau one implicit and five split runs
        assert len(study_runs) == 1 + 1 + 2 * (1 + 5)
        assert ("time_shifted", 1.0) in study_runs
        (res,) = results
        assert (tmp_path / "balancing_1.csv").read_text() \
            == res.report.to_csv()
        lines = (tmp_path / "iteration_averages_1.csv").read_text() \
            .splitlines()
        assert lines[0] == "k,tau,s,mean_Jn"
        rows = [tuple(float(v) for v in line.split(",")[1:])
                for line in lines[1:]]
        assert rows == [(tau, s, res.records[(tau, s)].mean_inner)
                        for s in (1, 1.5, 2, 2.5, 3) for tau in (2 ** -3,
                                                                 2 ** -4)]

    @pytest.mark.parametrize("taus", ["2^-3", "2^-3,2^-3"])
    def test_convergence_needs_a_halving_tau_grid(self, taus, tmp_path,
                                                  capsys, study_runs):
        code = main(["convergence", "--problem", "toy", "--taus", taus,
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "taus" in capsys.readouterr().err
        assert study_runs == []
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["convergence", "--problem", "toy", "--taus", "0.3,0.15"],
        ["balance", "--n", "4", "--taus", "0.3"],
        ["iters", "--taus", "0.3"],
    ])
    def test_a_tau_that_does_not_divide_t_is_named(self, argv, tmp_path,
                                                   capsys, study_runs):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "tau=0.3 does not divide T=1" in capsys.readouterr().err
        assert study_runs == []

    @pytest.mark.parametrize("argv", [
        ["balance", "--n", "4", "--taus", "2^-3,2^-3"],
        ["iters", "--taus", "2^-3,2^-4,2^-3"],
    ])
    def test_a_repeated_tau_is_named_before_any_run(self, argv, tmp_path,
                                                    capsys, study_runs):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "taus repeat 0.125" in capsys.readouterr().err
        assert study_runs == []
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_balance_reference_step_checked_before_any_run(
            self, tmp_path, capsys, study_runs):
        # tau_ref = 0.25 / 8 does not divide 0.3
        code = main(["balance", "--k", "1", "--n", "4", "--taus", "0.3,0.25",
                     "--T", "1.5", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "reference step must divide" in capsys.readouterr().err
        assert study_runs == []

    @pytest.mark.parametrize("grid, message", [
        (["--omegas", "2,2", "--gammas", "0.5,0.5"], "omegas repeat 2"),
        (["--gammas", "0.5,0.1,0.5"], "gammas repeat 0.5"),
        (["--ks", "1,2,1"], "ks repeat k=1"),
    ])
    def test_iters_names_a_repeated_grid_value_before_any_run(
            self, grid, message, tmp_path, capsys, study_runs):
        argv = ["iters", "--ks", "1", "--taus", "2^-3,2^-4", *grid]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert study_runs == []
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["convergence", "--problem", "toy", "--k", "3", "--taus",
          "2^-2,2^-3", "--T", "0.5"],
         "tau=0.25 gives T/tau = 2 on T=0.5; BDF-3 needs at least 3 steps"),
        (["balance", "--n", "4", "--k", "2", "--taus", "2^-1,2^-2",
          "--T", "0.5"],
         "tau=0.5 gives T/tau = 1 on T=0.5; BDF-2 needs at least 2 steps"),
        (["iters", "--ks", "1,2", "--taus", "2^-1,2^-2", "--T", "0.5"],
         "tau=0.5 gives T/tau = 1 on T=0.5; BDF-2 needs at least 2 steps"),
    ])
    def test_a_tau_with_fewer_than_k_steps_is_named_before_any_run(
            self, argv, message, tmp_path, capsys, study_runs):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert study_runs == []


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
        out = capsys.readouterr().out
        assert out.startswith(f"{label}: 8 split steps")
        assert "final-time pressure error against exact, L2 (norm_p) norm" \
            in out

    def test_error_line_is_the_l2_norm(self, tmp_path, capsys):
        assert main(["biot2d", "--tau", "2^-3", "--n", "4",
                     "--out", str(tmp_path)]) == EXIT_OK
        printed = re.search(r"L2 \(norm_p\) norm: (\S+)",
                            capsys.readouterr().out).group(1)
        sys_obj = fem2d.manufactured_system(4)
        tau = 2.0 ** -3
        traj = integrate(sys_obj, SplitConfig(tol=tau ** 2.5), scheme(1),
                         tau, 1.0)
        diff = traj.ps[-1] - sys_obj.exact_p(1.0)
        want = math.sqrt(weighted_norm_sq(sys_obj.norm_p, diff))
        assert printed == f"{want:.3e}"

    def test_threads_rejected_and_seed_only_on_stability(self):
        for sub in cli.SUBCOMMANDS:
            assert _exit_code([sub, "--threads", "2", "--dry-run"]) == EXIT_USAGE
            code = _exit_code([sub, "--seed", "3", "--dry-run"])
            assert code == (EXIT_OK if sub == "stability" else EXIT_USAGE)


class TestPerProblemOptions:
    @pytest.mark.parametrize("problem, name, value", [
        (None, "omega", "3"),           # --problem defaults to biot2d
        ("biot2d", "omega", "3"),
        ("toy", "n", "8"),
    ])
    def test_option_the_problem_ignores_is_rejected(self, problem, name,
                                                    value, tmp_path, capsys):
        argv = ["convergence", "--dry-run"]
        if problem:
            argv += ["--problem", problem]
        assert _exit_code(argv + [f"--{name}", value]) == EXIT_USAGE
        assert f"reads no option {name!r}" in capsys.readouterr().err
        path = tmp_path / "run.cfg"
        path.write_text(f"{name} = {value}\n")
        assert main(argv + ["--config", str(path)]) == EXIT_USAGE
        assert f"reads no option {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("problem, read, unread", [
        ("toy", "omega = 3.0", "n = "), ("biot2d", "n = 8", "omega = ")])
    def test_option_the_problem_reads_is_kept(self, problem, read, unread):
        name, value = read.split(" = ")
        cfg = parse_config(["convergence", "--problem", problem,
                            f"--{name}", value])
        assert read in cfg.summary()
        assert unread not in cfg.summary()


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "porosplit", "biot2d", "--n", "4",
             "--tau", "2^-3", "--dry-run"],
            capture_output=True, text=True, env=env, cwd=root, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("porosplit biot2d")


# One small run of every subcommand (--n 4, two-tau grids), and its files.
SMALL_RUNS = {
    "toy": (["toy", "--tau", "2^-3"], ["toy_steps_1.csv"]),
    "biot2d": (["biot2d", "--n", "4", "--tau", "2^-3"],
               ["biot2d_steps_1.csv"]),
    "network": (["network", "--tau", "2^-3"], ["network_steps_1.csv"]),
    "convergence": (["convergence", "--n", "4", "--taus", "2^-3,2^-4"],
                    ["convergence_1.csv"]),
    "balance": (["balance", "--n", "4", "--taus", "2^-3,2^-4"],
                ["balancing_1.csv", "iteration_averages_1.csv"]),
    "iters": (["iters", "--ks", "1,2", "--omegas", "2", "--gammas", "0.5",
               "--taus", "2^-3,2^-4"],
              ["iterations_1.csv", "iterations_2.csv"]),
    "stability": (["stability"], ["stability.csv"]),
}

# Study subcommand -> the studies function it calls, and the tables of
# that function's result by file name.
STUDY_TABLES = {
    "convergence": ("convergence_study",
                    lambda r: {f"convergence_{r.order}.csv": r.report}),
    "balance": ("balancing_study",
                lambda r: {f"balancing_{r.order}.csv": r.report,
                           f"iteration_averages_{r.order}.csv":
                               r.iteration_averages}),
    "iters": ("iteration_study",
              lambda r: {f"iterations_{r.order}.csv": r.report}),
}


class TestOutputContract:
    """A runner returns its tables and its summary; ``main`` writes every
    table, then prints the summary and one ``wrote`` line per file."""

    @pytest.mark.parametrize("sub", list(SMALL_RUNS))
    def test_files_are_the_tables_and_wrote_lines_come_last(
            self, sub, tmp_path, capsys, monkeypatch):
        argv, files = SMALL_RUNS[sub]
        returned = []
        runner = cli._DISPATCH[sub]
        monkeypatch.setitem(cli._DISPATCH, sub, lambda cfg: returned.append(
            runner(cfg)) or returned[-1])
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        (tables, lines), = returned
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        assert sorted(tables) == files
        for name, table in tables.items():
            assert (tmp_path / name).read_text() == table.to_csv()
        assert lines
        assert capsys.readouterr().out.splitlines() == lines + [
            f"wrote {tmp_path / name}" for name in tables]

    @pytest.mark.parametrize("sub", list(STUDY_TABLES))
    def test_study_files_are_the_library_tables(self, sub, tmp_path,
                                                monkeypatch):
        name, tables_of = STUDY_TABLES[sub]
        results = []
        study = getattr(studies, name)
        monkeypatch.setattr(studies, name, lambda *args, **kwargs: (
            results.append(study(*args, **kwargs)) or results[-1]))
        assert main(SMALL_RUNS[sub][0] + ["--out", str(tmp_path)]) == EXIT_OK
        written = {}
        for result in results:
            written.update(tables_of(result))
        assert sorted(written) == SMALL_RUNS[sub][1]
        for file, table in written.items():
            assert (tmp_path / file).read_text() == table.to_csv()

    @pytest.mark.parametrize("sub", ["toy", "biot2d", "network"])
    def test_steps_file_holds_the_step_reports(self, sub, tmp_path,
                                               monkeypatch):
        runs = []
        original = splitsolve.integrate
        monkeypatch.setattr(splitsolve, "integrate", lambda *a, **kw: (
            runs.append(original(*a, **kw)) or runs[-1]))
        argv, (file,) = SMALL_RUNS[sub]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        (traj,) = runs
        lines = (tmp_path / file).read_text().splitlines()
        assert lines[0] == ("n,t,J_n,predicted_J_n,terminal_functional,"
                            "contraction_ratio_median")
        assert [line.split(",") for line in lines[1:]] == [
            [str(r.index), repr(float(r.time)), str(r.inner_iterations),
             "" if r.predicted is None else str(r.predicted),
             repr(float(r.terminal_value)), repr(float(r.ratio_median))]
            for r in traj.reports]


class TestClosedStdout:
    """A reader that leaves early finds a finished run: every subcommand
    writes its files before it prints."""

    # Unbuffered, each print meets the closed pipe at once; buffered, the
    # first flush does.
    @pytest.mark.parametrize("argv, files, unbuffered", [
        (["stability"], ["stability.csv"], "1"),
        (["stability"], ["stability.csv"], ""),
        (["toy", "--tau", "2^-3"], ["toy_steps_1.csv"], "1"),
        (["iters", "--ks", "1,2", "--omegas", "2", "--gammas", "0.5",
          "--taus", "2^-3,2^-4"], ["iterations_1.csv", "iterations_2.csv"],
         "1"),
    ] + [SMALL_RUNS[sub] + ("1",)
         for sub in ("biot2d", "network", "convergence", "balance")])
    def test_exits_ok_with_its_files_and_no_stderr(self, argv, files,
                                                   unbuffered, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)              # closed before the child prints
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "porosplit", *argv, "--out",
                 str(tmp_path)], stdout=write_end, stderr=subprocess.PIPE,
                text=True, env=env, cwd=root, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == files

    def test_an_output_file_that_cannot_be_written_exits_5(self, tmp_path,
                                                           capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["stability", "--out", str(blocker / "out")]) == EXIT_IO
        assert "i/o failure" in capsys.readouterr().err


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
        ["network", "--tau", "2^-3",       # 3 alphas, 3 moduli, 2 mobilities
         "--alphas", "0.4,0.2,0.1", "--moduli", "1,1,5"],
    ])
    def test_fails_with_exit_code_and_no_traceback(self, argv, tmp_path,
                                                   capsys):
        code = _exit_code(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in (EXIT_USAGE, EXIT_VALIDATION), err
        assert "Traceback" not in err
        assert err.strip()

    def test_a_negative_seed_is_named_before_any_work(self, tmp_path,
                                                       capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(stability, "find_multiplier", calls.append)
        assert main(["stability", "--seed", "-1", "--out", str(tmp_path)]) \
            == EXIT_VALIDATION
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert calls == []
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # the dry run used to pass these, which the run rejects
        ["network", "--tau", "2^-3", "--beta", "0,5=1"],
        ["network", "--tau", "2^-3", "--alphas", "1,2,3"],
        ["network", "--tau", "2^-3", "--moduli", "1,-1"],
        ["toy", "--tau", "2^-3", "--s", "400"],     # tol = tau^s underflows
        ["convergence", "--problem", "toy", "--s", "400"],
        # rules the library states and the dry run now applies
        ["toy", "--tau", "2^-3", "--gamma", "1.5"],
        ["toy", "--tau", "2^-3", "--gamma", "0.5", "--L", "2"],
        ["toy", "--tau", "2^-3", "--tol", "nan"],
        ["biot2d", "--tau", "2^-3", "--n", "1"],
        ["iters", "--gammas", "1.5"],
        ["toy", "--tau", "2^-3", "--k", "6"],
        # a study's grid rules, checked by the study's plan
        ["convergence", "--problem", "toy", "--taus", "2^-3,2^-5",
         "--k", "2"],
        ["iters", "--ks", "1", "--omegas", "2,2"],
        ["balance", "--k", "1", "--n", "4", "--taus", "0.3,0.25",
         "--T", "1.5"],
        ["convergence", "--problem", "toy", "--taus", "2^-3"],
        ["balance", "--n", "4", "--taus", "2^-3,2^-3"],
        ["iters", "--taus", "2^-3,2^-4,2^-3"],
        ["iters", "--gammas", "0.5,0.5"],
        ["iters", "--taus", "0.3"],
        ["convergence", "--problem", "toy", "--k", "3", "--taus",
         "2^-2,2^-3", "--T", "0.5"],
    ])
    def test_dry_run_and_run_fail_alike_before_any_run(
            self, argv, tmp_path, capsys, monkeypatch, study_runs):
        runs = []
        monkeypatch.setattr(splitsolve, "integrate",
                            lambda *args, **kwargs: runs.append(args))
        errors = []
        for extra, name in ((["--dry-run"], "dry"), ([], "run")):
            out_dir = tmp_path / name
            assert main(argv + extra + ["--out", str(out_dir)]) \
                == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
            assert not out_dir.exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ")
        assert len(errors[0].splitlines()) == 1
        assert runs == study_runs == []

    @pytest.mark.parametrize("argv, k", [
        (["stability"], 1),                           # the run's first order
        (["toy", "--tau", "2^-3", "--k", "3"], 3),    # the order check
    ])
    def test_a_multiplier_not_found_is_a_numerical_failure(
            self, argv, k, tmp_path, capsys, monkeypatch):
        def not_found(k):
            raise stability.NotFound(f"none for k={k}")

        monkeypatch.setattr(stability, "find_multiplier", not_found)
        scheme.cache_clear()    # the order check reaches the search
        try:
            code = main(argv + ["--out", str(tmp_path)])
        finally:
            scheme.cache_clear()
        err = capsys.readouterr().err
        assert code == EXIT_NUMERICAL
        assert err == f"numerical failure: none for k={k}\n"
        assert not any(tmp_path.iterdir())

    def test_exchange_pair_given_twice_fails_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(splitsolve, "integrate",
                            lambda *args, **kwargs: runs.append(args))
        code = main(["network", "--tau", "2^-3", "--beta", "0,1=1e-3",
                     "--beta", "1,0=5", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "given twice" in capsys.readouterr().err
        assert runs == []

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
    "reference": "analytic", "n": "8",
    "alphas": "0.1,0.3", "moduli": "2,3", "mobilities": "2,3",
    "beta": "0,1=1e-3", "seed": "5",
}


_TAKES_PROBLEM = next(o.readers for o in cli.OPTIONS if o.name == "problem")


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
        # where the subcommand takes --problem, pick one that reads opt
        context = (["--problem", opt.problems[0]]
                   if opt.problems and sub in _TAKES_PROBLEM else [])
        # a single run needs --tau; the baseline gives one unlike the sample
        required = ["--tau", "2^-3"] if sub in cli._SINGLE else []
        given = context + ([] if opt.name == "tau" else required)
        from_flag = parse_config([sub, f"--{opt.name}", value] + given)
        from_file = parse_config([sub, "--config", str(path)] + given)
        default = parse_config([sub] + context + required)
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

    @pytest.mark.parametrize("sub", ["toy", "biot2d", "network"])
    def test_run_without_gamma_or_L_uses_beta(self, sub, tmp_path, capsys,
                                              monkeypatch):
        runs = []
        original = splitsolve.integrate

        def recording(sys_obj, *args, **kwargs):
            runs.append((sys_obj, original(sys_obj, *args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(splitsolve, "integrate", recording)
        argv = [sub, "--tau", "2^-3"] + (["--n", "4"] if sub == "biot2d"
                                         else [])
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        (sys_obj, traj), = runs
        assert traj.stabilization == sys_obj.coupling_constant
        if sub == "biot2d":
            assert traj.stabilization == 0.9
        capsys.readouterr()
        assert main(argv + ["--dry-run"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert not [line for line in lines if line.split()[0] == "gamma"]

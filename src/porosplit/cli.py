"""Command-line front end: single runs, studies, stability certificates.

Exit codes: 0 success, 2 usage errors, 3 configuration validation errors,
4 numerical/solver failures, 5 I/O failures. Outputs are written
atomically (temp file + rename) into the output directory resolved from
--out, the POROSPLIT_OUT environment variable, or ./porosplit-out.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys as _sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import fem2d, linalg, splitsolve, stability, studies, system
from .bdf import UnsupportedOrder, scheme as make_scheme

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


class ValidationError(Exception):
    """Configuration violates an invariant (bad ranges, exclusive flags)."""


class UsageError(Exception):
    """Malformed invocation or config file (unknown keys, bad syntax)."""


def _parse_float_token(tok: str) -> float:
    """Accept plain floats plus '2^-6' style powers of two."""
    tok = tok.strip()
    m = re.fullmatch(r"2\^(-?\d+)", tok)
    if m:
        return 2.0 ** int(m.group(1))
    try:
        return float(tok)
    except ValueError as exc:
        raise UsageError(f"cannot parse number {tok!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    return [_parse_float_token(t) for t in text.split(",") if t.strip()]


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    subcommand: str
    problem: str = "toy"
    order: int = 1
    tau: Optional[float] = None
    taus: Optional[list[float]] = None
    t_end: float = 1.0
    tol: Optional[float] = None
    tol_exponent: Optional[float] = None
    gamma: Optional[float] = None
    stabilization: Optional[float] = None
    omega: float = 2.0
    omegas: list[float] = field(default_factory=lambda: [2.0, 4.0])
    gammas: list[float] = field(default_factory=lambda: [0.5, 0.1])
    orders: list[int] = field(default_factory=lambda: [1, 2])
    grid_n: int = 16
    networks: int = 2
    alphas: list[float] = field(default_factory=lambda: [0.4, 0.2])
    moduli: list[float] = field(default_factory=lambda: [1.0, 1.0])
    mobilities: list[float] = field(default_factory=lambda: [1.0, 1.0])
    exchange: dict = field(default_factory=dict)
    out_dir: Optional[str] = None
    seed: int = 0
    threads: int = 1
    dry_run: bool = False
    reference: str = "fine-implicit"

    def validate(self) -> None:
        if self.gamma is not None and self.stabilization is not None:
            raise ValidationError("--gamma and --L are mutually exclusive")
        for name, value in (("tau", self.tau), ("T", self.t_end),
                            ("tol", self.tol), ("s", self.tol_exponent),
                            ("omega", self.omega)):
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValidationError(
                    f"{name} must be finite and positive, got {value}")
        for name, values in (("taus", self.taus or []),
                             ("omegas", self.omegas)):
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                raise ValidationError(
                    f"{name} must be finite and positive, got {values}")
        if self.stabilization is not None and not (
                math.isfinite(self.stabilization) and self.stabilization >= 0.0):
            raise ValidationError(
                f"L must be finite and >= 0, got {self.stabilization}")
        if not all(0.0 < g < 1.0 for g in self.gammas):
            raise ValidationError(f"gammas must lie in (0, 1), got {self.gammas}")
        if self.grid_n < 2:
            raise ValidationError(f"n must be >= 2, got {self.grid_n}")
        if not 1 <= self.order <= 5:
            raise ValidationError(f"k must be in 1..5, got {self.order}")
        for k in self.orders:
            if not 1 <= k <= 5:
                raise ValidationError(f"k must be in 1..5, got {k}")
        if self.tau is not None:
            steps = self.t_end / self.tau
            if abs(steps - round(steps)) > 1e-9:
                raise ValidationError(
                    f"tau={self.tau:g} does not divide T={self.t_end:g}")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValidationError("gamma must lie in (0, 1)")

    def resolved_out(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        env = os.environ.get("POROSPLIT_OUT")
        return Path(env) if env else Path("porosplit-out")

    def summary(self) -> str:
        pairs = []
        for name, value in vars(self).items():
            if value is None or name == "subcommand":
                continue
            pairs.append(f"  {name} = {value}")
        return f"porosplit {self.subcommand}\n" + "\n".join(pairs)


_CONFIG_KEYS = {
    "problem", "k", "tau", "taus", "T", "tol", "s", "gamma", "L", "omega",
    "omegas", "gammas", "ks", "n", "networks", "alphas", "moduli",
    "mobilities", "out", "seed", "threads", "reference",
}


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _apply_config_values(cfg: RunConfig, values: dict) -> None:
    scalar_float = {"tau": "tau", "T": "t_end", "tol": "tol", "s": "tol_exponent",
                    "gamma": "gamma", "L": "stabilization", "omega": "omega"}
    for key, value in values.items():
        if key in scalar_float:
            setattr(cfg, scalar_float[key], _parse_float_token(value))
        elif key == "k":
            cfg.order = int(value)
        elif key == "ks":
            cfg.orders = [int(v) for v in value.split(",")]
        elif key == "n":
            cfg.grid_n = int(value)
        elif key == "networks":
            cfg.networks = int(value)
        elif key in ("taus", "omegas", "gammas", "alphas", "moduli",
                     "mobilities"):
            setattr(cfg, key, _parse_float_list(value))
        elif key == "out":
            cfg.out_dir = value
        elif key == "seed":
            cfg.seed = int(value)
        elif key == "threads":
            cfg.threads = int(value)
        elif key == "problem":
            cfg.problem = value
        elif key == "reference":
            cfg.reference = value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porosplit",
        description="Iteratively decoupled (fixed-stress) BDF time "
                    "integration for coupled elliptic-parabolic systems.",
        epilog="Exit codes: 0 ok, 2 usage, 3 validation, 4 numerical, 5 I/O.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dry-run", action="store_true",
                       help="print the resolved configuration and exit")

    # argparse defaults stay None so config-file values are not clobbered;
    # the RunConfig field defaults are the real fallbacks
    def run_opts(p, with_omega=True):
        p.add_argument("--k", type=int, help="BDF order (1..5)")
        p.add_argument("--tau", type=str, help="time step (accepts 2^-6)")
        p.add_argument("--T", type=str, help="final time (default 1)")
        p.add_argument("--tol", type=str, help="absolute inner tolerance")
        p.add_argument("--s", type=str, dest="tol_exponent",
                       help="tolerance exponent: tol = tau**s")
        p.add_argument("--gamma", type=str, help="target contraction factor")
        p.add_argument("--L", type=str, dest="stabilization",
                       help="explicit stabilization parameter")
        if with_omega:
            p.add_argument("--omega", type=str,
                           help="coupling strength (default 2)")

    p = sub.add_parser("toy", help="single split run of the scalar toy problem")
    common(p)
    run_opts(p)

    p = sub.add_parser("biot2d", help="single split run of the 2D problem")
    common(p)
    run_opts(p, with_omega=False)
    p.add_argument("--n", type=int, help="grid cells per side (default 16)")

    p = sub.add_parser("network", help="single split run of the network toy")
    common(p)
    run_opts(p, with_omega=False)
    p.add_argument("--networks", type=int)
    p.add_argument("--alphas", type=str)
    p.add_argument("--moduli", type=str, help="storage moduli M_i")
    p.add_argument("--mobilities", type=str)
    p.add_argument("--beta", action="append", default=[],
                   metavar="I,J=RATE", help="exchange rate (repeatable)")

    def threads_opt(p):
        p.add_argument("--threads", type=int,
                       help="worker threads for the study cells (default 1)")

    p = sub.add_parser("convergence", help="temporal-order study")
    common(p)
    threads_opt(p)
    p.add_argument("--k", type=int)
    p.add_argument("--taus", type=str)
    p.add_argument("--s", type=str, dest="tol_exponent")
    p.add_argument("--T", type=str)
    p.add_argument("--problem", choices=("toy", "biot2d"))
    p.add_argument("--n", type=int)
    p.add_argument("--omega", type=str)
    p.add_argument("--reference", choices=("fine-implicit", "analytic"))

    p = sub.add_parser("balance", help="tolerance-balancing study")
    common(p)
    threads_opt(p)
    p.add_argument("--k", type=int)
    p.add_argument("--taus", type=str)
    p.add_argument("--T", type=str)
    p.add_argument("--n", type=int)

    p = sub.add_parser("iters", help="iteration-count study on the toy")
    common(p)
    p.add_argument("--ks", type=str)
    p.add_argument("--omegas", type=str)
    p.add_argument("--gammas", type=str)
    p.add_argument("--taus", type=str)
    p.add_argument("--T", type=str)

    p = sub.add_parser("stability", help="multiplier certificates and identity")
    common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    if args.subcommand == "convergence":
        cfg.problem = "biot2d"
    if getattr(args, "config", None):
        _apply_config_values(cfg, _read_config_file(args.config))

    def take_float(name, attr=None):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, attr or name, _parse_float_token(value))

    if getattr(args, "k", None) is not None:
        cfg.order = args.k
    take_float("tau")
    take_float("T", "t_end")
    take_float("tol")
    take_float("tol_exponent")
    take_float("gamma")
    take_float("stabilization")
    take_float("omega")
    for name in ("taus", "omegas", "gammas", "alphas", "moduli", "mobilities"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, _parse_float_list(value))
    if getattr(args, "ks", None) is not None:
        cfg.orders = [int(v) for v in args.ks.split(",")]
    if getattr(args, "n", None) is not None:
        cfg.grid_n = args.n
    if getattr(args, "networks", None) is not None:
        cfg.networks = args.networks
    for spec_str in getattr(args, "beta", []) or []:
        m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*=\s*(\S+)", spec_str)
        if not m:
            raise UsageError(f"bad --beta value {spec_str!r}, expected I,J=RATE")
        cfg.exchange[(int(m.group(1)), int(m.group(2)))] = float(m.group(3))
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "problem", None):
        cfg.problem = args.problem
    if getattr(args, "reference", None):
        cfg.reference = args.reference
    cfg.seed = getattr(args, "seed", 0)
    if getattr(args, "threads", None) is not None:
        cfg.threads = args.threads
    cfg.dry_run = getattr(args, "dry_run", False)
    cfg.validate()
    return cfg


def parse_config(argv) -> RunConfig:
    """Parse argv (plus optional config file) into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    return _config_from_args(args)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _steps_csv(traj: splitsolve.Trajectory) -> str:
    lines = ["n,t,J_n,predicted_J_n,terminal_functional,contraction_ratio_median"]
    for r in traj.reports:
        lines.append(",".join([
            str(r.index), repr(r.time), str(r.inner_iterations),
            str(r.predicted), repr(r.terminal_value), repr(r.ratio_median),
        ]))
    return "\n".join(lines) + "\n"


def _build_single_system(cfg: RunConfig):
    """The system the subcommand names; ``convergence`` names it by --problem."""
    problem = cfg.problem if cfg.subcommand == "convergence" else cfg.subcommand
    if problem == "toy":
        return system.make_toy(cfg.omega)
    if problem == "biot2d":
        return fem2d.manufactured_system(cfg.grid_n)
    if problem == "network":
        count = cfg.networks
        return system.make_network_toy(
            count, cfg.alphas[:count], cfg.moduli[:count],
            cfg.mobilities[:count], cfg.exchange)
    raise ValidationError(f"unknown problem kind {problem!r}")


def _split_config(cfg: RunConfig, tau: float) -> splitsolve.SplitConfig:
    if cfg.tol is not None:
        tol = cfg.tol
    elif cfg.tol_exponent is not None:
        tol = tau ** cfg.tol_exponent
    else:
        tol = tau ** (cfg.order + 1.5)
    return splitsolve.SplitConfig(
        tol=tol, gamma_target=cfg.gamma, stabilization=cfg.stabilization,
        startup="bootstrap",
    )


def _run_single(cfg: RunConfig) -> int:
    sys_obj = _build_single_system(cfg)
    if cfg.tau is None:
        raise ValidationError("--tau is required for single runs")
    if cfg.gamma is None and cfg.stabilization is None and sys_obj.dim_p == 1:
        cfg.gamma = 0.5
    sch = make_scheme(cfg.order)
    split_cfg = _split_config(cfg, cfg.tau)
    if cfg.gamma is None and cfg.stabilization is None:
        split_cfg.gamma_target = 0.4
    traj = splitsolve.integrate(sys_obj, split_cfg, sch, cfg.tau, cfg.t_end,
                                mode="split")
    out = cfg.resolved_out()
    _write_atomic(out / f"{cfg.subcommand}_steps_{cfg.order}.csv",
                  _steps_csv(traj))
    print(f"{sys_obj.label}: {len(traj.reports)} split steps, "
          f"mean inner iterations {traj.mean_inner():.2f}")
    if sys_obj.exact_p is not None:
        t_final = traj.times[-1]
        err = float(np.linalg.norm(traj.ps[-1] - sys_obj.exact_p(t_final)))
        print(f"final-time pressure deviation from exact: {err:.3e}")
    print(f"wrote {out / f'{cfg.subcommand}_steps_{cfg.order}.csv'}")
    return EXIT_OK


def _run_convergence(cfg: RunConfig) -> int:
    sys_obj = _build_single_system(cfg)
    taus = cfg.taus or [2.0 ** -e for e in range(3, 8)]
    exponent = cfg.tol_exponent if cfg.tol_exponent is not None \
        else cfg.order + 1.5
    result = studies.convergence_study(
        sys_obj, cfg.order, taus, tol_exponent=exponent,
        reference=cfg.reference, t_end=cfg.t_end, threads=cfg.threads)
    out = cfg.resolved_out()
    path = out / f"convergence_{cfg.order}.csv"
    _write_atomic(path, result.report.to_csv())
    orders = ", ".join(f"{o:.2f}" for o in result.eoc.pairwise_orders)
    print(f"k={cfg.order}: fitted order {result.eoc.fitted_order:.3f} "
          f"(pairwise {orders})")
    print(f"wrote {path}")
    return EXIT_OK


def _run_balance(cfg: RunConfig) -> int:
    sys_obj = fem2d.manufactured_system(cfg.grid_n)
    k = cfg.order
    taus = cfg.taus or [2.0 ** -e for e in range(3, 8)]
    exponents = [k, k + 0.5, k + 1.0, k + 1.5, k + 2.0]
    result = studies.balancing_study(sys_obj, k, taus, exponents,
                                     t_end=cfg.t_end, threads=cfg.threads)
    avg = studies.average_iteration_table(sys_obj, k, taus,
                                          t_end=cfg.t_end,
                                          threads=cfg.threads)
    out = cfg.resolved_out()
    path = out / f"balancing_{k}.csv"
    _write_atomic(path, result.report.to_csv())
    path_avg = out / f"iteration_averages_{k}.csv"
    _write_atomic(path_avg, avg.report.to_csv())
    flags = ", ".join(f"tau={tau:g}:{'ok' if ok else 'OFF'}"
                      for tau, ok in sorted(result.balanced_ok.items(),
                                            reverse=True))
    print(f"k={k} balanced-tolerance runs vs implicit baseline: {flags}")
    print(f"wrote {path} and {path_avg}")
    return EXIT_OK


def _run_iters(cfg: RunConfig) -> int:
    out = cfg.resolved_out()
    taus = cfg.taus or [2.0 ** -e for e in range(3, 9)]
    for k in cfg.orders:
        result = studies.iteration_study(k, cfg.omegas, cfg.gammas, taus,
                                         t_end=cfg.t_end)
        path = out / f"iterations_{k}.csv"
        _write_atomic(path, result.report.to_csv())
        print(f"k={k}:")
        for omega in cfg.omegas:
            for gamma in cfg.gammas:
                row = [result.cells[(omega, gamma, tau)]["rounded"]
                       for tau in taus]
                print(f"  omega={omega:g} gamma={gamma:g}: {row}")
        print(f"wrote {path}")
    return EXIT_OK


def _run_stability(cfg: RunConfig) -> int:
    out = cfg.resolved_out()
    lines = ["k,eta,min_real_part,identity_residual"]
    print(f"{'k':>2} {'eta':>8} {'min Re':>12} {'identity residual':>18}")
    for k in range(1, 6):
        cert = stability.certificate(k)
        resid = ""
        if k <= 2:
            resid = stability.verify_identity(stability.g_stability_data(k),
                                              trials=200, dim=8,
                                              seed=cfg.seed)
            resid_txt = f"{resid:.3e}"
        else:
            resid_txt = "-"
        print(f"{k:>2} {cert.multiplier:>8.4f} {cert.min_real_part:>12.3e} "
              f"{resid_txt:>18}")
        lines.append(f"{k},{cert.multiplier!r},{cert.min_real_part!r},"
                     f"{resid!r}" if k <= 2 else
                     f"{k},{cert.multiplier!r},{cert.min_real_part!r},")
    _write_atomic(out / "stability.csv", "\n".join(lines) + "\n")
    print(f"wrote {out / 'stability.csv'}")
    return EXIT_OK


_DISPATCH = {
    "toy": _run_single,
    "biot2d": _run_single,
    "network": _run_single,
    "convergence": _run_convergence,
    "balance": _run_balance,
    "iters": _run_iters,
    "stability": _run_stability,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except (ValidationError, UnsupportedOrder) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    if cfg.dry_run:
        print(cfg.summary())
        return EXIT_OK
    try:
        return _DISPATCH[cfg.subcommand](cfg)
    except (ValidationError, UnsupportedOrder, system.InvalidParameter,
            ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except (linalg.LinalgError, splitsolve.MaxInnerExceeded,
            splitsolve.SolverFailure, splitsolve.MissingConstants) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=_sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: single runs, studies, stability certificates.

Every option a run reads is one row of ``OPTIONS``. The row's name is
both the ``--flag`` and the config-file key, and the row gives the
``RunConfig`` field, the one parser applied to flag and config-file
values alike, the subcommands that read the option and any
per-subcommand default. A subcommand registers only the options it
reads; any other flag or config-file key is a usage error. ``--config``
and ``--dry-run``, which control the invocation itself, are the only
flags outside the table. Each value resolves as

    field default < subcommand default < config file < flag,

each source overriding the ones before it.

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
from typing import Callable, Optional

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


class UsageError(argparse.ArgumentTypeError):
    """Malformed invocation or config file (unknown keys, bad syntax).

    An ``argparse.ArgumentTypeError``, so a parser that raises it on a
    flag value makes argparse report the flag and exit 2.
    """


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


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"expected an integer, got {text!r}") from exc


def _list_of(parse_item: Callable[[str], object]) -> Callable[[str], list]:
    """Parser of a comma-separated, non-empty list."""
    def parse(text: str) -> list:
        items = [parse_item(t) for t in text.split(",") if t.strip()]
        if not items:
            raise UsageError(f"expected a comma-separated list, got {text!r}")
        return items
    return parse


_parse_floats = _list_of(_parse_float_token)


def _parse_exchange(text: str) -> tuple[tuple[int, int], float]:
    """'I,J=RATE' -> ((I, J), RATE)."""
    m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*=\s*(\S+)", text)
    if not m:
        raise UsageError(f"expected I,J=RATE, got {text!r}")
    return (int(m.group(1)), int(m.group(2))), _parse_float_token(m.group(3))


def _one_of(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise UsageError(
                f"expected one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


SUBCOMMANDS = {
    "toy": "single split run of the scalar toy problem",
    "biot2d": "single split run of the 2D problem",
    "network": "single split run of the network toy",
    "convergence": "temporal-order study",
    "balance": "tolerance-balancing study",
    "iters": "iteration-count study on the toy",
    "stability": "multiplier certificates and identity",
}

_SINGLE = ("toy", "biot2d", "network")


@dataclass(frozen=True)
class Option:
    """One row of the option table: ``--name`` on the command line and
    ``name = value`` in a config file."""

    name: str
    dest: str                     # RunConfig field
    parse: Callable[[str], object]
    readers: tuple[str, ...]      # the subcommands that read it
    help: str = ""
    defaults: dict = field(default_factory=dict)  # subcommand -> default
    default_unless: str = ""      # a default gives way when this field is set
    repeat: bool = False          # repeatable; the values collect in a list


_STUDY_TAUS = [2.0 ** -e for e in range(3, 8)]

OPTIONS = (
    Option("out", "out_dir", str, tuple(SUBCOMMANDS), "output directory"),
    Option("k", "order", _parse_int, _SINGLE + ("convergence", "balance"),
           "BDF order (1..5)"),
    Option("ks", "orders", _list_of(_parse_int), ("iters",), "BDF orders"),
    Option("tau", "tau", _parse_float_token, _SINGLE,
           "time step (accepts 2^-6)"),
    Option("taus", "taus", _parse_floats,
           ("convergence", "balance", "iters"), "time steps, each half the last",
           defaults={"convergence": _STUDY_TAUS, "balance": _STUDY_TAUS,
                     "iters": [2.0 ** -e for e in range(3, 9)]}),
    Option("T", "t_end", _parse_float_token,
           _SINGLE + ("convergence", "balance", "iters"), "final time"),
    Option("tol", "tol", _parse_float_token, _SINGLE,
           "absolute inner tolerance"),
    Option("s", "tol_exponent", _parse_float_token, _SINGLE + ("convergence",),
           "tolerance exponent: tol = tau**s (default k + 3/2)"),
    Option("gamma", "gamma", _parse_float_token, _SINGLE,
           "target contraction factor",
           defaults={"toy": 0.5, "biot2d": 0.4, "network": 0.4},
           default_unless="stabilization"),
    Option("L", "stabilization", _parse_float_token, _SINGLE,
           "explicit stabilization parameter, in place of gamma"),
    Option("gammas", "gammas", _parse_floats, ("iters",),
           "target contraction factors"),
    Option("omega", "omega", _parse_float_token, ("toy", "convergence"),
           "coupling strength of the toy"),
    Option("omegas", "omegas", _parse_floats, ("iters",),
           "coupling strengths of the toy"),
    Option("problem", "problem", _one_of("toy", "biot2d"), ("convergence",),
           "problem to study", defaults={"convergence": "biot2d"}),
    Option("reference", "reference", _one_of("fine-implicit", "analytic"),
           ("convergence",), "what errors are measured against"),
    Option("n", "grid_n", _parse_int, ("biot2d", "convergence", "balance"),
           "grid cells per side"),
    Option("networks", "networks", _parse_int, ("network",),
           "number of pressure networks"),
    Option("alphas", "alphas", _parse_floats, ("network",),
           "coupling coefficients alpha_i"),
    Option("moduli", "moduli", _parse_floats, ("network",),
           "storage moduli M_i"),
    Option("mobilities", "mobilities", _parse_floats, ("network",),
           "mobilities of the networks"),
    Option("beta", "exchange", _parse_exchange, ("network",),
           "exchange rate I,J=RATE between networks I and J (repeatable)",
           repeat=True),
    Option("seed", "seed", _parse_int, ("stability",),
           "seed of the identity check's random trials"),
)


@dataclass
class RunConfig:
    """Resolved options of one CLI invocation."""

    subcommand: str
    problem: Optional[str] = None
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
    exchange: list = field(default_factory=list)   # ((i, j), rate) pairs
    out_dir: Optional[str] = None
    seed: int = 0
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
        """The options the subcommand reads, as resolved."""
        lines = [f"porosplit {self.subcommand}"]
        for opt in OPTIONS:
            value = getattr(self, opt.dest)
            if self.subcommand in opt.readers and value is not None:
                lines.append(f"  {opt.name} = {value}")
        return "\n".join(lines)


def _read_config_file(path: str, subcommand: str) -> dict:
    """Parsed ``key = value`` lines of a config file, by RunConfig field."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    options = {opt.name: opt for opt in OPTIONS if subcommand in opt.readers}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        opt = options.get(key)
        if opt is None:
            raise UsageError(f"{path}:{lineno}: porosplit {subcommand} "
                             f"reads no option {key!r}")
        try:
            parsed = opt.parse(value)
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {key}: {exc}") from exc
        if opt.repeat:
            values.setdefault(opt.dest, []).append(parsed)
        else:
            values[opt.dest] = parsed
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porosplit",
        description="Iteratively decoupled (fixed-stress) BDF time "
                    "integration for coupled elliptic-parabolic systems.",
        epilog="Exit codes: 0 ok, 2 usage, 3 validation, 4 numerical, 5 I/O.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in SUBCOMMANDS.items():
        # SUPPRESS: an omitted flag leaves no attribute, so it cannot
        # override a default or a config-file value. No abbreviations:
        # --k must not pass for --ks on a subcommand that lacks --k.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--dry-run", action="store_true",
                       help="print the resolved options and exit")
        base = RunConfig(subcommand=name)
        for opt in OPTIONS:
            if name not in opt.readers:
                continue
            default = opt.defaults.get(name, getattr(base, opt.dest))
            p.add_argument(f"--{opt.name}", dest=opt.dest, type=opt.parse,
                           action="append" if opt.repeat else "store",
                           help=opt.help if default in (None, [])
                           else f"{opt.help} (default {default})")
    return parser


def parse_config(argv) -> RunConfig:
    """Parse argv (plus optional config file) into a validated RunConfig."""
    args = vars(_build_parser().parse_args(argv))
    sub = args.pop("subcommand")
    config = args.pop("config", None)
    given = _read_config_file(config, sub) if config else {}
    given.update(args)
    values = {opt.dest: opt.defaults[sub] for opt in OPTIONS
              if sub in opt.defaults and opt.default_unless not in given}
    values.update(given)
    cfg = RunConfig(subcommand=sub, **values)
    cfg.validate()
    return cfg


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
    problem = cfg.problem or cfg.subcommand
    if problem == "toy":
        return system.make_toy(cfg.omega)
    if problem == "biot2d":
        return fem2d.manufactured_system(cfg.grid_n)
    if problem == "network":
        return system.make_network_toy(
            cfg.networks, cfg.alphas, cfg.moduli, cfg.mobilities,
            cfg.exchange)
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
    sch = make_scheme(cfg.order)
    traj = splitsolve.integrate(sys_obj, _split_config(cfg, cfg.tau), sch,
                                cfg.tau, cfg.t_end, mode="split")
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
    exponent = cfg.tol_exponent if cfg.tol_exponent is not None \
        else cfg.order + 1.5
    result = studies.convergence_study(
        sys_obj, cfg.order, cfg.taus, tol_exponent=exponent,
        reference=cfg.reference, t_end=cfg.t_end)
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
    exponents = [k, k + 0.5, k + 1.0, k + 1.5, k + 2.0]
    result = studies.balancing_study(sys_obj, k, cfg.taus, exponents,
                                     t_end=cfg.t_end)
    avg = studies.average_iteration_table(sys_obj, k, cfg.taus,
                                          t_end=cfg.t_end)
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
    for k in cfg.orders:
        result = studies.iteration_study(k, cfg.omegas, cfg.gammas, cfg.taus,
                                         t_end=cfg.t_end)
        path = out / f"iterations_{k}.csv"
        _write_atomic(path, result.report.to_csv())
        print(f"k={k}:")
        for omega in cfg.omegas:
            for gamma in cfg.gammas:
                row = [result.cells[(omega, gamma, tau)]["rounded"]
                       for tau in cfg.taus]
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

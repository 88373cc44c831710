"""Command-line front end: single runs, studies, stability certificates.

Every option a run reads is one row of ``OPTIONS``. The row's name is
both the ``--flag`` and the config-file key, and the row gives the
``RunConfig`` field, the one parser applied to flag and config-file
values alike, the subcommands that read the option and any
per-subcommand default. A subcommand registers only the options it
reads, and a row may also name the problems that read it; any other
flag or config-file key, or one the chosen ``--problem`` does not read,
is a usage error. ``--config`` and ``--dry-run``, which control the
invocation itself, are the only flags outside the table. Each value
resolves as

    field default < subcommand default < config file < flag,

each source overriding the ones before it.

``RunConfig.validate`` checks every value before any run, so a dry run
fails where the run would, with the same message. The CLI owns four
rules: a single run needs --tau, --s is finite and positive, --seed is
>= 0, and --ks repeats no order, as the CLI loops the orders. Every other
value is checked by the library rule the run applies to it: a single
run's order, step grid and split config; the plan each study calls
first, with the study's own arguments; the toy and grid builders and the
network.

``convergence`` and ``balance`` run their studies on the clock of the
acceptance criteria: they measure on [1, 1 + T], past the initial layer
that rough initial data excite in the stiff discrete modes, with L
chosen for the contraction target gamma = 0.15.

Each subcommand has one runner. A runner returns ``(tables, lines)``:
``tables`` maps CSV file names to ``studies.StudyReport`` tables, and
``lines`` is its summary for stdout. A runner writes no file and prints
nothing; "write, then print" lives in :func:`main` alone. It writes every
table atomically (temp file + rename) into the output directory resolved
from --out, the POROSPLIT_OUT environment variable, or ./porosplit-out,
then prints the summary and one ``wrote <path>`` line per file.
``--dry-run`` takes the same path, with no tables and the resolved
options as its summary.

Exit codes: 0 success, 2 usage errors, 3 configuration validation errors,
4 numerical/solver failures, 5 I/O failures; a closed stdout is not one.
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

from . import fem2d, linalg, splitsolve, stability, studies, system
from .bdf import scheme as make_scheme

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


class ValidationError(Exception):
    """Configuration breaks a CLI rule, or a library rule the run applies."""


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
    problems: tuple[str, ...] = ()  # the problems that read it; () = all
    defaults: dict = field(default_factory=dict)  # subcommand -> default
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
           "target contraction factor, in place of the default L = beta"),
    Option("L", "stabilization", _parse_float_token, _SINGLE,
           "explicit stabilization parameter, in place of the default "
           "L = beta"),
    Option("gammas", "gammas", _parse_floats, ("iters",),
           "target contraction factors"),
    Option("omega", "omega", _parse_float_token, ("toy", "convergence"),
           "coupling strength of the toy", problems=("toy",)),
    Option("omegas", "omegas", _parse_floats, ("iters",),
           "coupling strengths of the toy"),
    Option("problem", "problem", _one_of("toy", "biot2d"), ("convergence",),
           "problem to study", defaults={"convergence": "biot2d"}),
    Option("reference", "reference", _one_of("fine-implicit", "analytic"),
           ("convergence",), "what errors are measured against"),
    Option("n", "grid_n", _parse_int, ("biot2d", "convergence", "balance"),
           "grid cells per side", problems=("biot2d",)),
    Option("alphas", "alphas", _parse_floats, ("network",),
           "coupling coefficients alpha_i, one per network"),
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
    alphas: list[float] = field(default_factory=lambda: [0.4, 0.2])
    moduli: list[float] = field(default_factory=lambda: [1.0, 1.0])
    mobilities: list[float] = field(default_factory=lambda: [1.0, 1.0])
    exchange: list = field(default_factory=list)   # ((i, j), rate) pairs
    out_dir: Optional[str] = None
    seed: int = 0
    dry_run: bool = False
    reference: str = "fine-implicit"

    def validate(self) -> None:
        if self.subcommand in _SINGLE and self.tau is None:
            raise ValidationError("--tau is required for single runs")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for k in self.orders:
            if self.orders.count(k) > 1:
                raise ValidationError(f"ks repeat k={k}; each order runs once")
        try:    # each value meets the library rule the run applies to it
            if self.tol_exponent is not None:
                linalg._real("s", self.tol_exponent)
            if self.subcommand in _SINGLE:
                make_scheme(self.order)
                splitsolve.step_count(self.tau, self.t_end, self.order)
                _split_config(self, self.tau)
            for args in _study_args(self):
                _PLANS[self.subcommand](*args)
            for omega in [self.omega] + self.omegas:
                system.make_toy(omega)
            fem2d.Grid2D(self.grid_n)
            if self.subcommand == "network":
                _build_single_system(self)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    def resolved_out(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        env = os.environ.get("POROSPLIT_OUT")
        return Path(env) if env else Path("porosplit-out")

    def reads(self, opt: Option) -> bool:
        """Whether the run reads ``opt``: its subcommand does and, where
        the subcommand takes ``--problem``, so does the chosen problem."""
        return self.subcommand in opt.readers and (
            self.problem is None or not opt.problems
            or self.problem in opt.problems)

    def summary(self) -> str:
        """The options the run reads, as resolved."""
        lines = [f"porosplit {self.subcommand}"]
        for opt in OPTIONS:
            value = getattr(self, opt.dest)
            if self.reads(opt) and value is not None:
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
              if sub in opt.defaults}
    values.update(given)
    cfg = RunConfig(subcommand=sub, **values)
    for opt in OPTIONS:
        if opt.dest in given and not cfg.reads(opt):
            raise UsageError(f"porosplit {sub} --problem {cfg.problem} "
                             f"reads no option {opt.name!r}")
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


# What a runner returns: CSV tables by file name, and its summary lines.
_Output = tuple[dict[str, studies.StudyReport], list[str]]


def _steps_table(traj: splitsolve.Trajectory) -> studies.StudyReport:
    return studies.StudyReport(
        columns=("n", "t", "J_n", "predicted_J_n", "terminal_functional",
                 "contraction_ratio_median"),
        rows=[(r.index, r.time, r.inner_iterations, r.predicted,
               r.terminal_value, r.ratio_median) for r in traj.reports])


def _build_single_system(cfg: RunConfig):
    """The system the subcommand names; ``convergence`` names it by --problem."""
    problem = cfg.problem or cfg.subcommand
    if problem == "toy":
        return system.make_toy(cfg.omega)
    if problem == "biot2d":
        return fem2d.manufactured_system(cfg.grid_n)
    return system.make_network_toy(len(cfg.alphas), cfg.alphas, cfg.moduli,
                                   cfg.mobilities, cfg.exchange)


def _tol_exponent(cfg: RunConfig) -> float:
    """--s, else the balanced exponent k + 3/2."""
    return cfg.order + 1.5 if cfg.tol_exponent is None else cfg.tol_exponent


def _split_config(cfg: RunConfig, tau: float) -> splitsolve.SplitConfig:
    tol = cfg.tol if cfg.tol is not None else tau ** _tol_exponent(cfg)
    return splitsolve.SplitConfig(
        tol=tol, gamma_target=cfg.gamma, stabilization=cfg.stabilization)


def _run_single(cfg: RunConfig) -> _Output:
    sys_obj = _build_single_system(cfg)
    traj = splitsolve.integrate(sys_obj, _split_config(cfg, cfg.tau),
                                make_scheme(cfg.order), cfg.tau, cfg.t_end,
                                mode="split")
    lines = [f"{sys_obj.label}: {len(traj.reports)} split steps, "
             f"mean inner iterations {traj.mean_inner():.2f}"]
    if sys_obj.exact_p is not None:
        diff = traj.ps[-1] - sys_obj.exact_p(traj.times[-1])
        err = math.sqrt(linalg.weighted_norm_sq(sys_obj.norm_p, diff))
        lines.append(f"final-time pressure error against exact, "
                     f"L2 (norm_p) norm: {err:.3e}")
    name = f"{cfg.subcommand}_steps_{cfg.order}.csv"
    return {name: _steps_table(traj)}, lines


_PLANS = {"convergence": studies.convergence_plan,
          "balance": studies.balancing_plan, "iters": studies.iteration_plan}


# the clock of the convergence and balancing studies: they measure on
# [t_start, t_start + T], past the initial layer, with L chosen for the
# contraction target gamma
_STUDY_T_START = 1.0
_STUDY_GAMMA = 0.15


def _study_args(cfg: RunConfig) -> list[tuple]:
    """The arguments of each study call of the run but the system or
    builder; the study's plan in ``_PLANS`` takes the same."""
    k, taus, t_end = cfg.order, cfg.taus, cfg.t_end
    if cfg.subcommand == "convergence":
        return [(k, taus, _tol_exponent(cfg), cfg.reference, t_end,
                 _STUDY_T_START, _STUDY_GAMMA)]
    if cfg.subcommand == "balance":
        # a balanced run stays within a factor 2.0 of the implicit one
        return [(k, taus, [k, k + 0.5, k + 1.0, k + 1.5, k + 2.0], t_end,
                 _STUDY_T_START, 2.0, _STUDY_GAMMA)]
    if cfg.subcommand == "iters":
        return [(order, cfg.omegas, cfg.gammas, taus, t_end)
                for order in cfg.orders]
    return []


def _run_convergence(cfg: RunConfig) -> _Output:
    (args,) = _study_args(cfg)
    result = studies.convergence_study(_build_single_system(cfg), *args)
    orders = ", ".join(f"{o:.2f}" for o in result.eoc.pairwise_orders)
    return {f"convergence_{cfg.order}.csv": result.report}, [
        f"k={cfg.order}: fitted order {result.eoc.fitted_order:.3f} "
        f"(pairwise {orders})"]


def _run_balance(cfg: RunConfig) -> _Output:
    k = cfg.order
    (args,) = _study_args(cfg)
    result = studies.balancing_study(fem2d.manufactured_system(cfg.grid_n),
                                     *args)
    flags = ", ".join(f"tau={tau:g}:{'ok' if ok else 'OFF'}"
                      for tau, ok in sorted(result.balanced_ok.items(),
                                            reverse=True))
    return {f"balancing_{k}.csv": result.report,
            f"iteration_averages_{k}.csv": result.iteration_averages}, [
        f"k={k} balanced-tolerance runs vs implicit baseline: {flags}"]


def _run_iters(cfg: RunConfig) -> _Output:
    results = {args[0]: studies.iteration_study(*args)
               for args in _study_args(cfg)}
    lines = []
    for k, result in results.items():
        lines.append(f"k={k}:")
        for omega in cfg.omegas:
            for gamma in cfg.gammas:
                row = [result.cells[(omega, gamma, tau)]["rounded"]
                       for tau in cfg.taus]
                lines.append(f"  omega={omega:g} gamma={gamma:g}: {row}")
    return {f"iterations_{k}.csv": result.report
            for k, result in results.items()}, lines


def _run_stability(cfg: RunConfig) -> _Output:
    rows = []
    for k in range(1, 6):
        cert = stability.find_multiplier(k)
        # the identity is checked where G-matrix data exist, k <= 2
        resid = (stability.verify_identity(stability.g_stability_data(k),
                                           trials=200, dim=8, seed=cfg.seed)
                 if k <= 2 else None)
        rows.append((k, cert.multiplier, cert.min_real_part, resid))
    lines = [f"{'k':>2} {'eta':>8} {'min Re':>12} {'identity residual':>18}"]
    lines.extend(f"{k:>2} {eta:>8.4f} {min_re:>12.3e} "
                 f"{'-' if resid is None else f'{resid:.3e}':>18}"
                 for k, eta, min_re, resid in rows)
    table = studies.StudyReport(
        columns=("k", "eta", "min_real_part", "identity_residual"), rows=rows)
    return {"stability.csv": table}, lines


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
    """Run one invocation and return its exit code.

    The one place a run's output leaves the process: every table the
    runner returns is written, then its summary and the ``wrote`` lines
    are printed. A reader that closes stdout early therefore finds the
    files written and gets exit code 0; stdout is then pointed at
    devnull, so the flush at exit does not fail again."""
    try:
        cfg = parse_config(argv)
        tables, lines = ({}, [cfg.summary()]) if cfg.dry_run \
            else _DISPATCH[cfg.subcommand](cfg)
        out = cfg.resolved_out()
        for name, table in tables.items():
            _write_atomic(out / name, table.to_csv())
        for line in lines + [f"wrote {out / name}" for name in tables]:
            print(line)
        _sys.stdout.flush()
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return EXIT_OK
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_VALIDATION
    except (linalg.LinalgError, splitsolve.MaxInnerExceeded,
            splitsolve.SolverFailure, splitsolve.MissingConstants,
            stability.NotFound) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=_sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())

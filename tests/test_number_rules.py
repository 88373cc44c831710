"""One number rule for every library entry.

Each entry that takes an integer or a real number checks it with
``linalg._integer`` or ``linalg._real``: a bool, a string, a float where
an integer belongs, a non-finite value and a value below the range all
fail with the entry's documented ``ValueError`` subclass (the CLI's
``ValidationError`` for ``RunConfig``), and the message starts with the
parameter's name. numpy integers and floats are numbers like any other.
"""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from porosplit import bdf, cli, fem2d, stability, studies, system
from porosplit.bdf import History, UnsupportedOrder
from porosplit.splitsolve import (MissingConstants, SplitConfig, StepReport,
                                  contraction_factor, integrate,
                                  predict_iterations, step_count)
from porosplit.system import InvalidParameter, make_network_toy, make_toy

TOY = make_toy(2.0)
NET = (2, [0.4, 0.2], [1.0, 1.0], [1.0, 1.0])


def _decay_time(value):
    solution = dataclasses.replace(
        fem2d.manufactured(fem2d.BiotParameters()), decay_time=value)
    return fem2d.assemble_biot(fem2d.Grid2D(2), solution)


def _split_run(field, value):
    """One split step at L = beta of the toy that declares ``value`` as
    its constant ``field``."""
    return integrate(dataclasses.replace(TOY, **{field: value}),
                     SplitConfig(tol=1e-6), bdf.scheme(1), 0.5, 0.5,
                     mode="split")


# (id, call of the value, exception, name the message starts with, a value
# below the range)
INTEGER_ENTRIES = [
    ("bdf-order", bdf.scheme, UnsupportedOrder, "BDF order", 0),
    ("history-capacity", History, ValueError, "capacity", 0),
    ("grid-n", fem2d.Grid2D, ValueError, "n", 1),
    ("max-inner", lambda v: SplitConfig(tol=1e-6, max_inner=v), ValueError,
     "max_inner", 0),
    ("samples", lambda v: stability.criterion_min(1, 0.0, samples=v),
     ValueError, "samples", 999),
    ("trials", lambda v: stability.verify_identity(
        stability.g_stability_data(1), trials=v, dim=2), ValueError,
     "trials", 99),
    ("dim", lambda v: stability.verify_identity(
        stability.g_stability_data(1), trials=100, dim=v), ValueError,
     "dim", 0),
    ("g-data-order", stability.g_stability_data, ValueError,
     "order of explicit G data", 0),
    ("network-count", lambda v: make_network_toy(v, *NET[1:], {}),
     InvalidParameter, "network count", 1),
    ("exchange-index", lambda v: make_network_toy(*NET, [((0, v), 0.5)]),
     InvalidParameter, "index of exchange pair", -1),
]

REAL_ENTRIES = [
    ("toy-omega", make_toy, InvalidParameter, "omega", 0.0),
    *[(f"biot-{name}", lambda v, name=name: fem2d.BiotParameters(**{name: v}),
       ValueError, name, 0.0)
      for name in ("lam", "mu", "kappa_over_nu", "inv_m", "alpha")],
    ("decay-time", _decay_time, InvalidParameter, "decay_time", 0.0),
    ("network-alpha", lambda v: make_network_toy(2, [v, 0.2], *NET[2:], {}),
     InvalidParameter, "alphas[0]", 0.0),
    ("network-modulus",
     lambda v: make_network_toy(2, NET[1], [1.0, v], NET[3], {}),
     InvalidParameter, "storage moduli[1]", 0.0),
    ("network-mobility",
     lambda v: make_network_toy(2, *NET[1:3], [v, 1.0], {}),
     InvalidParameter, "mobilities[0]", 0.0),
    ("exchange-rate", lambda v: make_network_toy(*NET, {(0, 1): v}),
     InvalidParameter, "exchange rate of pair", -0.5),
    ("sin-frequency", lambda v: system.semidiscrete_solution(TOY, ("sin", v)),
     InvalidParameter, "sin frequency", 0.0),
    ("exp-rate", lambda v: system.semidiscrete_solution(TOY, ("exp", v)),
     InvalidParameter, "exp rate", -0.5),
    ("time-shift", lambda v: system.time_shifted(TOY, v), InvalidParameter,
     "t0", -0.5),
    ("step-tau", lambda v: step_count(v, 1.0, 1), ValueError, "tau", 0.0),
    ("step-T", lambda v: step_count(0.125, v, 1), ValueError, "T", 0.0),
    ("convergence-tau", lambda v: studies.convergence_plan(1, [0.5, v], 2.5),
     ValueError, "tau", 0.0),
    ("balancing-tau", lambda v: studies.balancing_plan(1, [0.5, v], [1, 2.5]),
     ValueError, "tau", 0.0),
    ("tol", lambda v: SplitConfig(tol=v), ValueError, "tol", 0.0),
    ("stabilization", lambda v: SplitConfig(tol=1e-6, stabilization=v),
     ValueError, "stabilization", -0.5),
    ("gamma-target", lambda v: SplitConfig(tol=1e-6, gamma_target=v),
     ValueError, "gamma_target", 0.0),
    *[(f"split-{field}", lambda v, field=field: _split_run(field, v),
       MissingConstants, name, below)
      for field, name, below in (
          ("elastic_coercivity", "elastic_coercivity", 0.0),
          ("flow_coercivity", "flow_coercivity", -0.5),
          ("storage_coercivity", "storage_coercivity", 0.0),
          ("coupling_constant", "coupling_constant (beta)", -0.5))],
    ("contraction-L", lambda v: contraction_factor(v, 1.0), ValueError,
     "stabilization", 0.0),
    ("contraction-c_c", lambda v: contraction_factor(1.0, v), ValueError,
     "storage coercivity", 0.0),
    ("eta", lambda v: stability.criterion_min(3, v, samples=2000),
     ValueError, "eta", -0.1),
    ("t-start", lambda v: studies.convergence_plan(1, [0.5, 0.25], 2.5,
                                                   t_start=v),
     ValueError, "t_start", -0.5),
    ("factor", lambda v: studies.balancing_plan(1, [0.5, 0.25], [1, 2.5],
                                                factor=v),
     ValueError, "factor", 0.0),
    ("cli-s", lambda v: cli.RunConfig("toy", tau=0.125,
                                      tol_exponent=v).validate(),
     cli.ValidationError, "s", 0.0),
    ("predict-tol", lambda v: predict_iterations(v, 0.5, 0.5), ValueError,
     "tol", 0.0),
    ("predict-eps1", lambda v: predict_iterations(1e-3, v, 0.5), ValueError,
     "eps1", 0.0),
    ("predict-gamma", lambda v: predict_iterations(1e-3, 0.5, v), ValueError,
     "gamma", 0.0),
    ("iteration-gamma",
     lambda v: studies.iteration_plan(1, [2.0], [v, 0.5], [0.25]),
     ValueError, "gamma", 0.0),
    ("iteration-tau",
     lambda v: studies.iteration_plan(1, [2.0], [0.5], [0.5, v]),
     ValueError, "tau", 0.0),
]

# Exponents: the real rule of either sign (id, call, exception, name)
SIGNED_REAL_ENTRIES = [
    ("convergence-tol-exponent",
     lambda v: studies.convergence_plan(1, [0.5, 0.25], v), ValueError,
     "tol_exponent"),
    ("balancing-exponent",
     lambda v: studies.balancing_plan(1, [0.5, 0.25], [v, 2.5]), ValueError,
     "exponent"),
    # the study's builder checks an omega's range
    ("iteration-omega",
     lambda v: studies.iteration_plan(1, [v, 1.0], [0.5], [0.25]),
     ValueError, "omega"),
]

_NOT_NUMBERS = [True, False, np.True_, "2"]
_NOT_FINITE = [math.nan, math.inf, -math.inf]


def _cases(entries, bad):
    return [pytest.param(call, error, name, value,
                         id=f"{entry}-{value!r}")
            for entry, call, error, name, below in entries
            for value in bad + [below]]


def _assert_rejected(call, error, name, value):
    with pytest.raises(error) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{name} ") and " must " in message, message
    assert repr(value) in message, message


@pytest.mark.parametrize("call, error, name, value", _cases(
    INTEGER_ENTRIES, _NOT_NUMBERS + _NOT_FINITE + [2.0, 2.5]))
def test_integer_entries_reject_what_is_no_integer_in_range(
        call, error, name, value):
    _assert_rejected(call, error, name, value)


@pytest.mark.parametrize("call, error, name, value", _cases(
    REAL_ENTRIES, _NOT_NUMBERS + _NOT_FINITE))
def test_real_entries_reject_what_is_no_finite_real_in_range(
        call, error, name, value):
    _assert_rejected(call, error, name, value)


@pytest.mark.parametrize("call, error, name, value", [
    pytest.param(call, error, name, value, id=f"{entry}-{value!r}")
    for entry, call, error, name in SIGNED_REAL_ENTRIES
    for value in _NOT_NUMBERS + _NOT_FINITE])
def test_signed_real_entries_reject_what_is_no_finite_real(
        call, error, name, value):
    _assert_rejected(call, error, name, value)


@pytest.mark.parametrize("omegas", [["2", 1.0], [True, 2.0], [math.nan, 2.0]],
                         ids=["string", "bool", "nan"])
def test_an_omega_that_is_no_real_fails_before_any_run(monkeypatch, omegas):
    # a string omega used to fail in the plan's sort with Python's
    # TypeError, and True and nan used to pass the plan
    runs = []
    monkeypatch.setattr(studies, "integrate",
                        lambda *args, **kwargs: runs.append(args))
    _assert_rejected(
        lambda bad: studies.iteration_study(1, [bad, *omegas[1:]], [0.5],
                                            [0.25]), ValueError,
        "omega", omegas[0])
    assert runs == []


@pytest.mark.parametrize("call, error, name, value", [
    (bdf.scheme, UnsupportedOrder, "BDF order", 6),
    (lambda v: make_network_toy(*NET, [((0, v), 0.5)]), InvalidParameter,
     "index of exchange pair", 2),
    (lambda v: make_network_toy(*NET, [((v, 0), 0.5)]), InvalidParameter,
     "index of exchange pair", True),
    (lambda v: make_network_toy(*NET, [((0, v), 0.5)]), InvalidParameter,
     "index of exchange pair", 1.0),
    (stability.g_stability_data, ValueError, "order of explicit G data", 3),
    (lambda v: predict_iterations(1e-3, 0.5, v), ValueError, "gamma", 1.0),
], ids=["order-6", "pair-index-2", "pair-index-True", "pair-index-1.0",
        "g-data-order-3", "predict-gamma-1.0"])
def test_above_the_range_and_in_the_other_slot(call, error, name, value):
    _assert_rejected(call, error, name, value)


@pytest.mark.parametrize("subcommand", ["convergence", "balance"])
def test_a_zero_tau_is_named_by_the_dry_run(subcommand, tmp_path, capsys):
    # a zero tau used to end the convergence dry run in a ZeroDivisionError
    # traceback, from the halving check's tau ratio
    assert cli.main([subcommand, "--taus", "0.5,0", "--dry-run",
                     "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "tau must be finite and positive, got 0.0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("call", [
    lambda: bdf.scheme(np.int64(2)).order == 2,
    lambda: History(np.int64(2)).capacity == 2,
    lambda: fem2d.Grid2D(np.int64(4)).interior_count == 9,
    lambda: SplitConfig(tol=np.float64(1e-6), max_inner=np.int64(3),
                        gamma_target=np.float64(0.5)).max_inner == 3,
    lambda: SplitConfig(tol=1e-6, stabilization=0.0).stabilization == 0.0,
    lambda: SplitConfig(tol=1e-6, stabilization=np.float64(1.0)
                        ).stabilization == 1.0,
    lambda: SplitConfig(tol=1e-6, gamma_target=np.float32(0.5)
                        ).gamma_target == 0.5,
    lambda: stability.criterion_min(np.int64(1), np.float64(0.0),
                                    samples=np.int64(2000))
    == stability.criterion_min(1, 0.0, samples=2000),
    lambda: stability.verify_identity(
        stability.g_stability_data(np.int64(2)), trials=np.int64(100),
        dim=np.int64(3)) < 1e-10,
    lambda: np.array_equal(make_toy(np.float64(2.0)).coupling, TOY.coupling),
    lambda: np.array_equal(make_toy(2).coupling, TOY.coupling),
    lambda: fem2d.BiotParameters(lam=np.float64(0.5), mu=np.float32(0.125))
    == fem2d.BiotParameters(),
    lambda: np.array_equal(
        make_network_toy(np.int64(2), np.array([0.4, 0.2]), [1, 1],
                         (np.float64(1.0), 1.0),
                         {(np.int64(0), np.int64(1)): np.float64(0.0)}
                         ).flow_stiffness,
        make_network_toy(*NET, {}).flow_stiffness),
    lambda: system.time_shifted(TOY, 0.0).label.endswith("@t0=0"),
    lambda: system.time_shifted(TOY, np.float64(0.5)).label.endswith(
        "@t0=0.5"),
    lambda: step_count(np.float64(0.125), np.float64(1.0), np.int64(2)) == 8,
    lambda: studies.convergence_plan(np.int64(1), [np.float64(0.5), 0.25],
                                     np.float64(2.5),
                                     t_start=np.float64(0.0)) == [0.5, 0.25],
    lambda: studies.balancing_plan(1, [0.5, 0.25], [1, 2.5],
                                   factor=np.float64(2.0))[1] == [1, 2.5],
    lambda: system.semidiscrete_solution(TOY, ("sin", np.float64(1.0)))
    is not None,
    lambda: cli.RunConfig("toy", tau=0.125,
                          tol_exponent=np.float64(2.5)).validate() is None,
    lambda: predict_iterations(np.float64(1e-3), np.float64(1.0),
                               np.float64(0.5)) == 11,
    lambda: studies.convergence_plan(1, [0.5, 0.25], np.float64(-20.0))
    == [0.5, 0.25],
    lambda: studies.balancing_plan(1, [0.5, 0.25], [np.int64(1), 2.5, -1.0]
                                   )[1] == [-1.0, 1, 2.5],
    lambda: studies.iteration_plan(1, [2.0], [np.float64(0.5)],
                                   [np.float64(0.25)]) is None,
], ids=["order", "capacity", "grid-n", "split-config", "stabilization-0",
        "stabilization-float64", "gamma-target-float32", "criterion",
        "identity", "omega", "omega-int", "biot", "network",
        "t0-0", "t0", "step-count", "convergence-plan", "balancing-plan",
        "sin-frequency", "cli-s", "predict", "negative-tol-exponent",
        "negative-exponent", "iteration-plan"])
def test_numpy_numbers_and_range_ends_are_accepted(call):
    assert call()


def test_ratios_follow_from_the_eps_values():
    report = StepReport(index=1, time=0.1, inner_iterations=4,
                        terminal_value=0.25, eps_values=[2.0, 1.0, 0.0, 0.5],
                        predicted=None)
    assert report.ratios == [0.5, 0.0, 0.0]
    assert report.ratio_median == 0.0
    single = dataclasses.replace(report, eps_values=[2.0])
    assert single.ratios == [] and math.isnan(single.ratio_median)


# ---------------------------------------------------------------------------
# The rule lives in one module

_SRC = Path(__file__).resolve().parents[1] / "src" / "porosplit"
_HOME = "linalg.py"


def _number_type_tests(path: Path) -> list[str]:
    """``isinstance`` tests in ``path`` against bool, np.bool_, np.integer
    or a ``numbers`` class, as ``line: source``."""
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        for kind in (kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]):
            if (isinstance(kind, ast.Name) and kind.id == "bool") or (
                    isinstance(kind, ast.Attribute)
                    and isinstance(kind.value, ast.Name)
                    and (kind.value.id == "numbers"
                         or kind.value.id in ("np", "numpy")
                         and kind.attr in ("bool_", "integer"))):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_number_type_tests_live_in_the_helpers_home():
    # the detector sees the helpers' own tests, so an empty result
    # elsewhere is not an accident of the walk
    assert len(_number_type_tests(_SRC / _HOME)) >= 2
    stray = {path.name: _number_type_tests(path)
             for path in sorted(_SRC.glob("*.py")) if path.name != _HOME}
    assert {name: hits for name, hits in stray.items() if hits} == {}

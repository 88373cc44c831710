"""Tests of the benchmark harness on tiny cases (n = 4 and a small toy grid).

Run from the checkout root with ``python3 -m pytest porobench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import libpath
import tracing
import workloads
from porosplit import (bdf, fem2d, linalg, splitsolve, stability, studies,
                       system)


class TinyToy(workloads.ToyTable4):
    omegas = (2.0,)
    gammas = (0.5,)
    taus = (2.0 ** -3, 2.0 ** -4)


class TinyRun(workloads.Biot2dN48):
    n = 4
    label = "biot2d(n=4)"
    dims = (18, 9)


class TinyConv(workloads.Biot2dConvK3):
    n = 4
    taus = (2.0 ** -3, 2.0 ** -4)


TINY = (TinyToy, TinyRun, TinyConv)


def run(wl, tr):
    state = wl.setup(tr)
    return state, wl.solve(tr, state)


def traced_run(wl):
    # a cold scheme cache makes set-up pay the multiplier search, as a
    # fresh process does
    bdf.scheme.cache_clear()
    stability.find_multiplier.cache_clear()
    counter = tracing.StepCounter()
    counter.install()
    tr = tracing.Tracer()
    tr.install()
    tr.active = True
    try:
        state, result = run(wl, tr)
    finally:
        tr.active = False
        tr.uninstall()
        counter.uninstall()
    return tr, counter, state, result


@pytest.fixture(scope="module", params=TINY, ids=lambda c: c.__name__)
def traced(request):
    wl = request.param()
    return (wl,) + traced_run(wl)


def test_every_listed_span_fires(traced):
    wl, tr, _, _, _ = traced
    missing = wl.spans - tr.span_names()
    assert not missing


def test_workloads_list_every_span():
    names = {"fem2d.assemble", "fem2d.load", "system.oracle_build",
             "system.oracle_eval", "stability.multiplier",
             "stability.criterion", "bdf.history_push", "linalg.factor",
             "linalg.solve", "linalg.norm", "splitsolve.work",
             "splitsolve.split_step", "splitsolve.implicit_step",
             "splitsolve.termination", "studies.study", "studies.reference",
             "studies.calibration", "studies.run"}
    assert set().union(*(w.spans for w in workloads.WORKLOADS.values())) == names


def test_traced_results_are_bitwise_equal(traced):
    wl, _, _, state, result = traced
    plain_state, plain = run(type(wl)(), tracing.NullTracer())
    assert wl.digest(result) == wl.digest(plain)
    assert wl.counts(state, result) == wl.counts(plain_state, plain)


def test_step_and_work_counts_match_the_trace(traced):
    wl, tr, counter, state, result = traced
    layers = tr.layer_metrics()
    assert counter.split == layers["splitsolve.split_steps"]
    assert counter.implicit == layers["splitsolve.implicit_steps"]
    assert counter.steps == wl.expected_steps
    assert layers["studies.calibration_s"] >= 0.0
    if isinstance(wl, TinyConv):
        assert layers["studies.reference_steps"] == workloads.run_steps(
            min(wl.taus) / 8.0, wl.order, True)
    counts = wl.counts(state, result)
    if "inner_sweeps" in counts:
        assert layers["splitsolve.inner_iters"] == counts["inner_sweeps"]
        assert layers["splitsolve.split_steps"] == counts["split_steps"]
    if "nnz" in counts:
        assert layers["fem2d.nnz"] == counts["nnz"]
    assert layers["trace.spans"] == len(tr.spans)


def test_install_patches_every_import_site_and_uninstall_restores():
    originals = {(mod, name): getattr(mod, name) for mod, name in (
        (linalg, "factorize"), (splitsolve, "factorize"),
        (system, "factorize"), (fem2d, "factorize"),
        (linalg, "weighted_norm_sq"), (splitsolve, "weighted_norm_sq"),
        (studies, "weighted_norm_sq"), (studies, "integrate"),
        (system, "semidiscrete_solution"), (fem2d, "semidiscrete_solution"))}
    originals[(splitsolve, "step_split")] = splitsolve.step_split
    originals[(splitsolve, "step_implicit")] = splitsolve.step_implicit
    push, init = bdf.History.push, splitsolve.StepperWork.__init__
    counter = tracing.StepCounter()
    counter.install()
    tr = tracing.Tracer()
    tr.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn, (mod.__name__, name)
        assert bdf.History.push is not push
        assert splitsolve.StepperWork.__init__ is not init
    finally:
        tr.uninstall()
        counter.uninstall()
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    assert bdf.History.push is push
    assert splitsolve.StepperWork.__init__ is init


def test_self_time_subtracts_child_runs():
    tr = tracing.Tracer()
    tr.spans = [["studies.study", 0.0, 10.0, -1],
                ["studies.reference", 1.0, 4.0, 0],
                ["linalg.norm", 4.5, 5.0, 0],
                ["studies.run", 6.0, 8.0, 0],
                ["splitsolve.implicit_step", 2.0, 3.0, 1]]
    layers = tr.layer_metrics()
    assert layers["studies.self_s"] == pytest.approx(5.0)
    assert layers["studies.reference_steps"] == 1


@pytest.mark.parametrize("n, pct", [(4008, 99.0), (238, 90.0), (31, 50.0)])
def test_latency_tail_keeps_ten_samples_beyond(n, pct):
    got_pct, value = tracing.latency_tail([float(i) for i in range(n)])
    assert got_pct == pct
    assert n - (value + 1) >= 10 or pct == 50.0


def test_run_fails_without_sources(tmp_path):
    shutil.copy(libpath.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(libpath.ROOT / "porobench", tmp_path / "porobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "porobench/run.py", "--workload", "toy-table4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_spec_lists_the_workloads_and_layer_metrics():
    spec = json.loads((libpath.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    produced = set(tracing.Tracer().layer_metrics())
    produced |= {"trace.overhead_s", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == produced

"""The benchmark's three workloads.

Each workload has a set-up phase (system and scheme construction, up to
the first ``integrate`` call), a timed solve phase, and checks that run
after the timed region. The inputs are fixed grids taken from the
acceptance criteria, so every seed gives the same inputs; README.md says
why each workload was chosen and which layers it exercises. ``spans``
names the tracer spans a traced run of the workload must record.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from porosplit import bdf, fem2d, studies, system
from porosplit.linalg import weighted_norm_sq
from porosplit.splitsolve import SplitConfig, integrate

from tracing import system_nnz

T_END = 1.0


def run_steps(tau: float, k: int, seeded: bool) -> int:
    """Time steps one ``integrate`` call over [0, T_END] should accept.

    A bootstrapped run accepts all T/tau steps (k - 1 of them are the
    implicit start-up steps); a run seeded with k exact states accepts
    the T/tau - k + 1 steps of its main loop.
    """
    n = round(T_END / tau)
    return n - k + 1 if seeded else n


def pressure_error(sys_obj, traj, p_ref, start: int) -> float:
    """Max over steps n >= start of |p_n - p_ref(t_n)| in the pressure norm."""
    return max(math.sqrt(weighted_norm_sq(sys_obj.norm_p,
                                          traj.ps[n] - p_ref(traj.times[n])))
               for n in range(start, len(traj.times)))


def finite(traj) -> bool:
    return all(np.isfinite(v).all() for v in traj.us + traj.ps)


def digest(values) -> str:
    """Hash of the exact bits of a sequence of float arrays."""
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    return h.hexdigest()[:16]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Verdict:
    """Outcome of a workload's checks, made after the timed region."""

    checks: list[Check]
    failed: int            # operations (integrate calls) that failed a check
    err_ratio: float       # max split/implicit pressure error, same tau


class ToyTable4:
    """Criterion-05 iteration grid on the 3+1 toy, k = 1 and 2."""

    name = "toy-table4"
    orders = (1, 2)
    omegas = (2.0, 4.0)
    gammas = (0.5, 0.1)
    taus = tuple(2.0 ** -e for e in range(3, 9))
    err_ratio_limit = 2.0           # the factor criterion 07 allows
    spans = frozenset({
        "system.oracle_build", "system.oracle_eval", "bdf.history_push",
        "linalg.factor", "linalg.solve", "linalg.norm", "splitsolve.work",
        "splitsolve.split_step", "splitsolve.implicit_step",
        "splitsolve.termination", "studies.study", "studies.calibration",
        "studies.run"})

    @property
    def operations(self) -> int:
        """Per (k, omega, tau): one implicit calibration run and one split
        run per gamma, all bootstrapped."""
        return (len(self.orders) * len(self.omegas) * len(self.taus)
                * (1 + len(self.gammas)))

    @property
    def expected_steps(self) -> int:
        return sum(run_steps(tau, k, False) * (1 + len(self.gammas))
                   for k in self.orders for _ in self.omegas
                   for tau in self.taus)

    def setup(self, tr):
        systems = {om: tr.system(system.make_toy(om)) for om in self.omegas}
        for k in self.orders:
            bdf.scheme(k)
        return systems

    def solve(self, tr, systems):
        with tr.span("studies.study"):
            return {k: studies.iteration_study(
                k, self.omegas, self.gammas, self.taus,
                make_system=systems.__getitem__) for k in self.orders}

    def digest(self, results) -> str:
        return digest(
            [(c["L"], c["tol"], c["mean"])
             + tuple(r.terminal_value for r in c["reports"])
             for res in results.values() for c in res.cells.values()])

    def counts(self, systems, results) -> dict:
        reports = [r for res in results.values() for c in res.cells.values()
                   for r in c["reports"]]
        sys_obj = systems[self.omegas[0]]
        return {"dims": [sys_obj.dim_u, sys_obj.dim_p],
                "split_steps": len(reports),
                "inner_sweeps": sum(r.inner_iterations for r in reports)}

    def check(self, systems, results) -> Verdict:
        """Re-run each cell outside the timed region to see its states.

        The re-run must repeat the study's inner counts exactly; its
        pressure error is compared with the same-tau implicit run, both
        against the exact toy solution.
        """
        bad_cells, mismatched, worst = [], [], 0.0
        for k in self.orders:
            sch = bdf.scheme(k)
            for om in self.omegas:
                sys_obj = systems[om]
                for tau in self.taus:
                    imp = integrate(sys_obj, SplitConfig(tol=1.0), sch, tau,
                                    T_END, mode="implicit")
                    err_imp = pressure_error(sys_obj, imp, sys_obj.exact_p, k)
                    for gam in self.gammas:
                        cell = results[k].cells[(om, gam, tau)]
                        split = integrate(
                            sys_obj, SplitConfig(tol=cell["tol"],
                                                 gamma_target=gam),
                            sch, tau, T_END, mode="split")
                        key = (k, om, gam, tau)
                        if [r.inner_iterations for r in split.reports] != \
                                [r.inner_iterations for r in cell["reports"]]:
                            mismatched.append(key)
                        ratio = pressure_error(sys_obj, split, sys_obj.exact_p,
                                               k) / err_imp
                        worst = max(worst, ratio)
                        if not (finite(split) and ratio <= self.err_ratio_limit):
                            bad_cells.append(key)
        cells = len(self.orders) * len(self.omegas) * len(self.gammas) * len(self.taus)
        checks = [
            Check("cells-finite-and-accurate", not bad_cells,
                  f"{cells - len(bad_cells)}/{cells} split cells finite with "
                  f"err_ratio <= {self.err_ratio_limit:g}; max {worst:.6g}"
                  + (f"; failing {bad_cells}" if bad_cells else "")),
            Check("rerun-repeats-study", not mismatched,
                  f"{cells - len(mismatched)}/{cells} cells repeat the "
                  "study's inner counts"),
        ]
        return Verdict(checks, len(set(bad_cells) | set(mismatched)), worst)


class Biot2dN48:
    """One BDF-2 split run on the P1 Biot system at n = 48."""

    name = "biot2d-n48"
    n = 48
    order = 2
    tau = 2.0 ** -5
    gamma_target = 0.4
    tol_exponent = 3.5              # tol = tau^(k + 3/2)
    label = "biot2d(n=48)"
    dims = (4418, 2209)
    operations = 1
    spans = frozenset({
        "fem2d.assemble", "fem2d.load", "system.oracle_build",
        "bdf.history_push", "linalg.factor", "linalg.solve", "linalg.norm",
        "splitsolve.work", "splitsolve.split_step",
        "splitsolve.implicit_step", "splitsolve.termination"})
    expected_steps = run_steps(tau, order, False)

    def config(self, tol):
        return SplitConfig(tol=tol, gamma_target=self.gamma_target)

    def setup(self, tr):
        sys_obj = tr.system(fem2d.manufactured_system(self.n))
        return sys_obj, bdf.scheme(self.order)

    def solve(self, tr, state):
        sys_obj, sch = state
        return integrate(sys_obj, self.config(self.tau ** self.tol_exponent),
                         sch, self.tau, T_END, mode="split")

    def digest(self, traj) -> str:
        return digest(traj.us + traj.ps)

    def counts(self, state, traj) -> dict:
        sys_obj, _ = state
        return {"dims": [sys_obj.dim_u, sys_obj.dim_p],
                "nnz": system_nnz(sys_obj),
                "split_steps": len(traj.reports),
                "inner_sweeps": sum(r.inner_iterations for r in traj.reports)}

    def check(self, state, traj) -> Verdict:
        """Label and dims, finite states, and the error against the
        semidiscrete oracle next to a same-tau implicit run."""
        sys_obj, sch = state
        imp = integrate(sys_obj, self.config(1.0), sch, self.tau, T_END,
                        mode="implicit")
        k = self.order
        ratio = (pressure_error(sys_obj, traj, sys_obj.semidiscrete_p, k)
                 / pressure_error(sys_obj, imp, sys_obj.semidiscrete_p, k))
        dims = (sys_obj.dim_u, sys_obj.dim_p)
        checks = [
            Check("system-label", sys_obj.label == self.label,
                  f"label {sys_obj.label!r}, want {self.label!r}"),
            Check("system-dims", dims == self.dims,
                  f"dims {dims}, want {self.dims}"),
            Check("states-finite", finite(traj),
                  f"{len(traj.times)} states; err_ratio {ratio:.6g}"),
        ]
        return Verdict(checks, 0 if all(c.ok for c in checks) else 1, ratio)


class Biot2dConvK3:
    """Criterion-06 BDF-3 convergence study on the P1 Biot system at n = 16."""

    name = "biot2d-conv-k3"
    n = 16
    order = 3
    taus = tuple(2.0 ** -e for e in range(3, 8))
    tol_exponent = 4.5              # tol = tau^(k + 3/2)
    t_start = 1.0
    gamma_target = 0.15
    order_slack = 0.2
    spans = frozenset({
        "fem2d.assemble", "fem2d.load", "system.oracle_build",
        "system.oracle_eval", "stability.multiplier", "stability.criterion",
        "bdf.history_push", "linalg.factor", "linalg.solve", "linalg.norm",
        "splitsolve.work", "splitsolve.split_step",
        "splitsolve.implicit_step", "splitsolve.termination",
        "studies.study", "studies.reference", "studies.run"})

    @property
    def operations(self) -> int:
        """One fine reference run (tau_ref = min(taus) / 8) plus a split
        and an implicit run per tau, all seeded with k exact states."""
        return 1 + 2 * len(self.taus)

    @property
    def expected_steps(self) -> int:
        return (run_steps(min(self.taus) / 8.0, self.order, True)
                + 2 * sum(run_steps(tau, self.order, True)
                          for tau in self.taus))

    def setup(self, tr):
        sys_obj = tr.system(fem2d.manufactured_system(self.n))
        bdf.scheme(self.order)
        return sys_obj

    def solve(self, tr, sys_obj):
        with tr.span("studies.study"):
            return studies.convergence_study(
                sys_obj, self.order, self.taus, tol_exponent=self.tol_exponent,
                reference="fine-implicit", t_start=self.t_start,
                gamma_target=self.gamma_target)

    def digest(self, res) -> str:
        return digest([(r.err_u, r.err_p) for r in res.records])

    def counts(self, sys_obj, res) -> dict:
        return {"dims": [sys_obj.dim_u, sys_obj.dim_p],
                "nnz": system_nnz(sys_obj)}

    def check(self, sys_obj, res) -> Verdict:
        """Fitted order within 0.2 of k; err_ratio from the study's own
        split and implicit rows against its fine reference."""
        split = {r.tau: r for r in res.records if r.mode == "split"}
        imp = {r.tau: r for r in res.records if r.mode == "implicit"}
        ratio = max(split[tau].err_p / imp[tau].err_p for tau in self.taus)
        fitted = res.eoc.fitted_order
        order_ok = abs(fitted - self.order) <= self.order_slack
        errors_ok = all(math.isfinite(r.combined) for r in res.records)
        checks = [
            Check("fitted-order", order_ok,
                  f"fitted EOC {fitted:.4f}, want {self.order} +- "
                  f"{self.order_slack:g}"),
            Check("errors-finite", errors_ok,
                  f"{len(res.records)} runs; err_ratio {ratio:.6g}"),
        ]
        return Verdict(checks, 0 if order_ok and errors_ok else len(split),
                       ratio)


WORKLOADS = {w.name: w for w in (ToyTable4, Biot2dN48, Biot2dConvK3)}

"""In-memory span tracer for the porosplit benchmark.

The tracer times calls into the public functions of each porosplit
module without changing the library. It replaces each function in its
defining module and at every module that imported it by value (for
example ``factorize`` in ``linalg``, ``splitsolve``, ``system`` and
``fem2d``), patches two methods on their classes, and wraps the source
and solution callables of the systems the benchmark builds. Spans
(name, start, end, parent) are kept in a list and reduced to per-layer
metrics after the run; :meth:`Tracer.uninstall` restores every patch.
:class:`StepCounter` counts accepted time steps the same way, in
untraced runs too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import statistics
import sys
import time

from porosplit import bdf, fem2d, linalg, splitsolve, stability, studies, system

# Callables of a CoupledSystem that evaluate the reference solution.
ORACLE_FIELDS = ("exact_u", "exact_p", "semidiscrete_u", "semidiscrete_p")

# Span names a studies-level ``integrate`` call gets, keyed by the study
# function that made the call; any other caller gives "studies.run".
STUDY_CALLERS = {"_reference_run": "studies.reference",
                 "tol_for": "studies.calibration"}
STUDY_RUN_SPANS = ("studies.reference", "studies.calibration", "studies.run")

STEP_SPANS = ("splitsolve.split_step", "splitsolve.implicit_step")

# Percentiles tried for the split-step latency tail, highest first.
TAIL_QUANTILES = (0.999, 0.99, 0.9, 0.5)


def operator_nnz(op) -> int:
    """Stored entries of a sparse operator (scipy or porosplit wrapper)."""
    nnz = getattr(op, "nnz", None)
    return int(nnz if nnz is not None else op.data.size)


def system_nnz(sys_obj) -> int:
    """Stored entries of the four operator blocks A, B, C and D."""
    return sum(operator_nnz(op) for op in (
        sys_obj.elasticity, sys_obj.flow_stiffness, sys_obj.storage,
        sys_obj.coupling))


class NullTracer:
    """Stand-in used by untraced runs: every hook is a no-op."""

    active = False

    def span(self, name):
        return contextlib.nullcontext()

    def system(self, sys_obj):
        return sys_obj


class _TracedFactor:
    """Factor object whose ``solve`` records a ``linalg.solve`` span."""

    def __init__(self, tracer: "Tracer", inner):
        self._inner = inner
        self.solve = tracer.wrap("linalg.solve", inner.solve)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Patcher:
    """Replaces porosplit functions and methods and puts them back."""

    def __init__(self):
        self._patches: list[tuple] = []

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, wrapper) -> None:
        """Replace ``module.attr`` wherever a porosplit module holds it."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "porosplit"
                                   or mod_name.startswith("porosplit.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class StepCounter(_Patcher):
    """Counts the time steps the stepper accepts while installed.

    Every accepted step is one call of ``step_split`` or
    ``step_implicit``; traced and untraced runs both install the counter,
    so the step counts come from what the program did.
    """

    def __init__(self):
        super().__init__()
        self.split = 0
        self.implicit = 0

    @property
    def steps(self) -> int:
        return self.split + self.implicit

    def install(self) -> None:
        split, implicit = splitsolve.step_split, splitsolve.step_implicit

        def step_split(*args, **kwargs):
            self.split += 1
            return split(*args, **kwargs)

        def step_implicit(*args, **kwargs):
            self.implicit += 1
            return implicit(*args, **kwargs)

        self._patch_function(splitsolve, "step_split", step_split)
        self._patch_function(splitsolve, "step_implicit", step_implicit)


class Tracer(_Patcher):
    """Records spans around porosplit calls while installed and active."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.active = False
        self.factor_dims: list[int] = []
        self.inner_iters = 0
        self.nnz = 0

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` may replace the result."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            return result if after is None else after(args, result)
        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def _patch_method(self, cls, attr: str, name: str) -> None:
        self._set(cls, attr, self.wrap(name, getattr(cls, attr)))

    def install(self) -> None:
        """Patch every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        w = self.wrap

        def traced_factor(args, factor):
            self.factor_dims.append(int(args[0].shape[0]))
            return _TracedFactor(self, factor)

        def traced_steps(args, result):
            self.inner_iters += result[2].inner_iterations
            return result

        for module, attr, wrapper in (
            (fem2d, "assemble_biot",
             w("fem2d.assemble", fem2d.assemble_biot, self._after_assembly)),
            (system, "semidiscrete_solution",
             w("system.oracle_build", system.semidiscrete_solution)),
            (stability, "find_multiplier",
             w("stability.multiplier", stability.find_multiplier)),
            (stability, "criterion_min",
             w("stability.criterion", stability.criterion_min)),
            (linalg, "factorize",
             w("linalg.factor", linalg.factorize, traced_factor)),
            (linalg, "weighted_norm_sq",
             w("linalg.norm", linalg.weighted_norm_sq)),
            (splitsolve, "step_split",
             w("splitsolve.split_step", splitsolve.step_split, traced_steps)),
            (splitsolve, "step_implicit",
             w("splitsolve.implicit_step", splitsolve.step_implicit)),
            (splitsolve, "termination_functional",
             w("splitsolve.termination", splitsolve.termination_functional)),
        ):
            self._patch_function(module, attr, wrapper)
        self._patch_method(bdf.History, "push", "bdf.history_push")
        self._patch_method(splitsolve.StepperWork, "__init__", "splitsolve.work")
        self._set(studies, "integrate", self._study_integrate(studies.integrate))

    def _study_integrate(self, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            caller = sys._getframe(1).f_code.co_name
            self._open(STUDY_CALLERS.get(caller, "studies.run"))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        traced.__wrapped__ = fn
        return traced

    def _after_assembly(self, args, sys_obj):
        """Count nonzeros and time the assembled system's load callables."""
        self.nnz += system_nnz(sys_obj)
        return dataclasses.replace(
            sys_obj,
            load_u=self.wrap("fem2d.load", sys_obj.load_u),
            load_p=self.wrap("fem2d.load", sys_obj.load_p))

    def system(self, sys_obj):
        """The system with its reference-solution callables traced."""
        return dataclasses.replace(sys_obj, **{
            field: self.wrap("system.oracle_eval", getattr(sys_obj, field))
            for field in ORACLE_FIELDS if getattr(sys_obj, field) is not None})

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy times (inclusive, in s) and work counts."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_runs = [0.0] * len(self.spans)
        split_ms = []
        reference_steps = 0
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name in STUDY_RUN_SPANS and parent >= 0:
                child_runs[parent] += dur
            if name == "splitsolve.split_step":
                split_ms.append(1e3 * dur)
            if name in STEP_SPANS and self._under(parent, "studies.reference"):
                reference_steps += 1
        study_self = sum(end - start - child_runs[i]
                         for i, (name, start, end, _) in enumerate(self.spans)
                         if name == "studies.study")
        split_steps = calls.get("splitsolve.split_step", 0)
        tail_pct, tail_ms = latency_tail(split_ms)

        def busy(name):
            return total.get(name, 0.0)

        return {
            "fem2d.assemble_s": busy("fem2d.assemble"),
            "fem2d.nnz": self.nnz,
            "fem2d.load_s": busy("fem2d.load"),
            "fem2d.load_calls": calls.get("fem2d.load", 0),
            "system.oracle_build_s": busy("system.oracle_build"),
            "system.oracle_eval_s": busy("system.oracle_eval"),
            "system.oracle_evals": calls.get("system.oracle_eval", 0),
            "stability.multiplier_s": busy("stability.multiplier"),
            "stability.criterion_evals": calls.get("stability.criterion", 0),
            "bdf.history_push_s": busy("bdf.history_push"),
            "bdf.history_pushes": calls.get("bdf.history_push", 0),
            "linalg.factor_s": busy("linalg.factor"),
            "linalg.factor_calls": len(self.factor_dims),
            "linalg.factor_dim_max": max(self.factor_dims, default=0),
            "linalg.solve_s": busy("linalg.solve"),
            "linalg.solve_calls": calls.get("linalg.solve", 0),
            "linalg.norm_s": busy("linalg.norm"),
            "linalg.norm_calls": calls.get("linalg.norm", 0),
            "splitsolve.work_s": busy("splitsolve.work"),
            "splitsolve.work_builds": calls.get("splitsolve.work", 0),
            "splitsolve.split_step_s": busy("splitsolve.split_step"),
            "splitsolve.split_steps": split_steps,
            "splitsolve.inner_iters": self.inner_iters,
            "splitsolve.inner_per_step": (self.inner_iters / split_steps
                                          if split_steps else 0.0),
            "splitsolve.split_step_ms_p50": (statistics.median(split_ms)
                                             if split_ms else 0.0),
            "splitsolve.split_step_ms_tail": tail_ms,
            "splitsolve.split_step_tail_pct": tail_pct,
            "splitsolve.split_step_samples": len(split_ms),
            "splitsolve.implicit_step_s": busy("splitsolve.implicit_step"),
            "splitsolve.implicit_steps": calls.get("splitsolve.implicit_step", 0),
            "splitsolve.termination_s": busy("splitsolve.termination"),
            "studies.reference_s": busy("studies.reference"),
            "studies.reference_steps": reference_steps,
            "studies.calibration_s": busy("studies.calibration"),
            "studies.self_s": study_self,
            "trace.spans": len(self.spans),
        }

    def _under(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def span_names(self) -> set[str]:
        return {span[0] for span in self.spans}


def latency_tail(samples_ms: list[float]) -> tuple[float, float]:
    """(percentile, nearest-rank value) of the highest percentile in
    TAIL_QUANTILES with at least ten samples beyond it. Below 20 samples
    this falls back to the median; with no samples it is (0, 0)."""
    if not samples_ms:
        return 0.0, 0.0
    ordered = sorted(samples_ms)
    n = len(ordered)
    q = next((q for q in TAIL_QUANTILES if n - math.ceil(q * n) >= 10),
             TAIL_QUANTILES[-1])
    return 100.0 * q, ordered[max(math.ceil(q * n) - 1, 0)]

"""One repetition of a benchmark workload, in a fresh process.

    python3 porobench/worker.py --workload NAME [--trace] [--check]

Prints one JSON object: set-up, solve and wall times, peak RSS, exact
work counts (accepted steps counted as the program takes them) and a
digest of the results; with ``--trace`` the per-layer metrics of a
traced repetition and the listed spans that did not fire, with
``--check`` the workload's checks (run after the timed region) and the
software environment. run.py starts one worker per repetition so that each pays
lazy set-up as a command-line run does; imports are not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import libpath


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "git_sha": libpath.git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(name: str, traced: bool, check: bool) -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]()
    counter = tracing.StepCounter()
    counter.install()
    tr = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        tr.install()
        tr.active = True
    try:
        t0 = time.perf_counter()
        state = wl.setup(tr)
        t1 = time.perf_counter()
        result = wl.solve(tr, state)
        t2 = time.perf_counter()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        tr.active = False
        if traced:
            tr.uninstall()
        counter.uninstall()
    counts = wl.counts(state, result)
    counts.update(steps=counter.steps, implicit_steps=counter.implicit)
    out = {
        "traced": traced,
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "wall_s": t2 - t0,
        "peak_rss_mb": peak_kb / 1024.0,
        "steps": counter.steps,
        "operations": wl.operations,
        "digest": wl.digest(result),
        "counts": counts,
    }
    if traced:
        out["layers"] = tr.layer_metrics()
        out["missing_spans"] = sorted(wl.spans - tr.span_names())
    if check:
        verdict = wl.check(state, result)
        steps_ok = counter.steps == wl.expected_steps
        verdict.checks.append(workloads.Check(
            "accepted-steps", steps_ok,
            f"{counter.steps} steps accepted, the grid gives "
            f"{wl.expected_steps}"))
        out["failed"] = verdict.failed if steps_ok else wl.operations
        out["err_ratio"] = verdict.err_ratio
        out["checks"] = [vars(c) for c in verdict.checks]
        out["env"] = environment()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    try:
        libpath.use_checkout_library()
    except libpath.MissingLibrary as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    out = run(args.workload, args.trace, args.check)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

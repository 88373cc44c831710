"""Benchmark of porosplit: runs one workload and prints every metric.

    python3 porobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition is a fresh worker
process (worker.py) with a fixed BLAS thread count, so lazy set-up is
paid as a command-line run pays it. Repetitions continue until their
timed regions add up to ``--seconds`` and at least MIN_REPS have run;
timings are medians over repetitions. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json. ``--trace 1`` alternates untraced
and traced repetitions, prints the end-to-end metrics of the untraced ones
and reports the per-layer metrics, including the tracing overhead. The workload's checks run once, after the timed region
of the first repetition, and every repetition must give bit-identical
results and work counts. The last line of output is a JSON object with
the keys correct, attempted, failed and metrics.

The inputs are fixed grids, so every ``--seed`` gives the same inputs;
the seed is recorded. A checkout without ``src/porosplit`` exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import libpath

WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_REPS = 2            # untraced repetitions in a --trace 0 run
MIN_PAIRS = 1           # untraced/traced pairs in a --trace 1 run
MAX_BLAS_THREADS = 2
BUDGET_S = 170.0        # a run must end within 180 s


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def run_worker(workload: str, traced: bool, check: bool,
               timeout: float) -> dict | None:
    """One repetition in a fresh process; None if it failed or timed out."""
    cmd = [sys.executable, str(WORKER), "--workload", workload]
    cmd += [flag for flag, on in (("--trace", traced), ("--check", check))
            if on]
    threads = str(blas_threads())
    child_env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                     OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env, cwd=libpath.ROOT,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"run: repetition exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"run: repetition exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seconds: float, trace: bool):
    """Repetitions until the run has measured enough; (reps, crashed)."""
    reps: list[dict] = []
    start = time.perf_counter()
    measured = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        began = time.perf_counter()
        rep = run_worker(workload, traced, check=not reps,
                         timeout=BUDGET_S - (began - start))
        if rep is None:
            return reps, True
        reps.append(rep)
        measured += rep["wall_s"]
        took = time.perf_counter() - began
        untraced = sum(not r["traced"] for r in reps)
        enough = (len(reps) >= 2 * MIN_PAIRS and len(reps) % 2 == 0) if trace \
            else untraced >= MIN_REPS
        out_of_time = time.perf_counter() - start + 1.25 * took > BUDGET_S
        if (enough and measured >= seconds) or out_of_time:
            return reps, False


def spread(values: list[float]) -> str:
    return (f"median of {len(values)}, min {min(values):.6g}, "
            f"max {max(values):.6g}")


def report(values: dict[str, list[float]], units: dict[str, str]) -> dict:
    """Print each metric with its unit and spread; return the result map."""
    metrics = {}
    for name, unit in units.items():
        if name not in values:
            continue
        vals = values[name]
        # counts are checked to repeat exactly, so report them unaveraged
        value = vals[0] if unit == "count" else statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value:.6g} {unit}"
              + (f" ({spread(vals)})" if len(vals) > 1 else ""))
    return metrics


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    plain = [r for r in reps if not r["traced"]]
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "solve_s": [r["solve_s"] for r in plain],
        "steps_per_s": [r["steps"] / r["solve_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "err_ratio": [reps[0]["err_ratio"]],
    }


def per_layer(reps: list[dict], units: dict[str, str]) -> dict[str, list[float]]:
    traced = [r for r in reps if r["traced"]]
    plain_wall = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values = {name: [r["layers"][name] for r in traced]
              for name in units if name in traced[0]["layers"]}
    values["trace.overhead_s"] = [traced_wall - plain_wall]
    values["trace.overhead_pct"] = [100.0 * (traced_wall - plain_wall)
                                    / plain_wall]
    return values


def main(argv=None) -> int:
    spec = json.loads((libpath.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not libpath.library_present():
        print(f"run: no porosplit package under {libpath.SRC}; nothing to "
              "measure", file=sys.stderr)
        return 2

    print(f"porobench {args.workload}: seed {args.seed} (inputs are fixed "
          f"grids), {args.seconds} s, trace {args.trace}, BLAS threads "
          f"{blas_threads()}")
    reps, crashed = collect(args.workload, args.seconds, bool(args.trace))
    ops_per_rep = reps[0]["operations"] if reps else 1
    attempted = sum(r["operations"] for r in reps) + crashed * ops_per_rep
    failed = crashed * ops_per_rep
    checks: list[tuple[str, bool, str]] = []
    if reps:
        first = reps[0]
        print("env " + json.dumps(first["env"], sort_keys=True))
        print("counts " + json.dumps(first["counts"], sort_keys=True))
        failed += first["failed"]
        checks += [(c["name"], c["ok"], c["detail"]) for c in first["checks"]]
        odd = [r for r in reps
               if (r["digest"], r["counts"]) != (first["digest"], first["counts"])]
        failed += sum(r["operations"] for r in odd)
        checks.append(("repeatable", not odd,
                       f"{len(reps) - len(odd)}/{len(reps)} processes give "
                       f"digest {first['digest']} and the same work counts"
                       + (" (traced and untraced)" if args.trace else "")))
    checks.append(("all-repetitions-ran", not crashed,
                   f"{len(reps)} repetitions, {int(crashed)} failed to run"))

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    values = {}
    # the first repetition is untraced; a traced run needs one of each
    if len(reps) > args.trace:
        values = per_layer(reps, units) if args.trace else end_to_end(reps)
        if args.trace:
            traced = [r for r in reps if r["traced"]]
            counts = [{k: v for k, v in r["layers"].items()
                       if units.get(k) == "count"} for r in traced]
            checks.append(("layer-counts-repeat",
                           all(c == counts[0] for c in counts),
                           f"work counts equal in {len(traced)} traced "
                           "repetitions"))
            unfired = sorted({s for r in traced for s in r["missing_spans"]})
            checks.append(("listed-spans-fired", not unfired,
                           f"listed spans not fired: {unfired or 'none'}"))
        missing = set(units) - set(values)
        if missing:
            raise RuntimeError(f"metrics not produced: {sorted(missing)}")

    if args.trace and values:
        report(end_to_end(reps), {m["name"]: m["unit"]
                                  for m in spec["end_to_end"]})
    metrics = report(values, units)
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    correct = all(ok for _, ok, _ in checks) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

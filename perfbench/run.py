"""Benchmark runner for dbarn.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends requests in a closed loop: the next request starts when the
previous one has returned.  The run serves a fixed number of whole rounds of
the workload's request mix, as many as take about S seconds on the reference
machine (``rounds_for``), so a seed always gets the same requests, and with
them the same failures, however fast the machine is.  Every output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end metrics; with ``--trace 1`` the run sets up once, times one
round untraced and the same round traced, and reports the per-layer metrics
from the spans, plus the workload's acceptance criteria timed one by one.

BLAS and OpenMP are pinned to one thread for the program in this process and
in every process it starts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3     # set up at least this often ...
SETUP_MIN_S = 2.0     # ... and until the set-ups have taken this long together
MIN_ROUNDS = 2
END_TO_END = ("solved_per_s", "latency_p50_s", "latency_tail_s", "solved_frac",
              "setup_s", "peak_rss_mb")
UNITS = {"solved_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
         "solved_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_blas_threads() -> None:
    """One BLAS/OpenMP thread here and, through the environment, in every child."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> None:
    """Put the checkout's src/ first on the path and import dbarn from it."""
    src = ROOT / "src"
    if not (src / "dbarn" / "__init__.py").is_file():
        raise SystemExit(f"error: no dbarn sources under {src}; run from a dbarn checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import dbarn

    if Path(dbarn.__file__).resolve().parent != (src / "dbarn").resolve():
        raise SystemExit(f"error: imported dbarn from {dbarn.__file__}, not from {src}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer no
    percentile qualifies and the smallest sample is returned.
    """
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def rounds_for(workload, seconds: float) -> int:
    """Rounds in a run of about ``seconds``: the count depends on ``seconds`` and
    the workload's nominal round time ``round_s`` only, never on the clock."""
    return max(MIN_ROUNDS, round(seconds / workload.round_s))


def run_round(workload, index: int, latencies: list[float], outcomes: list,
              tracer=None) -> float:
    """Run round ``index`` request by request and return its measured time.

    Only the call into the program is timed as latency; the measured time is
    the round's wall time less the time its output checks took.  A failed call
    is counted, not fatal.  An exception the workload does not declare a known
    defect (``workload.known_exceptions``) counts as a wrong answer.  With a
    tracer each request gets its own request id, and the output checks run
    with the tracer paused so their calls leave no spans.
    """
    import checks

    start = time.perf_counter()
    checking = 0.0
    for i, request in enumerate(workload.round(index)):
        if tracer is not None:
            tracer.request = f"r{i}"
        begin = time.perf_counter()
        try:
            result = request.call()
        except checks.HarnessError:
            raise
        except Exception as exc:  # the program failed this request
            latencies.append(time.perf_counter() - begin)
            known = isinstance(exc, workload.known_exceptions)
            outcomes.append((request.kind, checks.failed(
                f"{type(exc).__name__}: {exc}"[:200], wrong=not known)))
            continue
        returned = time.perf_counter()
        latencies.append(returned - begin)
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            outcomes.append((request.kind, request.check(result)))
        checking += time.perf_counter() - returned
    return time.perf_counter() - start - checking


def summarize_failures(outcomes: list) -> dict[str, int]:
    """Failed requests grouped by kind and by their note with numbers blanked."""
    counts: dict[str, int] = {}
    for kind, outcome in outcomes:
        if not outcome.ok:
            note = re.sub(r"[-+]?\d[\d.e+-]*", "#", outcome.note)
            key = f"{kind}: {note[:90]}"
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, seed: int, seconds: float) -> dict:
    import numpy as np

    setup_times = []
    latencies: list[float] = []
    outcomes: list = []
    rounds = rounds_for(workload, seconds)
    try:
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            rng = np.random.default_rng(seed)
            start = time.perf_counter()
            workload.setup(rng)
            setup_times.append(time.perf_counter() - start)
        gc.collect()
        wall = 0.0   # run time less the output checks
        for index in range(rounds):
            wall += run_round(workload, index, latencies, outcomes)
    finally:
        workload.close()

    attempted = len(outcomes)
    solved = sum(outcome.ok for _, outcome in outcomes)
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "solved_per_s": solved / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "solved_frac": solved / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(children=workload.requests_in_children),
    }
    print(f"{workload.name}: seed {seed}, {attempted} requests in {rounds} rounds, "
          f"{wall:.3f} s measured (output checks excluded); "
          f"{len(setup_times)} set-ups, median {statistics.median(setup_times):.4f} s, "
          f"range {min(setup_times):.4f}-{max(setup_times):.4f} s")
    print(f"failed_frac {(attempted - solved) / attempted:.6f} "
          f"({attempted - solved} of {attempted})")
    print(f"latency_tail_s is p{tail_pct:.2f} of {attempted} samples "
          f"({beyond} beyond it)")
    for key, count in summarize_failures(outcomes).items():
        print(f"  failed x{count}: {key}")
    return {
        "correct": not any(outcome.wrong for _, outcome in outcomes),
        "attempted": attempted,
        "failed": attempted - solved,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in END_TO_END},
    }


def traced_run(workload, seed: int) -> dict:
    import numpy as np

    import layers
    import spans

    tracer = spans.Tracer()
    instrumentation = layers.instrumentation(tracer)
    try:
        instrumentation.install()
        tracer.request = "setup"
        try:
            workload.setup(np.random.default_rng(seed))
        finally:
            instrumentation.uninstall()

        # Round 0 untraced, traced, then untraced again: the mean of the two
        # untraced times cancels warm-up and drift, and the difference from the
        # traced time is the tracing overhead.
        untraced: list = []
        untraced_s = [run_round(workload, 0, [], untraced)]
        traced: list = []
        instrumentation.install()
        workload.tracer = tracer
        try:
            traced_s = run_round(workload, 0, [], traced, tracer)
        finally:
            instrumentation.uninstall()
            workload.tracer = None
        untraced_s.append(run_round(workload, 0, [], untraced))
        overhead = traced_s - statistics.mean(untraced_s)

        criteria = layers.probe_criteria(workload.criteria)
    finally:
        workload.close()

    metrics = layers.layer_metrics(tracer, traced, workload)
    metrics.update(criteria.metrics)
    metrics["trace.overhead_s"] = overhead
    attempted = len(traced)
    solved = sum(outcome.ok for _, outcome in traced)
    metrics["failed_frac"] = (attempted - solved) / attempted

    out_dir = HERE / ".work"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-{seed}.json"
    tracer.write(str(trace_path))
    print(f"{workload.name}: traced round of {attempted} requests; "
          f"spans in {trace_path.relative_to(ROOT)}")
    print(f"tracing overhead: traced {traced_s:.4f} s - untraced "
          f"mean({untraced_s[0]:.4f}, {untraced_s[1]:.4f}) s = {overhead:.4f} s")
    for line in criteria.lines:
        print(line)
    if instrumentation.missing:
        print(f"not found in the program (reported as 0): {', '.join(instrumentation.missing)}")
    print("not measurable from outside: multiindex (reached only through sobolev, "
          "ellipticity and forms; its cost shows in their self time)")
    return {
        "correct": not any(outcome.wrong for _, outcome in untraced + traced),
        "attempted": attempted,
        "failed": attempted - solved,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit, _ in layers.PER_LAYER},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = timed_run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

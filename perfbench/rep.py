"""One benchmark repetition in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/rep.py --workload cohort --seed 0 [--jobs N] [--trace] [--setup-only]

Prints one JSON object as its last stdout line: the CLOCK_MONOTONIC
instant set-up finished (the parent subtracts its spawn instant to get
``setup_s``), the run-phase wall time, peak RSS, the result doc's sha256,
the modelled-protocol metrics and any failed output checks.  With
``--trace`` the layer wrappers are installed for set-up and run, and the
per-layer ledger is included.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    workloads.import_engine(args.workload)
    jobs = args.jobs if args.jobs is not None else workloads.JOBS[args.workload]
    config = workloads.config_for(args.workload, args.seed)

    tracer = None
    if args.trace:
        from repro import obs

        import ledger

        obs.enable()
        tracer = ledger.Tracer().install()
    ledger_start = time.perf_counter()
    prereq = workloads.setup(args.workload, config)
    setup_done = _now()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    start = time.perf_counter()
    result = workloads.run(args.workload, config, prereq, jobs)
    run_s = time.perf_counter() - start

    out = {"setup_done": setup_done, "run_s": run_s, "jobs": jobs}
    if tracer is not None:
        wall_s = time.perf_counter() - ledger_start
        tracer.uninstall()
        out["ledger"] = _ledger(tracer.recorder, obs.registry(), wall_s)
        obs.disable()

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = jobs if jobs > 1 else 0
    # ru_maxrss is KiB on Linux; pool workers are counted at the peak of
    # the largest one (RUSAGE_CHILDREN reports the maximum, not a sum).
    out["peak_rss_mb"] = (self_kb + workers * child_kb) / 1024.0

    doc, protocol, attempts, failures = workloads.summarize(args.workload, config, result)
    out.update(
        sha256=workloads.doc_sha256(doc),
        attempts=attempts,
        protocol=protocol,
        failures=failures,
    )
    print(json.dumps(out))
    return 0


def _ledger(recorder, registry, wall_s: float) -> dict:
    import ledger

    from repro.runtime import artifacts

    parallel_total = recorder.total_s.get("runtime.parallel_map", 0.0)
    shipped = ledger.absorb_workers(recorder, registry)
    workers = recorder.counts.get("runtime.workers", 0)
    table = ledger.reconcile(recorder, wall_s)
    counts = dict(recorder.counts)
    for name, stats in artifacts.stats().items():
        for field in ("hits", "misses"):
            key = f"artifacts.{name}.{field}"
            counts[key] = counts.get(key, 0) + stats.get(field, 0)
    return {
        "wall_s": wall_s,
        "layers": table["layers"],
        "unattributed_s": table["unattributed_s"],
        "calls": dict(recorder.calls),
        "counts": counts,
        "worker_busy_s": shipped["busy_s"],
        "workers": workers,
        "parallel_map_total_s": parallel_total,
    }


if __name__ == "__main__":
    sys.exit(main())

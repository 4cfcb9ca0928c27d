#!/usr/bin/env python
"""End-to-end runtime benchmark for the Fig. 5 browsing-session engine.

Measures three arms over the same workload and emits ``BENCH_fig5.json``:

* ``baseline``  — every disableable artifact cache bypassed;
* ``cached``    — artifact caches on;
* ``metered``   — caches on, the observability registry enabled.

All arms build a fresh population and simulator and pin
``lookup_seconds`` so the three produce byte-identical ``SessionResult``
lists — which the script asserts. Each arm times ``run_many`` alone. No
speed floor is asserted: the runs read per-path facts and never reach
the TLS machine whose work the artifact caches save, so the
caches-off arm pins result equality, not a speedup.

The metered arm also prices the *disabled* instrumentation: it counts
the exact number of recording events the workload fires, multiplies by
the measured cost of one disabled ``obs.inc`` call (a global read plus a
``None`` check) and asserts that total stays under
``MAX_DISABLED_OVERHEAD`` of the cached arm's wall time — the "metrics
off means near-zero cost" contract.

Usage::

    python benchmarks/bench_fig5_sessions.py            # reduced scale
    REPRO_FULL=1 python benchmarks/bench_fig5_sessions.py

Exit status is non-zero when an assertion fails, so CI can run it as-is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs
from repro.runtime import artifacts
from repro.webmodel.population import ICAPopulation, PopulationConfig
from repro.webmodel.session_sim import BrowsingSessionSimulator, SessionConfig

#: Simulated AMQ lookup cost, pinned so every arm models identical time
#: (the default is wall-clock measured per simulator instance).
LOOKUP_SECONDS = 1e-7

#: Ceiling on the estimated cost of the instrumentation when the
#: registry is disabled, as a fraction of the cached arm's wall time.
MAX_DISABLED_OVERHEAD = 0.02


def _full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def _run_arm(
    runs: int, domains: int, disable_caches: bool
) -> Tuple[float, List[Any], Dict[str, Dict[str, int]]]:
    """Time one arm on a fresh population/simulator; returns
    (wall seconds, results, cache-stats snapshot)."""
    artifacts.clear()
    population = ICAPopulation(PopulationConfig(seed=1))
    sim = BrowsingSessionSimulator(
        SessionConfig(seed=1, num_domains=domains),
        population=population,
        lookup_seconds=LOOKUP_SECONDS,
    )
    start = time.perf_counter()
    if disable_caches:
        with artifacts.disabled():
            results = sim.run_many(runs)
    else:
        results = sim.run_many(runs)
    elapsed = time.perf_counter() - start
    return elapsed, results, artifacts.stats()


def _run_metered_arm(
    runs: int, domains: int
) -> Tuple[float, List[Any], int]:
    """The cached workload with the metrics registry enabled;
    returns (wall seconds, results, instrumentation event count).

    Runs the sessions directly on one registry (no scoped capture) so
    ``registry.events`` counts every recording call the workload fires —
    the event total the disabled-overhead estimate prices.
    """
    artifacts.clear()
    population = ICAPopulation(PopulationConfig(seed=1))
    sim = BrowsingSessionSimulator(
        SessionConfig(seed=1, num_domains=domains),
        population=population,
        lookup_seconds=LOOKUP_SECONDS,
    )
    obs.disable()
    reg = obs.enable()
    try:
        start = time.perf_counter()
        results = [sim.run(i) for i in range(runs)]
        elapsed = time.perf_counter() - start
        events = reg.events
    finally:
        obs.disable()
    return elapsed, results, events


def _disabled_inc_seconds(calls: int = 200_000) -> float:
    """Measured per-call cost of ``obs.inc`` with the registry disabled
    (what every instrumentation site pays when metrics are off)."""
    obs.disable()
    start = time.perf_counter()
    for _ in range(calls):
        obs.inc("bench.overhead.probe")
    return (time.perf_counter() - start) / calls


def run_benchmark(runs: int, domains: int, output: Optional[str]) -> Dict[str, Any]:
    cpus = os.cpu_count() or 1
    print(f"fig5 session engine: {runs} runs x {domains} domains, cpus={cpus}")

    t_base, r_base, _ = _run_arm(runs, domains, disable_caches=True)
    print(f"  baseline (caches off): {t_base:7.3f}s")
    t_cached, r_cached, cached_stats = _run_arm(
        runs, domains, disable_caches=False
    )
    print(f"  cached   (caches on):  {t_cached:7.3f}s")
    t_metered, r_metered, events = _run_metered_arm(runs, domains)
    print(f"  metered  (metrics on): {t_metered:7.3f}s  ({events} events)")
    inc_s = _disabled_inc_seconds()
    disabled_overhead = events * inc_s / t_cached
    print(f"  disabled instrumentation: {inc_s * 1e9:.0f}ns/event x "
          f"{events} events = {disabled_overhead:.3%} of cached arm")

    hit_rates = {
        name: round(s["hits"] / (s["hits"] + s["misses"]), 4)
        for name, s in cached_stats.items()
        if s.get("hits", 0) + s.get("misses", 0) > 0
    }
    report = {
        "benchmark": "fig5_sessions",
        "scale": {"runs": runs, "num_domains": domains},
        "cpu_count": cpus,
        "lookup_seconds": LOOKUP_SECONDS,
        "seconds": {
            "baseline_uncached": round(t_base, 4),
            "cached": round(t_cached, 4),
            "metered": round(t_metered, 4),
        },
        "observability": {
            "instrumentation_events": events,
            "disabled_inc_ns_per_call": round(inc_s * 1e9, 1),
            "estimated_disabled_overhead_fraction": round(disabled_overhead, 6),
        },
        "results_equal": {
            "cached_vs_baseline": r_cached == r_base,
            "metered_vs_cached": r_metered == r_cached,
        },
        "cache_hit_rates_cached_arm": hit_rates,
        "notes": (
            "each arm times run_many on a fresh population and simulator; "
            "baseline = every disableable artifact cache bypassed"
        ),
    }
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {output}")

    # -- assertions ------------------------------------------------------------
    assert r_cached == r_base, "caching changed SessionResults"
    assert r_metered == r_cached, "enabling metrics changed SessionResults"
    assert events > 0, "metered arm recorded no instrumentation events"
    assert disabled_overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled instrumentation estimated at {disabled_overhead:.3%} "
        f"of cached runtime > {MAX_DISABLED_OVERHEAD:.0%} ceiling"
    )
    print("  all assertions passed")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    full = _full_scale()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--runs", type=int, default=10 if full else 8,
        help="browsing-session runs per arm",
    )
    parser.add_argument(
        "--domains", type=int, default=200 if full else 100,
        help="domains visited per run",
    )
    parser.add_argument(
        "--output", default="BENCH_fig5.json",
        help="report path ('' to skip writing)",
    )
    args = parser.parse_args(argv)
    run_benchmark(args.runs, args.domains, args.output or None)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

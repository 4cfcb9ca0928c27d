#!/usr/bin/env python
"""Throughput benchmark for the columnar churn engine (staleness at scale).

Four arms, emitting ``BENCH_churn.json``:

* ``equivalence`` — a small high-staleness cohort (stale generations keep
  advertising revoked ICAs, so flagged FP-retry contexts are broadcast
  from their representative) run through **both** engines; the results
  must be equal, with real false-positive retries;
* ``scalar``      — a small cohort through the scalar reference (every
  cell a real per-handshake TLS machine), to price one scalar handshake;
* ``columnar``    — a large cohort (10K clients x 50 epochs; 100K clients
  under ``REPRO_FULL=1``) through the columnar engine;
* ``sweep``       — the staleness sweep sharded across workers
  (``run_churn_experiment`` jobs=1 vs jobs=N), which must agree exactly.

The headline assertion is the churn-throughput CI gate: the columnar
engine's per-handshake cost must undercut the scalar machine's by at
least ``MIN_CHURN_SPEEDUP`` (both timers cover engine construction +
run, world lifecycle included).

Usage::

    python benchmarks/bench_churn_columnar.py           # reduced scale
    REPRO_FULL=1 python benchmarks/bench_churn_columnar.py --jobs 4

Exit status is non-zero when an assertion fails, so CI can run it as-is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from tests._fixtures import full_scale  # noqa: E402

from repro.experiments.churn import (  # noqa: E402
    ChurnExperimentConfig,
    run_churn_experiment,
)
from repro.webmodel.churn import ChurnConfig  # noqa: E402
from repro.webmodel.churn_columnar import (  # noqa: E402
    ChurnCohortConfig,
    run_churn_cohort,
)
from repro.webmodel.churn_reference import run_churn_cohort_reference  # noqa: E402

#: Columnar per-handshake cost must undercut the scalar machine's by at
#: least this factor (measured ~2000x on a dev box; the floor leaves two
#: orders of magnitude of margin for shared-runner noise). This is the
#: machine-independent CI gate.
MIN_CHURN_SPEEDUP = 25.0

#: The large arm must actually be large — 10K clients x 50 epochs — or
#: the per-handshake figure is dominated by the shared world lifecycle
#: and means nothing.
MIN_COLUMNAR_HANDSHAKES = 500_000


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _equivalence_arm() -> Dict[str, Any]:
    config = ChurnCohortConfig(
        world=ChurnConfig(
            steps=10, num_sites=8, payload_refresh_every=6,
            ica_validity_steps=8, seed=7,
        ),
        num_clients=12,
        handshakes_per_client=2,
    )
    columnar = run_churn_cohort(config)
    scalar = run_churn_cohort_reference(config)
    equal = columnar == scalar
    print(
        f"  equivalence (12 clients, k=6): equal={equal}, "
        f"fp_retries={columnar.fp_retries}, "
        f"stale_rate={columnar.stale_advertised_rate:.2f}"
    )
    return {
        "equal": equal,
        "fp_retries": columnar.fp_retries,
        "failures": columnar.failures,
    }


def run_benchmark(
    clients: int, epochs: int, scalar_clients: int, jobs: int,
    output: Optional[str],
) -> Dict[str, Any]:
    cpus = os.cpu_count() or 1
    print(
        f"churn cohort engine: {clients} clients x {epochs} epochs columnar "
        f"vs {scalar_clients} clients scalar, jobs={jobs}, cpus={cpus}"
    )

    equivalence = _equivalence_arm()

    # Timers cover engine construction + run (world lifecycle included);
    # both arms share the same world knobs and a fresh (k=1) payload
    # cadence, so both price the same clean-handshake workload.
    scalar_config = ChurnCohortConfig(
        world=ChurnConfig(steps=epochs, seed=0),
        num_clients=scalar_clients,
        handshakes_per_client=1,
    )
    t_scalar, r_scalar = _time(
        lambda: run_churn_cohort_reference(scalar_config)
    )
    scalar_hs = r_scalar.handshakes
    scalar_us = t_scalar / scalar_hs * 1e6
    print(
        f"  scalar   ({scalar_clients} clients x {epochs} epochs): "
        f"{t_scalar:7.2f}s  {scalar_hs} handshakes  "
        f"{scalar_us:9.1f}us/handshake"
    )

    columnar_config = ChurnCohortConfig(
        world=ChurnConfig(steps=epochs, seed=0),
        num_clients=clients,
        handshakes_per_client=1,
    )
    t_col, r_col = _time(lambda: run_churn_cohort(columnar_config))
    col_hs = r_col.handshakes
    col_us = t_col / col_hs * 1e6
    print(
        f"  columnar ({clients} clients x {epochs} epochs): {t_col:7.2f}s"
        f"  {col_hs} handshakes  {col_us:9.3f}us/handshake"
    )

    sweep_config = ChurnExperimentConfig(
        staleness_levels=(1, 4),
        trials=2,
        base=ChurnConfig(steps=8, seed=0),
        clients=48,
        handshakes_per_client=2,
    )
    t_serial, sweep_serial = _time(
        lambda: run_churn_experiment(sweep_config, jobs=1)
    )
    t_par, sweep_par = _time(
        lambda: run_churn_experiment(sweep_config, jobs=jobs)
    )
    print(
        f"  sweep (4 cells, jobs=1): {t_serial:6.2f}s; jobs={jobs}: "
        f"{t_par:6.2f}s; equal={sweep_par == sweep_serial}"
    )

    speedup = scalar_us / col_us
    print(
        f"  per-handshake speedup: {speedup:.0f}x "
        f"(floor {MIN_CHURN_SPEEDUP:.0f}x)"
    )

    report = {
        "benchmark": "churn_columnar",
        "scale": {
            "columnar_clients": clients,
            "scalar_clients": scalar_clients,
            "epochs": epochs,
        },
        "cpu_count": cpus,
        "jobs": jobs,
        "seconds": {
            "scalar_reference": round(t_scalar, 3),
            "columnar": round(t_col, 3),
            "sweep_jobs1": round(t_serial, 3),
            f"sweep_jobs{jobs}": round(t_par, 3),
        },
        "handshakes": {
            "scalar_reference": scalar_hs,
            "columnar": col_hs,
        },
        "per_handshake_us": {
            "scalar_reference": round(scalar_us, 2),
            "columnar": round(col_us, 4),
        },
        "per_handshake_speedup": round(speedup, 1),
        "churn_stats": {
            "fp_retries": r_col.fp_retries,
            "failures": r_col.failures,
            "suppression_rate": round(r_col.suppression_rate, 4),
            "stale_advertised_rate": round(r_col.stale_advertised_rate, 4),
            "events": len(r_col.events),
        },
        "equivalence_smoke": equivalence,
        "results_equal": {"sweep_parallel_vs_serial": sweep_par == sweep_serial},
        "notes": (
            "per-handshake figures price engine construction + run "
            "(lifecycle included); the scalar arm resolves every cell "
            "through the real per-handshake TLS machine, the columnar arm "
            "one representative trace per (generation, site) context"
        ),
    }
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {output}")

    assert equivalence["equal"], "columnar engine diverged from scalar reference"
    assert equivalence["fp_retries"] > 0, (
        "equivalence smoke exercised no FP retries"
    )
    assert sweep_par == sweep_serial, "parallel sweep diverged from serial"
    assert col_hs >= MIN_COLUMNAR_HANDSHAKES, (
        f"columnar arm ran only {col_hs} handshakes < "
        f"{MIN_COLUMNAR_HANDSHAKES} floor (figure would be lifecycle-"
        f"dominated)"
    )
    assert speedup >= MIN_CHURN_SPEEDUP, (
        f"per-handshake speedup {speedup:.1f}x < {MIN_CHURN_SPEEDUP}x floor"
    )
    print("  all assertions passed")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    full = full_scale()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--clients", type=int, default=100_000 if full else 10_000,
        help="cohort size for the columnar arm",
    )
    parser.add_argument(
        "--epochs", type=int, default=50,
        help="churn epochs for both timing arms",
    )
    parser.add_argument(
        "--scalar-clients", type=int, default=8 if full else 4,
        help="cohort size for the scalar-reference timing arm",
    )
    parser.add_argument(
        "--jobs", type=int, default=4 if full else 2,
        help="worker processes for the parallel sweep arm",
    )
    parser.add_argument(
        "--output", default="BENCH_churn.json",
        help="report path ('' to skip writing)",
    )
    args = parser.parse_args(argv)
    run_benchmark(
        args.clients, args.epochs, args.scalar_clients, args.jobs,
        args.output or None,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

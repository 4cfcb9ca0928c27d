"""Columnar churn engine throughput (filter staleness at scale).

Two gates:

* the per-handshake cost of the columnar engine on a large cohort (10K
  clients x 50 epochs; 100K clients under ``REPRO_FULL=1``) must undercut
  the scalar reference's (every cell a real per-handshake TLS machine on
  a small cohort) by at least ``MIN_CHURN_SPEEDUP``. Both timers cover
  engine construction + run, world lifecycle included, and both arms
  price the same clean-handshake workload (fresh k=1 payloads);
* the staleness sweep sharded across workers must equal the serial run.

Engine-vs-reference equivalence, false-positive retries included, is the
differential suite's job (``tests/webmodel/test_churn_vs_scalar.py``).
Run with ``-s`` to see the measured speedup::

    pytest benchmarks/ --benchmark-only -s -k churn
"""

import time

from repro.experiments.churn import ChurnExperimentConfig, run_churn_experiment
from repro.webmodel.churn import ChurnConfig
from repro.webmodel.churn_columnar import ChurnCohortConfig, run_churn_cohort
from repro.webmodel.churn_reference import run_churn_cohort_reference
from tests._fixtures import full_scale

#: Columnar per-handshake cost must undercut the scalar machine's by at
#: least this factor (measured ~1000x on a 2-vCPU host; the floor leaves
#: wide margin for shared-runner noise).
MIN_CHURN_SPEEDUP = 25.0

#: The large arm must actually be large — 10K clients x 50 epochs — or
#: the per-handshake figure is dominated by the shared world lifecycle
#: and means nothing.
MIN_COLUMNAR_HANDSHAKES = 500_000

EPOCHS = 50
COLUMNAR_CLIENTS = 100_000 if full_scale() else 10_000
SCALAR_CLIENTS = 8 if full_scale() else 4
JOBS = 4 if full_scale() else 2


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _config(clients):
    return ChurnCohortConfig(
        world=ChurnConfig(steps=EPOCHS, seed=0),
        num_clients=clients,
        handshakes_per_client=1,
    )


def test_churn_per_handshake_speedup(benchmark):
    scalar_config = _config(SCALAR_CLIENTS)
    t_scalar, r_scalar = _timed(
        lambda: run_churn_cohort_reference(scalar_config)
    )
    scalar_us = t_scalar / r_scalar.handshakes * 1e6

    columnar_config = _config(COLUMNAR_CLIENTS)
    t_col, r_col = benchmark.pedantic(
        _timed,
        args=(lambda: run_churn_cohort(columnar_config),),
        rounds=1,
        iterations=1,
    )
    col_us = t_col / r_col.handshakes * 1e6
    speedup = scalar_us / col_us
    print()
    print(
        f"churn scalar   ({SCALAR_CLIENTS} clients x {EPOCHS} epochs): "
        f"{t_scalar:7.2f}s  {r_scalar.handshakes} handshakes  "
        f"{scalar_us:9.1f}us/handshake"
    )
    print(
        f"churn columnar ({COLUMNAR_CLIENTS} clients x {EPOCHS} epochs): "
        f"{t_col:7.2f}s  {r_col.handshakes} handshakes  "
        f"{col_us:9.3f}us/handshake"
    )
    print(
        f"churn per-handshake speedup: {speedup:.0f}x "
        f"(floor {MIN_CHURN_SPEEDUP:.0f}x)"
    )
    assert r_col.handshakes >= MIN_COLUMNAR_HANDSHAKES, (
        f"columnar arm ran only {r_col.handshakes} handshakes < "
        f"{MIN_COLUMNAR_HANDSHAKES} floor (figure would be lifecycle-"
        "dominated)"
    )
    assert speedup >= MIN_CHURN_SPEEDUP, (
        f"per-handshake speedup {speedup:.1f}x < {MIN_CHURN_SPEEDUP}x floor"
    )


def test_churn_sweep_parallel_matches_serial(benchmark):
    config = ChurnExperimentConfig(
        staleness_levels=(1, 4),
        trials=2,
        base=ChurnConfig(steps=8, seed=0),
        clients=48,
        handshakes_per_client=2,
    )
    serial = run_churn_experiment(config, jobs=1)
    parallel = benchmark.pedantic(
        run_churn_experiment,
        args=(config,),
        kwargs={"jobs": JOBS},
        rounds=1,
        iterations=1,
    )
    assert parallel == serial, "parallel sweep diverged from serial"

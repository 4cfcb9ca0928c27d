"""Columnar cohort engine throughput (Fig. 5 at population scale).

Two gates:

* the per-handshake cost of the columnar engine on a large cohort (100K
  users, 1M under ``REPRO_FULL=1``; ~10 destination draws each) must
  undercut the scalar reference's (real per-handshake TLS machines on a
  small cohort) by at least ``MIN_COHORT_SPEEDUP``. Both arms share the
  prebuilt default population; the timers cover engine construction +
  run, not the population build;
* the same large cohort sharded across workers must equal the serial run.

Engine-vs-reference equivalence, false-positive retries included, is the
differential suite's job (``tests/webmodel/test_cohort_vs_scalar.py``).
Run with ``-s`` to see the measured speedup::

    pytest benchmarks/ --benchmark-only -s -k cohort
"""

import time

from repro.webmodel.cohort import CohortConfig, run_cohort
from repro.webmodel.cohort_reference import run_cohort_reference
from tests._fixtures import full_scale

#: Columnar per-handshake cost must undercut the scalar machine's by at
#: least this factor (measured ~350x on a 2-vCPU host; the floor leaves
#: wide margin for shared-runner noise).
MIN_COHORT_SPEEDUP = 50.0

#: The large arm must actually be large, or the per-handshake figure is
#: dominated by constant engine setup and means nothing.
MIN_COLUMNAR_USERS = 100_000

COLUMNAR_USERS = 1_000_000 if full_scale() else 100_000
SCALAR_USERS = 60 if full_scale() else 40
JOBS = 4 if full_scale() else 2


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _config(population, users):
    return CohortConfig(num_users=users, seed=1, population=population.config)


def test_fig5_cohort_per_handshake_speedup(benchmark, population):
    scalar_config = _config(population, SCALAR_USERS)
    t_scalar, r_scalar = _timed(
        lambda: run_cohort_reference(scalar_config, population=population)
    )
    scalar_hs = r_scalar.stats.handshakes + r_scalar.stats.retries
    scalar_us = t_scalar / scalar_hs * 1e6

    columnar_config = _config(population, COLUMNAR_USERS)
    t_col, r_col = benchmark.pedantic(
        _timed,
        args=(lambda: run_cohort(columnar_config, jobs=1, population=population),),
        rounds=1,
        iterations=1,
    )
    col_hs = r_col.stats.handshakes + r_col.stats.retries
    col_us = t_col / col_hs * 1e6
    speedup = scalar_us / col_us
    print()
    print(
        f"cohort scalar   ({SCALAR_USERS} users): {t_scalar:7.2f}s  "
        f"{scalar_hs} handshakes  {scalar_us:9.1f}us/handshake"
    )
    print(
        f"cohort columnar ({COLUMNAR_USERS} users): {t_col:7.2f}s  "
        f"{col_hs} handshakes  {col_us:9.3f}us/handshake"
    )
    print(
        f"cohort per-handshake speedup: {speedup:.0f}x "
        f"(floor {MIN_COHORT_SPEEDUP:.0f}x)"
    )
    assert COLUMNAR_USERS >= MIN_COLUMNAR_USERS, (
        f"columnar arm ran only {COLUMNAR_USERS} users < {MIN_COLUMNAR_USERS} "
        "floor (per-handshake figure would be setup-dominated)"
    )
    assert speedup >= MIN_COHORT_SPEEDUP, (
        f"per-handshake speedup {speedup:.1f}x < {MIN_COHORT_SPEEDUP}x floor"
    )


def test_fig5_cohort_parallel_matches_serial(benchmark, population):
    config = _config(population, COLUMNAR_USERS)
    serial = run_cohort(config, jobs=1, population=population)
    parallel = benchmark.pedantic(
        run_cohort,
        args=(config,),
        kwargs={"jobs": JOBS, "population": population},
        rounds=1,
        iterations=1,
    )
    assert parallel == serial, "parallel cohort diverged from serial"

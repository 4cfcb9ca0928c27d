"""Single source of shared input data for tests *and* benchmarks.

``tests/conftest.py`` and ``benchmarks/conftest.py`` both re-export from
here, so the two harnesses can never diverge on population/chain setup —
a cohort differential test and a cohort benchmark that claim to run "the
same workload" provably construct it from the same functions.

Everything here is deterministic and memoized where construction is
expensive (population builds take seconds at paper scale).
"""

from __future__ import annotations

import os
import random
from typing import Dict, Optional

from repro.amq import FilterParams, canonical_params
from repro.webmodel.population import ICAPopulation, PopulationConfig

#: Seed of the shared benchmark/test population (PR-1 era convention).
POPULATION_SEED = 1


def full_scale() -> bool:
    """True when ``REPRO_FULL`` asks for paper-scale experiment runs."""
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")


def benchmark_scale() -> Dict[str, int]:
    """The benchmark harness's workload knobs (reduced vs paper scale).

    ``warmup_every`` is the warm-up curve's checkpoint grain in handshakes.
    """
    if full_scale():
        return {
            "users": 10, "draws": 4_200, "crawl": 10_000, "ops": 20_000,
            "warmup_every": 200,
        }
    return {
        "users": 3, "draws": 2_100, "crawl": 10_000, "ops": 5_000,
        "warmup_every": 100,
    }


_POPULATIONS: Dict[PopulationConfig, ICAPopulation] = {}


def shared_population(
    config: Optional[PopulationConfig] = None,
) -> ICAPopulation:
    """A process-wide memoized population per config (rank assignment is
    a pure function of (seed, rank), so sharing one instance is safe and
    skips the multi-second hierarchy build on every use)."""
    if config is None:
        config = PopulationConfig(seed=POPULATION_SEED)
    population = _POPULATIONS.get(config)
    if population is None:
        population = ICAPopulation(config)
        _POPULATIONS[config] = population
    return population


def reduced_population_config(
    seed: int = 7, month: Optional[str] = None
) -> PopulationConfig:
    """A small PKI the cohort differential/golden tests and the cohort
    benchmark's equivalence smoke share: a 160-ICA universe with a tiny
    hot head, so tail destinations routinely present unknown ICAs (the
    negative probes whose false positives the suite must exercise)."""
    kwargs = dict(
        universe_icas=160, num_roots=3, hot_rank_threshold=40, seed=seed
    )
    if month is not None:
        kwargs["month"] = month
    return PopulationConfig(**kwargs)


def make_rng() -> random.Random:
    """Deterministic RNG; tests must not depend on global random state."""
    return random.Random(0xC0FFEE)


def make_items(rng: random.Random, count: int, size: int = 32):
    """Distinct random byte strings (distinctness enforced)."""
    items = set()
    while len(items) < count:
        items.add(rng.getrandbits(8 * size).to_bytes(size, "big"))
    return sorted(items)


def make_paper_params() -> FilterParams:
    """Canonical (wire-quantized) params matching §5.3: 245 ICAs,
    0.1% FPP, 0.9 load factor."""
    return canonical_params(
        FilterParams(capacity=245, fpp=1e-3, load_factor=0.9, seed=42)
    )

"""Cache warm-up dynamics: preloading vs organic learning.

The paper seeds its filter from a crawl-derived hot set (and cites
Mozilla's Intermediate CA Preloading as prior art); a client could instead
start cold and learn ICAs from completed handshakes (§4.2's cache grows
either way). This experiment measures the suppression rate as a function
of handshakes completed, for three bootstrap strategies:

* ``preload-hot`` — the paper's configuration (June-'22 hot set);
* ``cold-learning`` — empty cache, learn every observed ICA;
* ``preload+learning`` — both (the deployable sweet spot).

The result is the convergence curve a deployment team would want: how
many handshakes until a cold client reaches preloaded-level suppression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.tables import format_table
from repro.core.suppression import ClientSuppressor
from repro.pki.store import IntermediatePreload
from repro.webmodel.cohort import CohortConfig, first_contact_ranks
from repro.webmodel.population import ICAPopulation, PopulationConfig

STRATEGIES = ("preload-hot", "cold-learning", "preload+learning")


@dataclass(frozen=True)
class WarmupCurve:
    strategy: str
    checkpoints: List[int]  # handshake counts
    suppression_rates: List[float]  # cumulative ICA suppression at each
    final_cache_size: int


def _make_suppressor(strategy: str, hot, seed: int) -> ClientSuppressor:
    preload = (
        IntermediatePreload(hot) if strategy != "cold-learning" else None
    )
    return ClientSuppressor(
        preload=preload,
        filter_kind="vacuum",
        budget_bytes=None,
        seed=seed,
    )


def warmup_checkpoint(users: int, draws: int) -> int:
    """A checkpoint grain giving about ten checkpoints over ``users``
    sessions of ``draws`` draws (about half the draws are first
    contacts)."""
    return max(1, users * draws // 20)


def warmup_curves(
    strategies: Sequence[str] = STRATEGIES,
    users: int = 3,
    draws: int = 2_100,
    checkpoint_every: int = 100,
    population: Optional[ICAPopulation] = None,
    seed: int = 9,
) -> List[WarmupCurve]:
    """Suppression-rate-so-far curves over a shared destination stream:
    the handshake destinations of ``users`` cohort users (each a browsing
    session of ``draws`` destination draws on stream ``seed``) one session
    after another, so the head destinations recur.  The rates are read
    every ``checkpoint_every`` handshakes.

    Uses the filter/cache pipeline directly (no TLS byte shuffling) so
    long streams stay cheap; the TLS equivalence is covered by the
    cohort's scalar-reference tests.
    """
    population = population or ICAPopulation(PopulationConfig(seed=seed))
    config = CohortConfig(num_users=users, handshakes_per_user=draws, seed=seed)
    destinations = np.concatenate(
        [first_contact_ranks(config, user) for user in range(users)]
    ).tolist()
    hot = population.hot_ica_certificates()

    curves = []
    for strategy in strategies:
        suppressor = _make_suppressor(strategy, hot, seed)
        learning = strategy != "preload-hot"
        suppressed = total = 0
        checkpoints: List[int] = []
        rates: List[float] = []
        for i, rank in enumerate(destinations, start=1):
            chain = population.chain_for_rank(rank)
            filt = suppressor.filter
            for fp in chain.ica_fingerprints():
                total += 1
                suppressed += filt.contains(fp)
            if learning:
                suppressor.learn_from(chain)
            if i % checkpoint_every == 0:
                checkpoints.append(i)
                rates.append(suppressed / total if total else 0.0)
        curves.append(
            WarmupCurve(
                strategy=strategy,
                checkpoints=checkpoints,
                suppression_rates=rates,
                final_cache_size=len(suppressor.cache),
            )
        )
    return curves


def format_warmup(curves: Sequence[WarmupCurve]) -> str:
    checkpoints = curves[0].checkpoints
    rows = [
        [
            c.strategy,
            *(f"{100 * r:.1f}" for r in c.suppression_rates),
            c.final_cache_size,
        ]
        for c in curves
    ]
    return format_table(
        ["strategy"] + [f"@{n}" for n in checkpoints] + ["cache"],
        rows,
        title="Cache warm-up — cumulative ICA suppression rate (%) vs handshakes",
    )


def handshakes_to_reach(
    curve: WarmupCurve, target_rate: float
) -> Optional[int]:
    """First checkpoint at which the curve reaches ``target_rate``."""
    for n, rate in zip(curve.checkpoints, curve.suppression_rates):
        if rate >= target_rate:
            return n
    return None

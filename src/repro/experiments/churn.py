"""Churn experiment: filter-staleness degradation curves.

Sweeps the churn cohort's ``payload_refresh_every`` knob (how stale a
client generation's advertised filter payload may grow relative to the
canonical cache) and reports how the FP-retry rate, suppression rate and
bytes-on-wire respond. Each (staleness level, trial) cell is one full
churn cohort run — a pure function of its config — so cells shard across
worker processes with results element-wise identical to the serial path,
and the JSON document is byte-identical for any ``--jobs`` value.

Two engines resolve the cells: the columnar engine
(:func:`~repro.webmodel.churn_columnar.run_churn_cohort`, the default)
and the scalar per-handshake reference
(:func:`~repro.webmodel.churn_reference.run_churn_cohort_reference`).
They implement one protocol over one set of RNG streams, so the document
is also byte-identical across ``engine`` — the cross-engine ``cmp`` the
CI churn-smoke enforces.

Cells are built trial-major and each carries its trial index.  The
levels of one trial see one event stream, so they share one engine memo
(:class:`~repro.webmodel.churn_columnar.ChurnMemo`).  Its world tape
means the trial's :class:`~repro.webmodel.churn.ChurnWorld` is built and
advanced once, by the first level to reach each step, and every other
level replays the recorded frames.  Its trace memo means each distinct
handshake context — the site's served chain, the path the cache
completes for it and their validity at the epoch's time, the advertised
payload's length and the probe hit on the site's chain, which is all the
trace reads — runs through the TLS machine once per trial rather than
once per epoch, level or payload image.  The sweep maps work items, each a
run of cells that share one fresh memo: when there are at least as many
trials as workers an item is one trial's levels, and every worker is
still busy; with fewer trials than workers an item is one cell, so a
lone trial's levels spread over the workers instead of queueing behind
one memo (each then records a tape of its own).  Trials reseed the
world, so no frame or context recurs across trials, and a process holds
one item's tape and traces at a time.  The memo lives for one item — a
second :func:`run_churn_experiment` call reaches the TLS machine again —
and results come back in (level, trial) order for any ``jobs``.

Wire images and probe plans live in content-keyed artifact caches
(:data:`repro.runtime.artifacts.FILTER_BUILDS` /
:data:`~repro.runtime.artifacts.CHURN_PROBES`), so repeated trials and
staleness levels sharing a trajectory prefix rehydrate each other's
builds instead of rebuilding identical filters from scratch; forked
workers inherit whatever the parent already built. Hit rates are a
per-process execution detail, not part of the deterministic document:
``--metrics-out`` exports them, merged across workers, as
``runtime.artifacts.{hits,misses}{cache=...}`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.runtime.parallel import derive_seed, parallel_map, resolve_jobs
from repro.webmodel.churn import ChurnConfig
from repro.webmodel.churn_columnar import (
    ChurnCohortConfig,
    ChurnMemo,
    run_churn_cohort,
)
from repro.webmodel.churn_reference import run_churn_cohort_reference

#: The engines that can resolve a sweep cell.
CHURN_ENGINES = ("columnar", "scalar")


@dataclass(frozen=True)
class ChurnExperimentConfig:
    """The staleness sweep: levels are ``payload_refresh_every`` values."""

    staleness_levels: Tuple[int, ...] = (1, 2, 4, 8)
    trials: int = 2
    base: ChurnConfig = field(default_factory=ChurnConfig)
    #: Cohort population per cell (columns).
    clients: int = 64
    handshakes_per_client: int = 2
    engine: str = "columnar"


@dataclass(frozen=True)
class ChurnCellResult:
    """Compact summary of one (staleness level, trial) churn run."""

    level: int
    trial: int
    handshakes: int
    completed: int
    fp_retries: int
    fallbacks: int
    failures: int
    stale_advertised: int
    icas_encountered: int
    icas_suppressed: int
    wire_bytes: int
    #: Cumulative filter-update-channel bytes (full images or delta
    #: patches, per the config's ``distribution``).
    distribution_bytes: int
    events: int
    fp_retry_curve: Tuple[float, ...]

    @property
    def fp_retry_rate(self) -> float:
        total = self.handshakes
        return (self.fp_retries + self.fallbacks) / total if total else 0.0

    @property
    def suppression_rate(self) -> float:
        if not self.icas_encountered:
            return 0.0
        return self.icas_suppressed / self.icas_encountered

    @property
    def stale_rate(self) -> float:
        total = self.handshakes
        return self.stale_advertised / total if total else 0.0


def _cell_config(config: ChurnExperimentConfig, level: int, trial: int) -> ChurnConfig:
    # Trials reseed the ecosystem; levels deliberately do NOT, so each
    # trial's curve isolates payload staleness against one event stream.
    return replace(
        config.base,
        payload_refresh_every=level,
        seed=derive_seed("churn.trial", config.base.seed, trial),
    )


def _run_cell(
    cell: Tuple[int, int, str, ChurnCohortConfig], memo: ChurnMemo
) -> ChurnCellResult:
    level, trial, engine, cfg = cell
    if engine == "columnar":
        result = run_churn_cohort(cfg, memo)
    else:
        result = run_churn_cohort_reference(cfg)
    return ChurnCellResult(
        level=level,
        trial=trial,
        handshakes=result.handshakes,
        completed=result.completed,
        fp_retries=result.fp_retries,
        fallbacks=result.fallbacks,
        failures=result.failures,
        stale_advertised=sum(s.stale_advertised for s in result.steps),
        icas_encountered=sum(s.icas_encountered for s in result.steps),
        icas_suppressed=sum(s.icas_suppressed for s in result.steps),
        wire_bytes=result.total_wire_bytes,
        distribution_bytes=result.total_distribution_bytes,
        events=len(result.events),
        fp_retry_curve=tuple(result.fp_retry_curve()),
    )


def _run_cells(
    cells: List[Tuple[int, int, str, ChurnCohortConfig]],
) -> List[ChurnCellResult]:
    """One work item: its cells, in order, on one fresh memo."""
    memo = ChurnMemo()
    return [_run_cell(cell, memo) for cell in cells]


def run_churn_experiment(
    config: ChurnExperimentConfig = ChurnExperimentConfig(),
    jobs: Optional[int] = 1,
) -> List[ChurnCellResult]:
    """Run the sweep; results ordered by (level, trial) for any ``jobs``."""
    if config.trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {config.trials}")
    if config.engine not in CHURN_ENGINES:
        raise ConfigurationError(
            f"unknown churn engine {config.engine!r}; expected one of "
            f"{CHURN_ENGINES}"
        )
    levels = config.staleness_levels
    if not levels:
        return []
    cells = [
        (
            level,
            trial,
            config.engine,
            ChurnCohortConfig(
                world=_cell_config(config, level, trial),
                num_clients=config.clients,
                handshakes_per_client=config.handshakes_per_client,
            ),
        )
        for trial in range(config.trials)
        for level in levels
    ]
    # One trial's levels per work item while that keeps every worker busy,
    # else one cell per item (see the module docstring).
    jobs = resolve_jobs(jobs)
    width = len(levels) if config.trials >= jobs else 1
    items = [cells[i : i + width] for i in range(0, len(cells), width)]
    results = [
        cell
        for item in parallel_map(
            _run_cells, items, jobs=jobs, metered=obs.enabled()
        )
        for cell in item
    ]
    return [
        results[trial * len(levels) + index]
        for index in range(len(levels))
        for trial in range(config.trials)
    ]


# -- reporting -------------------------------------------------------------------


def _by_level(
    results: List[ChurnCellResult],
) -> "Dict[int, List[ChurnCellResult]]":
    grouped: Dict[int, List[ChurnCellResult]] = {}
    for r in results:
        grouped.setdefault(r.level, []).append(r)
    return grouped


def format_churn(results: List[ChurnCellResult]) -> str:
    """Staleness table: one row per payload-refresh interval."""
    lines = [
        "Filter staleness vs false-positive retries (PKI lifecycle churn)",
        f"{'refresh every':>14} {'handshakes':>11} {'stale %':>8} "
        f"{'FP-retry %':>11} {'suppressed %':>13} {'wire KiB':>9} "
        f"{'update KiB':>11} {'failed':>7}",
    ]
    for level, cells in sorted(_by_level(results).items()):
        handshakes = sum(c.handshakes for c in cells)
        stale = sum(c.stale_advertised for c in cells)
        retries = sum(c.fp_retries + c.fallbacks for c in cells)
        encountered = sum(c.icas_encountered for c in cells)
        suppressed = sum(c.icas_suppressed for c in cells)
        wire = sum(c.wire_bytes for c in cells)
        distribution = sum(c.distribution_bytes for c in cells)
        failed = sum(c.failures for c in cells)
        # A degenerate sweep (zero epochs) still renders: rates report 0.
        stale_pct = 100.0 * stale / handshakes if handshakes else 0.0
        retry_pct = 100.0 * retries / handshakes if handshakes else 0.0
        lines.append(
            f"{level:>14d} {handshakes:>11d} "
            f"{stale_pct:>8.1f} "
            f"{retry_pct:>11.2f} "
            f"{100.0 * suppressed / max(1, encountered):>13.1f} "
            f"{wire / 1024:>9.1f} "
            f"{distribution / 1024:>11.1f} {failed:>7d}"
        )
    return "\n".join(lines)


def churn_json_doc(
    config: ChurnExperimentConfig, results: List[ChurnCellResult]
) -> dict:
    """The machine-readable sweep: per-cell summaries plus per-level
    staleness-vs-FP-retry curves (step-indexed, averaged over trials)."""
    curves = {}
    for level, cells in sorted(_by_level(results).items()):
        steps = len(cells[0].fp_retry_curve)
        per_step = [
            sum(c.fp_retry_curve[i] for c in cells) / len(cells)
            for i in range(steps)
        ]
        total = sum(c.handshakes for c in cells)
        curves[str(level)] = {
            "fp_retry_rate": (
                sum(c.fp_retries + c.fallbacks for c in cells) / total
                if total
                else 0.0
            ),
            "per_step_fp_retry_rate": per_step,
            "distribution_bytes": sum(c.distribution_bytes for c in cells),
        }
    return {
        "schema": "repro.churn/v1",
        "staleness_levels": list(config.staleness_levels),
        "trials": config.trials,
        "steps": config.base.steps,
        "seed": config.base.seed,
        "filter_kind": config.base.filter_kind,
        "distribution": config.base.distribution,
        "clients": config.clients,
        "handshakes_per_client": config.handshakes_per_client,
        "cells": [
            {
                "level": c.level,
                "trial": c.trial,
                "handshakes": c.handshakes,
                "completed": c.completed,
                "fp_retries": c.fp_retries,
                "fallbacks": c.fallbacks,
                "failures": c.failures,
                "stale_advertised": c.stale_advertised,
                "fp_retry_rate": c.fp_retry_rate,
                "suppression_rate": c.suppression_rate,
                "wire_bytes": c.wire_bytes,
                "distribution_bytes": c.distribution_bytes,
                "events": c.events,
                "fp_retry_curve": list(c.fp_retry_curve),
            }
            for c in results
        ],
        "curves": curves,
    }

"""Monthly Top-10K crawl simulation — reproduces Table 2.

For each monthly snapshot the crawler walks the (jittered) top ranks,
asks the population for each server's chain, and tallies exactly what the
paper's table reports: the chain-size shares and the distinct-ICA count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.webmodel.chains import TABLE2_MONTHS, table2_mix
from repro.webmodel.population import ICAPopulation


@dataclass(frozen=True)
class CrawlStats:
    """One Table-2 row, as measured by the crawl."""

    month: str
    total_servers: int
    unique_icas: int
    share_by_depth: Dict[int, float]  # keys 0..3 and 4 meaning '>3'

    def share(self, depth: int) -> float:
        return self.share_by_depth.get(depth, 0.0)

    def as_row(self) -> List[str]:
        return [
            self.month,
            str(self.unique_icas),
            f"{self.total_servers // 1000}K",
            *(f"{100 * self.share(d):.1f}" for d in range(5)),
        ]


def crawl_top_domains(
    population: ICAPopulation,
    month: str,
    month_index: int = 0,
    num_domains: int = 10_000,
) -> CrawlStats:
    """Crawl the month's top ``num_domains`` and tally chain statistics.

    The month enters twice, as in reality: the rank list itself churns a
    little (``DomainRanking.monthly_ranks``), and the population's chain
    mix follows the month's observed distribution.
    """
    population = _with_month(population, month)
    ranking, paths = population.ranking, population.hierarchy.paths
    ordinals = population.path_ordinals(
        ranking.monthly_ranks(np.arange(1, num_domains + 1), month_index)
    )
    depth_counts = Counter(min(paths[o].depth, 4) for o in ordinals.tolist())
    distinct = {
        cert.fingerprint()
        for o in np.unique(ordinals).tolist()
        for cert in paths[o].ica_certificates()
    }
    shares = {d: c / num_domains for d, c in depth_counts.items()}
    return CrawlStats(
        month=month,
        total_servers=num_domains,
        unique_icas=len(distinct),
        share_by_depth=shares,
    )


def crawl_all_months(
    population: ICAPopulation, num_domains: int = 10_000
) -> List[CrawlStats]:
    return [
        crawl_top_domains(population, month, month_index=i, num_domains=num_domains)
        for i, month in enumerate(TABLE2_MONTHS)
    ]


def _with_month(population: ICAPopulation, month: str) -> ICAPopulation:
    """A view of the population under another month's chain mix (same
    hierarchy, same path popularity — only the depth mix changes)."""
    if population.config.month == month:
        return population
    clone = object.__new__(ICAPopulation)
    clone.__dict__.update(population.__dict__)
    clone._mix = table2_mix(month)
    clone.reset_memos()
    return clone

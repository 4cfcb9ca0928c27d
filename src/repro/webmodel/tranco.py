"""Synthetic ranked domain universe (the Tranco Top-1M stand-in).

Domain names are deterministic functions of rank; popularity-weighted
destination draws over the ranking are the cohort's counter-based Zipf
streams (:func:`repro.webmodel.cohortrng.zipf_ranks`). Monthly snapshots
apply a small deterministic rank churn so Table 2's month-to-month
variation has a source.
"""

from __future__ import annotations

import random
from typing import List

from repro.errors import ConfigurationError

_TLDS = ("com", "org", "net", "io", "dev", "co", "app", "info")


class DomainRanking:
    """A ranked universe of ``size`` domains (rank 1 = most popular)."""

    def __init__(self, size: int = 1_000_000, seed: int = 0) -> None:
        if size < 1:
            raise ConfigurationError(f"ranking size must be >= 1, got {size}")
        self.size = size
        self._seed = seed

    def domain(self, rank: int) -> str:
        """Deterministic domain name for a rank (1-based)."""
        if not 1 <= rank <= self.size:
            raise ConfigurationError(
                f"rank {rank} outside [1, {self.size}]"
            )
        tld = _TLDS[(rank * 2654435761) % len(_TLDS)]
        return f"site-{rank:07d}.{tld}"

    def rank_of(self, domain: str) -> int:
        """Inverse of :meth:`domain`."""
        try:
            return int(domain.split(".", 1)[0].split("-")[1])
        except (IndexError, ValueError) as exc:
            raise ConfigurationError(f"not a synthetic domain: {domain!r}") from exc

    def monthly_rank(self, rank: int, month_index: int, churn: float = 0.02) -> int:
        """Rank of the same site in a monthly snapshot: a deterministic
        jitter of up to ``churn`` of the rank magnitude."""
        if month_index == 0 or rank == 1:
            return rank
        rng = random.Random((self._seed << 24) ^ (rank * 1000003) ^ month_index)
        span = max(1, int(rank * churn))
        return min(max(1, rank + rng.randint(-span, span)), self.size)

    def top(self, n: int) -> List[str]:
        return [self.domain(r) for r in range(1, min(n, self.size) + 1)]

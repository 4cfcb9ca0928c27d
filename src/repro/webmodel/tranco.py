"""Synthetic ranked domain universe (the Tranco Top-1M stand-in).

Domain names are deterministic functions of rank; popularity-weighted
destination draws over the ranking are the cohort's counter-based Zipf
streams (:func:`repro.webmodel.cohortrng.zipf_ranks`). Monthly snapshots
apply a small deterministic rank churn so Table 2's month-to-month
variation has a source: :meth:`DomainRanking.monthly_rank` is its scalar
spec, :meth:`DomainRanking.monthly_ranks` the same draws as columns.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.webmodel.mtkernel import MASK32, mt_words, randbelow_columns

_TLDS = ("com", "org", "net", "io", "dev", "co", "app", "info")

#: Output words :meth:`DomainRanking.monthly_ranks` draws per rank: a
#: ``randrange`` rejects each with probability at most 1/2.
_JITTER_WORDS = 8


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

    def monthly_ranks(
        self, ranks: np.ndarray, month_index: int, churn: float = 0.02
    ) -> np.ndarray:
        """:meth:`monthly_rank` of every entry of the 1-D ``ranks`` (each
        in ``[1, size]``), with one :func:`mt_words` call for the batch.

        ``randint(-span, span)`` is ``-span + randrange(2 * span + 1)``;
        the few ranks whose ``randrange`` rejected all ``_JITTER_WORDS``
        words take the scalar spec, as do ranks too large for this layout
        (a seed term of 2**64 or more, a span of 2**31 or more).
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        out = ranks.copy()
        jittered = np.flatnonzero(ranks != 1) if month_index else ranks[:0]
        if jittered.size == 0:
            return out
        moved = ranks[jittered]
        # random.Random(s), s = (seed << 24) ^ (rank * 1000003) ^ month, is
        # seeded with high * 2**64 + low where rank * 1000003 < 2**64.
        fixed = (self._seed << 24) ^ month_index
        low = np.uint64(fixed & (2**64 - 1)) ^ (
            moved.astype(np.uint64) * np.uint64(1000003)
        )
        words = mt_words(fixed >> 64, low, _JITTER_WORDS)
        span = np.maximum(1, (moved * churn).astype(np.int64))
        wide = (2 * span + 1 > MASK32) | (moved >= 2**64 // 1000003)
        offset, ok = randbelow_columns(words, np.where(wide, 1, 2 * span + 1))
        out[jittered] = np.clip(moved - span + offset, 1, self.size)
        for i in jittered[~ok | wide].tolist():
            out[i] = self.monthly_rank(int(ranks[i]), month_index, churn)
        return out

    def top(self, n: int) -> List[str]:
        return [self.domain(r) for r in range(1, min(n, self.size) + 1)]

"""ICA population model: who signs the web's certificates.

Couples the domain ranking to the synthetic PKI:

* the ICA universe holds ~1400 distinct intermediates (the CCADB /
  Firefox preload count the paper reports for June 2022);
* each domain's chain depth follows the month's Table-2 mix;
* the issuing path is drawn from a head-heavy Zipf over paths, calibrated
  so a Top-10K crawl observes the paper's 220-245 distinct ICAs;
* tail domains (rank > ``hot_rank_threshold``) mix in a uniform draw over
  the whole universe (``tail_uniform_share``), which is what pushes the
  browsing session's known-ICA rate down to the paper's observed 69-74 %
  despite the head's concentration.

Every assignment is a pure function of (seed, rank), so the same domain
always presents the same chain — a property both the crawler and the
cohort engine rely on.

:meth:`ICAPopulation.path_for_rank` is the executable scalar spec: one
``random.Random`` per (rank, salt).  :meth:`ICAPopulation.path_ordinals`
is the engine every bulk lookup uses:
:func:`~repro.webmodel.mtkernel.mt_words` reproduces CPython's
``random.Random(int)`` seeding and first outputs as numpy uint32 columns
over a whole batch of ranks, so both give the same path for every rank
(the differential tests pin this).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.pki.authority import Hierarchy, ICAPath, ServerCredential, build_hierarchy
from repro.pki.certificate import Certificate
from repro.runtime.parallel import derive_seed
from repro.webmodel.chains import PAPER_MONTH, ChainMix, table2_mix
from repro.webmodel.mtkernel import MASK32, mt_words, randbelow_columns, random_columns
from repro.webmodel.tranco import DomainRanking


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs of the population model (defaults = paper calibration)."""

    algorithm: str = "ecdsa-p256"
    universe_icas: int = 1400
    num_roots: int = 7
    head_exponent: float = 2.1
    tail_uniform_share: float = 0.85
    hot_rank_threshold: int = 10_000
    month: str = PAPER_MONTH
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tail_uniform_share <= 1.0:
            raise ConfigurationError(
                f"tail_uniform_share must be in [0,1], got {self.tail_uniform_share}"
            )
        if self.head_exponent <= 1.0:
            raise ConfigurationError(
                f"head_exponent must exceed 1, got {self.head_exponent}"
            )


#: Output words the path draw takes per rank (salts 2 and 3).
#: ``randrange`` rejects each word with probability at most 1/2 and has
#: at least six of them, so at most 1 rank in 2**6 rejects them all; those
#: ranks take the scalar spec.
_PATH_WORDS = 8


class ICAPopulation:
    """The web's CA population, addressable by domain rank."""

    def __init__(
        self,
        config: PopulationConfig = PopulationConfig(),
        ranking: Optional[DomainRanking] = None,
    ) -> None:
        self.config = config
        self.ranking = ranking or DomainRanking(seed=config.seed)
        self.hierarchy: Hierarchy = build_hierarchy(
            config.algorithm,
            total_icas=config.universe_icas,
            num_roots=config.num_roots,
            depth_weights={1: 0.50, 2: 0.35, 3: 0.145, 4: 0.005},
            seed=config.seed,
        )
        shuffle_rng = random.Random(config.seed ^ 0xBEEF)
        self._paths_by_depth: Dict[int, List[ICAPath]] = {}
        for path in self.hierarchy.paths:
            self._paths_by_depth.setdefault(path.depth, []).append(path)
        for depth, paths in self._paths_by_depth.items():
            shuffle_rng.shuffle(paths)  # popularity order, decoupled from creation
        self._cum_weights: Dict[int, List[float]] = {
            depth: self._cumulative_zipf(len(paths))
            for depth, paths in self._paths_by_depth.items()
        }
        self._ordinal_of: Dict[int, int] = {
            id(path): i for i, path in enumerate(self.hierarchy.paths)
        }
        self._ordinals_by_depth: Dict[int, np.ndarray] = {
            depth: np.array([self._ordinal_of[id(path)] for path in paths], dtype=np.int64)
            for depth, paths in self._paths_by_depth.items()
        }
        self._mix: ChainMix = table2_mix(config.month)
        self.reset_memos()

    def reset_memos(self) -> None:
        """Drop every per-rank memo (a view under another chain mix must
        not share them)."""
        self._credentials: Dict[int, ServerCredential] = {}
        self._hot_icas: Dict[int, List[Certificate]] = {}
        # Path ordinal per rank, -1 where not yet drawn; grown on demand.
        self._ordinal_memo = np.full(
            0, -1, dtype=np.min_scalar_type(-len(self.hierarchy.paths))
        )

    # -- internals ------------------------------------------------------------

    def _cumulative_zipf(self, n: int) -> List[float]:
        acc = 0.0
        out = []
        for i in range(n):
            acc += 1.0 / (i + 1) ** self.config.head_exponent
            out.append(acc)
        return out

    def _rng_for(self, rank: int, salt: int) -> random.Random:
        return random.Random(
            (self.config.seed << 32) ^ (rank * 0x9E3779B1) ^ (salt * 0x85EBCA6B)
        )

    def _available_depth(self, depth: int) -> int:
        while depth > 0 and not self._paths_by_depth.get(depth):
            depth -= 1
        return depth

    # -- assignment -----------------------------------------------------------

    def depth_for_rank(self, rank: int) -> int:
        """Chain depth (ICA count) of the domain at ``rank``."""
        depth = self._mix.sample_depth(self._rng_for(rank, 1))
        return self._available_depth(depth)

    def path_for_rank(self, rank: int) -> ICAPath:
        depth = self.depth_for_rank(rank)
        if depth == 0:
            roots = self._paths_by_depth.get(0, [])
            if not roots:
                raise ConfigurationError("hierarchy has no root-direct paths")
            return roots[self._rng_for(rank, 2).randrange(len(roots))]
        paths = self._paths_by_depth[depth]
        rng = self._rng_for(rank, 3)
        if (
            rank > self.config.hot_rank_threshold
            and rng.random() < self.config.tail_uniform_share
        ):
            return paths[rng.randrange(len(paths))]
        cum = self._cum_weights[depth]
        u = rng.random() * cum[-1]
        return paths[min(bisect.bisect_left(cum, u), len(paths) - 1)]

    def path_ordinals(self, ranks: np.ndarray) -> np.ndarray:
        """Hierarchy path ordinal (index into ``hierarchy.paths``) of the
        path :meth:`path_for_rank` assigns to each entry of ``ranks``,
        drawn for all new ranks at once and memoized per rank."""
        ranks = np.asarray(ranks, dtype=np.int64)
        top = int(ranks.max(initial=0))
        if ranks.min(initial=1) < 1 or top > self.ranking.size:
            raise ConfigurationError(f"ranks must lie in [1, {self.ranking.size}]")
        memo = self._ordinal_memo
        if top >= len(memo):
            # Grown in place (no old + new copy); no view of the memo exists.
            known = len(memo)
            memo.resize(top + 1, refcheck=False)
            memo[known:] = -1
        missing = np.unique(ranks[memo[ranks] < 0])
        if missing.size:
            memo[missing] = self._draw_ordinals(missing)
        return memo[ranks].astype(np.int64)

    def _draw_ordinals(self, ranks: np.ndarray) -> np.ndarray:
        """:meth:`path_for_rank` over distinct ``ranks``, as columns: the
        salt-1 stream draws the depth, the salt-2 (root-direct) or salt-3
        stream the path; the few ranks whose ``randrange`` rejected all
        ``_PATH_WORDS`` words go to the scalar spec."""
        cfg = self.config
        keys = np.uint64((cfg.seed & MASK32) << 32) ^ (
            ranks.astype(np.uint64) * np.uint64(0x9E3779B1)
        )

        def words(salt, count: int) -> np.ndarray:
            salted = np.asarray(salt, dtype=np.uint64) * np.uint64(0x85EBCA6B)
            return mt_words(cfg.seed >> 32, keys ^ salted, count)

        w = words(1, 2)
        cum_mix = np.cumsum(self._mix.probabilities())  # sample_depth's sums
        drawn = np.searchsorted(cum_mix, random_columns(w[0], w[1]), side="right")
        depth = np.array([self._available_depth(d) for d in range(5)])[
            np.minimum(drawn, 4)
        ]
        ordinals = np.empty(len(ranks), dtype=np.int64)
        rejected = np.zeros(len(ranks), dtype=bool)
        w = words(np.where(depth == 0, np.uint64(2), np.uint64(3)), _PATH_WORDS)
        for d in np.unique(depth).tolist():
            sel = depth == d
            paths = self._ordinals_by_depth.get(d)
            if paths is None:
                raise ConfigurationError("hierarchy has no root-direct paths")
            if d == 0:
                index, ok = randbelow_columns(w[:, sel], len(paths))
            else:
                cum = np.asarray(self._cum_weights[d])
                u = random_columns(w[0, sel], w[1, sel])
                tail = ranks[sel] > cfg.hot_rank_threshold
                uniform = tail & (u < cfg.tail_uniform_share)
                u = np.where(tail, random_columns(w[2, sel], w[3, sel]), u) * cum[-1]
                bisected = np.searchsorted(cum, u, side="left")
                index, ok = randbelow_columns(w[2:, sel], len(paths))
                index = np.where(uniform, index, np.minimum(bisected, len(paths) - 1))
                ok |= ~uniform
            ordinals[sel] = paths[index]
            rejected[sel] = ~ok
        for i in np.flatnonzero(rejected).tolist():
            ordinals[i] = self._ordinal_of[id(self.path_for_rank(int(ranks[i])))]
        return ordinals

    # -- issuance ------------------------------------------------------------

    def credential_for_rank(self, rank: int) -> ServerCredential:
        """The server credential (chain + leaf key) for a domain; cached,
        so a domain presents one stable chain across the simulation.

        The leaf seed and serial derive from (population seed, rank), so
        issuance is a pure function of its inputs — independent of visit
        order and identical across processes."""
        cred = self._credentials.get(rank)
        if cred is None:
            domain = self.ranking.domain(rank)
            path = self.path_for_rank(rank)
            leaf_seed = derive_seed("population.leaf", self.config.seed, rank)
            serial = derive_seed(
                "population.serial", self.config.seed, rank, bits=48
            )
            cred = self.hierarchy.issue_credential(
                domain, path, seed=leaf_seed, serial=serial
            )
            self._credentials[rank] = cred
        return cred

    def chain_for_rank(self, rank: int):
        return self.credential_for_rank(rank).chain

    # -- population views --------------------------------------------------------

    def ica_universe(self) -> List[Certificate]:
        return self.hierarchy.ica_certificates()

    def hot_ica_certificates(self, top_n: int = 10_000) -> List[Certificate]:
        """Distinct ICAs observed across the top-``top_n`` domains — the
        paper's filter contents (245 for the June '22 crawl). Memoized per
        ``top_n``: rank assignment is a pure function of (seed, rank), so
        the scan's result never changes and every simulator sharing this
        population reuses one copy."""
        cached = self._hot_icas.get(top_n)
        if cached is None:
            ordinals = self.path_ordinals(np.arange(1, top_n + 1))
            _, first = np.unique(ordinals, return_index=True)
            seen: Dict[bytes, Certificate] = {}
            for ordinal in ordinals[np.sort(first)].tolist():  # scan order
                for cert in self.hierarchy.paths[ordinal].ica_certificates():
                    seen.setdefault(cert.fingerprint(), cert)
            cached = list(seen.values())
            self._hot_icas[top_n] = cached
        return list(cached)

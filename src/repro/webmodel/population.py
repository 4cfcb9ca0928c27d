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
is the engine every bulk lookup uses: :func:`mt_words` reproduces
CPython's ``random.Random(int)`` seeding and first outputs as numpy
uint32 columns over a whole batch of ranks, so both give the same path
for every rank (the differential tests pin this).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.pki.authority import Hierarchy, ICAPath, ServerCredential, build_hierarchy
from repro.pki.certificate import Certificate
from repro.runtime import artifacts
from repro.runtime.parallel import derive_seed
from repro.webmodel.chains import PAPER_MONTH, ChainMix, table2_mix
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


# -- random.Random(int) as numpy columns ---------------------------------------

_N, _M = 624, 397  # MT19937 state words and twist offset
_MASK32 = 0xFFFFFFFF


def _genrand_table(seed: int) -> List[np.uint32]:
    """MT19937 ``init_genrand(seed)``: the state ``init_by_array`` starts from."""
    mt = [seed]
    for i in range(1, _N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & _MASK32)
    return [np.uint32(word) for word in mt]


_INIT = _genrand_table(19650218)
_U30 = np.uint32(30)


def _key_adds(high: int, low: np.ndarray) -> List[np.ndarray]:
    """Per column, the term ``init_by_array``'s first loop adds at step
    ``i`` (``key[j] + j`` with ``j = i mod len(key)``), cycled by index.

    CPython keys ``random.Random(s)`` with the little-endian 32-bit words
    of ``abs(s)`` (at least one word); here ``s = high * 2**64 + low``.
    """
    if high >= 0:
        mag, tops, alt = low, (high, high), np.zeros(low.shape, dtype=bool)
    else:  # abs(s) = (-high - 1) * 2**64 + (2**64 - low), or -high * 2**64 at low 0
        mag, tops, alt = ~low + np.uint64(1), (-high - 1, -high), low == 0
    words = [
        (mag & np.uint64(_MASK32)).astype(np.uint32),
        (mag >> np.uint64(32)).astype(np.uint32),
    ]
    length = np.where(words[1] != 0, 2, 1)
    top_words = [
        [top >> shift & _MASK32 for shift in range(0, top.bit_length(), 32)]
        for top in tops
    ]
    for t in range(max(map(len, top_words))):
        pick = [w[t] if t < len(w) else 0 for w in top_words]
        words.append(np.where(alt, np.uint32(pick[1]), np.uint32(pick[0])))
    for flag, top in zip((False, True), top_words):
        if top:
            length[alt == flag] = 2 + len(top)
    lengths = np.unique(length).tolist()
    if lengths[-1] > _N:
        raise ValueError("random.Random key longer than the MT19937 state")
    adds = []
    for step in range(min(math.lcm(*lengths), _N)):
        add = np.empty(low.shape, dtype=np.uint32)
        for n in lengths:
            sel = length == n
            add[sel] = words[step % n][sel] + np.uint32(step % n)
        adds.append(add)
    return adds


def mt_words(high: int, low: np.ndarray, count: int) -> np.ndarray:
    """``(count, len(low))`` uint32: column ``b`` holds the first ``count``
    ``getrandbits(32)`` outputs of ``random.Random(high * 2**64 + low[b])``.

    Memory is O(batch): ``init_by_array``'s first loop runs once to reach
    its last word (the second loop's start), then again fused with the
    second loop, keeping only the state rows the first ``count`` outputs
    read (output ``w`` twists ``mt[w]``, ``mt[w+1]`` and ``mt[w+397]``).
    """
    if not 1 <= count <= _N - _M:
        raise ValueError(f"count must be in [1, {_N - _M}], got {count}")
    low = np.asarray(low, dtype=np.uint64)
    adds = _key_adds(high, low)
    period = len(adds)
    mul1, mul2 = np.uint32(1664525), np.uint32(1566083941)
    prev = np.full(low.shape, _INIT[0])
    tmp = np.empty_like(prev)

    def mix(word: np.ndarray, mul: np.uint32, into) -> None:
        np.right_shift(word, _U30, out=tmp)
        np.bitwise_xor(tmp, word, out=tmp)
        np.multiply(tmp, mul, out=tmp)
        np.bitwise_xor(tmp, into, out=tmp)

    def loop1(i: int) -> None:  # mt[i] of init_by_array's first loop
        mix(prev, mul1, _INIT[i])
        np.add(tmp, adds[(i - 1) % period], out=prev)

    loop1(1)
    first = prev.copy()
    for i in range(2, _N):
        loop1(i)
    mix(prev, mul1, first)  # the loop wraps and updates mt[1] once more
    wrapped = tmp + adds[(_N - 1) % period]
    prev[...] = first
    second = wrapped.copy()
    rows = {}
    for i in range(2, _N):
        loop1(i)
        mix(second, mul2, prev)
        np.subtract(tmp, np.uint32(i), out=second)
        if i <= count or _M <= i < _M + count:
            rows[i] = second.copy()
    mix(second, mul2, wrapped)  # the second loop wraps onto mt[1] too
    rows[1] = tmp - np.uint32(1)
    out = np.empty((count,) + low.shape, dtype=np.uint32)
    upper, lower = np.uint32(0x80000000), np.uint32(0x7FFFFFFF)
    for w in range(count):
        y = (upper if w == 0 else rows[w] & upper) | (rows[w + 1] & lower)
        v = rows[w + _M] ^ (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * np.uint32(0x9908B0DF))
        v ^= v >> np.uint32(11)
        v ^= (v << np.uint32(7)) & np.uint32(0x9D2C5680)
        v ^= (v << np.uint32(15)) & np.uint32(0xEFC60000)
        out[w] = v ^ (v >> np.uint32(18))
    return out


def _random(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``random.random()`` from two consecutive output words."""
    return ((a >> 5).astype(np.float64) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)


def _randbelow(words: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``randrange(n)`` per column: the first ``w >> (32 - k)`` below ``n``
    (``k = n.bit_length()``), and whether ``words`` held one."""
    drawn = words >> np.uint32(32 - n.bit_length())
    valid = drawn < n
    ok = valid.any(axis=0)
    value = drawn[valid.argmax(axis=0), np.arange(words.shape[1])]
    return np.where(ok, value, 0), ok


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
        ordinal = {id(path): i for i, path in enumerate(self.hierarchy.paths)}
        self._ordinals_by_depth: Dict[int, np.ndarray] = {
            depth: np.array([ordinal[id(path)] for path in paths], dtype=np.int64)
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
            memo = np.concatenate([memo, np.full(top + 1 - len(memo), -1, memo.dtype)])
            self._ordinal_memo = memo
        missing = np.unique(ranks[memo[ranks] < 0])
        if missing.size:
            memo[missing] = self._draw_ordinals(missing)
        return memo[ranks].astype(np.int64)

    def _draw_ordinals(self, ranks: np.ndarray) -> np.ndarray:
        """:meth:`path_for_rank` over distinct ``ranks``, as columns: the
        salt-1 stream draws the depth, the salt-2 (root-direct) or salt-3
        stream the path; ranks whose ``randrange`` rejected every word
        drawn so far are redrawn with twice the words."""
        cfg = self.config
        keys = np.uint64((cfg.seed & _MASK32) << 32) ^ (
            ranks.astype(np.uint64) * np.uint64(0x9E3779B1)
        )

        def words(rows: np.ndarray, salt, count: int) -> np.ndarray:
            salted = np.asarray(salt, dtype=np.uint64) * np.uint64(0x85EBCA6B)
            return mt_words(cfg.seed >> 32, keys[rows] ^ salted, count)

        todo = np.arange(len(ranks))
        w = words(todo, 1, 2)
        cum_mix = np.cumsum(self._mix.probabilities())  # sample_depth's sums
        drawn = np.searchsorted(cum_mix, _random(w[0], w[1]), side="right")
        depth = np.array([self._available_depth(d) for d in range(5)])[
            np.minimum(drawn, 4)
        ]
        ordinals = np.empty(len(ranks), dtype=np.int64)
        count = 8
        while todo.size:
            todo_depth = depth[todo]
            w = words(todo, np.where(todo_depth == 0, 2, 3), count)
            done = np.ones(len(todo), dtype=bool)
            for d in np.unique(todo_depth).tolist():
                sel = todo_depth == d
                paths = self._ordinals_by_depth.get(d)
                if paths is None:
                    raise ConfigurationError("hierarchy has no root-direct paths")
                if d == 0:
                    index, ok = _randbelow(w[:, sel], len(paths))
                else:
                    cum = np.asarray(self._cum_weights[d])
                    u = _random(w[0, sel], w[1, sel])
                    tail = ranks[todo[sel]] > cfg.hot_rank_threshold
                    uniform = tail & (u < cfg.tail_uniform_share)
                    u = np.where(tail, _random(w[2, sel], w[3, sel]), u) * cum[-1]
                    bisected = np.searchsorted(cum, u, side="left")
                    index, ok = _randbelow(w[2:, sel], len(paths))
                    index = np.where(uniform, index, np.minimum(bisected, len(paths) - 1))
                    ok |= ~uniform
                ordinals[todo[sel]] = paths[index]
                done[sel] = ok
            todo, count = todo[~done], 2 * count
        return ordinals

    # -- issuance ------------------------------------------------------------

    def credential_for_rank(self, rank: int) -> ServerCredential:
        """The server credential (chain + leaf key) for a domain; cached,
        so a domain presents one stable chain across the simulation.

        The leaf seed and serial derive from (population seed, rank), so
        issuance is a pure function of its inputs — independent of visit
        order, identical across processes, and shareable across simulator
        instances through the content-keyed credentials cache."""
        cred = self._credentials.get(rank)
        if cred is None:
            domain = self.ranking.domain(rank)
            path = self.path_for_rank(rank)
            leaf_seed = derive_seed("population.leaf", self.config.seed, rank)
            serial = derive_seed(
                "population.serial", self.config.seed, rank, bits=48
            )
            key = (
                path.issuer.certificate.fingerprint(),
                domain,
                leaf_seed,
                serial,
            )
            cred = artifacts.CREDENTIALS.get(key)
            if cred is None:
                cred = self.hierarchy.issue_credential(
                    domain, path, seed=leaf_seed, serial=serial
                )
                artifacts.CREDENTIALS.put(key, cred)
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

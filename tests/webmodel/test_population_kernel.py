"""Differential tests: the vectorised population lookup against its scalar spec.

``ICAPopulation.path_for_rank`` draws with one ``random.Random`` per
(rank, salt); ``path_ordinals`` reproduces those draws as numpy columns
through ``mt_words``.  These tests pin the two to each other: the raw
Mersenne-Twister words against the stdlib (so each CI Python pins its own
``random`` contract), then paths over every branch of the draw, the hot
ICA scan (order included), the crawler's month views and the monthly
rank jitter (``DomainRanking.monthly_ranks`` against ``monthly_rank``).
"""

import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.webmodel import population as population_module
from repro.webmodel import tranco as tranco_module
from repro.webmodel.crawler import _with_month, crawl_top_domains
from repro.webmodel.mtkernel import mt_words
from repro.webmodel.population import ICAPopulation, PopulationConfig
from repro.webmodel.tranco import DomainRanking

_MASK64 = (1 << 64) - 1


def _stdlib_words(seed, count):
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def _kernel_words(seeds, count):
    """``mt_words`` over seeds sharing their bits above 64."""
    high = seeds[0] >> 64
    assert all(s >> 64 == high for s in seeds)
    low = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning
        return mt_words(high, low, count)


def _scalar_ordinals(population, ranks):
    index = {id(path): i for i, path in enumerate(population.hierarchy.paths)}
    return np.array([index[id(population.path_for_rank(int(r)))] for r in ranks])


def _scalar_hot(population, top_n):
    seen = {}
    for rank in range(1, top_n + 1):
        for cert in population.path_for_rank(rank).ica_certificates():
            seen.setdefault(cert.fingerprint(), cert)
    return list(seen.values())


def _check_ranks(population, ranks):
    ranks = np.asarray(ranks)
    assert population.path_ordinals(ranks).tolist() == _scalar_ordinals(
        population, ranks
    ).tolist()


class TestMTWords:
    @given(seed=st.integers(min_value=-(2**200), max_value=2**200))
    @example(seed=0)
    @example(seed=1)
    @example(seed=2**32 - 1)
    @example(seed=2**32)
    @example(seed=2**63 + 5)
    @example(seed=2**64 + 7)  # three-word key
    @example(seed=2**64)
    @example(seed=-5)
    @example(seed=-(2**64))  # negative, low 64 bits all zero
    @example(seed=-(2**32))
    @settings(max_examples=60, deadline=None)
    def test_first_words_match_stdlib(self, seed):
        assert _kernel_words([seed], 16)[:, 0].tolist() == _stdlib_words(seed, 16)

    @given(
        high=st.sampled_from([0, 1, 2**40, -1, -2, -(2**40)]),
        lows=st.lists(
            st.one_of(
                st.integers(0, 2**32 - 1),
                st.integers(0, _MASK64),
                st.sampled_from([0, 1, 2**32, _MASK64]),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_key_lengths_in_one_batch(self, high, lows):
        """One batch mixes one- and two-word keys (and, below zero, the
        carry of ``abs``), as a population batch does."""
        seeds = [(high << 64) + low for low in lows]
        words = _kernel_words(seeds, 5)
        for column, seed in enumerate(seeds):
            assert words[:, column].tolist() == _stdlib_words(seed, 5)

    def test_last_supported_word(self):
        seeds = [3, 2**33 + 1]
        words = _kernel_words(seeds, 227)
        for column, seed in enumerate(seeds):
            assert words[:, column].tolist() == _stdlib_words(seed, 227)

    @pytest.mark.parametrize("count", [0, 228])
    def test_count_outside_untwisted_words_rejected(self, count):
        with pytest.raises(ValueError):
            mt_words(0, np.array([1], dtype=np.uint64), count)


@pytest.mark.parametrize("seed", [0, 11, 23, 47, 2**31 - 1])
def test_path_ordinals_match_scalar_spec(seed):
    population = ICAPopulation(PopulationConfig(seed=seed))
    rng = np.random.default_rng(seed)
    ranks = np.concatenate(
        [np.arange(1, 20_001), rng.integers(1, population.ranking.size + 1, 2_000)]
    )
    _check_ranks(population, ranks)


@pytest.mark.parametrize(
    "overrides",
    [
        {"tail_uniform_share": 0.0},
        {"tail_uniform_share": 1.0},
        {"hot_rank_threshold": 0},
        {"num_roots": 1},
        {"universe_icas": 3, "num_roots": 2},
    ],
    ids=["tail-share-0", "tail-share-1", "no-head", "one-root", "empty-depths"],
)
def test_path_ordinals_match_scalar_spec_on_every_branch(overrides, monkeypatch):
    population = ICAPopulation(PopulationConfig(seed=5, **overrides))
    counts, served = [], []

    def spy(high, low, count):
        counts.append(count)
        return mt_words(high, low, count)

    spec = ICAPopulation.path_for_rank

    def fallback(self, rank):
        served.append(rank)
        return spec(self, rank)

    monkeypatch.setattr(population_module, "mt_words", spy)
    ranks = np.concatenate([np.arange(1, 12_001), np.arange(400_000, 404_000)])
    with monkeypatch.context() as patch:
        patch.setattr(ICAPopulation, "path_for_rank", fallback)
        population.path_ordinals(ranks)  # fills the memo _check_ranks reads
    _check_ranks(population, ranks)
    assert max(counts) == 8  # one kernel call per salt, no redraw
    if overrides.get("num_roots") == 1:
        # randrange(1) rejects half its words: some ranks reject all 8
        # and the scalar spec serves them.
        assert len(served) >= 1
    if "universe_icas" in overrides:
        depths = population._paths_by_depth
        assert any(not depths.get(d) for d in range(1, 5))
        assert population._available_depth(4) < 4


def test_path_ordinals_memo_and_shapes():
    population = ICAPopulation(PopulationConfig(seed=3))
    ranks = np.array([[7, 900_000, 7], [1, 2, 900_000]])
    first = population.path_ordinals(ranks)
    assert first.shape == ranks.shape and first.dtype == np.int64
    assert first.tolist() == _scalar_ordinals(population, ranks.ravel()).reshape(2, 3).tolist()
    assert population.path_ordinals(ranks[::-1]).tolist() == first[::-1].tolist()
    assert population.path_ordinals(np.array([], dtype=np.int64)).size == 0
    for bad in (0, population.ranking.size + 1):
        with pytest.raises(ConfigurationError):
            population.path_ordinals(np.array([5, bad]))


@pytest.mark.parametrize("seed,top_n", [(0, 10_000), (23, 3_000)])
def test_hot_ica_certificates_match_scalar_scan(seed, top_n):
    population = ICAPopulation(PopulationConfig(seed=seed))
    got = [c.fingerprint() for c in population.hot_ica_certificates(top_n)]
    assert got == [c.fingerprint() for c in _scalar_hot(population, top_n)]


def test_month_view_keeps_its_own_memos():
    """A crawl under another month's mix must neither read nor poison the
    original population's per-rank memos (and vice versa)."""
    population = ICAPopulation(PopulationConfig(seed=2))
    top_n, month = 2_000, "Jan. '22"
    ranks = np.arange(1, top_n + 1)
    population.path_ordinals(ranks)  # warm the original's memos first
    population.hot_ica_certificates(top_n)
    view = _with_month(population, month)
    moved = [
        r
        for r in range(1, top_n + 1)
        if view.path_for_rank(r).ica_certificates()
        != population.path_for_rank(r).ica_certificates()
    ]
    assert moved, "the two mixes should assign some rank differently"
    population.credential_for_rank(moved[0])

    stats = crawl_top_domains(population, month, num_domains=top_n)
    scalar_depths = [min(view.path_for_rank(r).depth, 4) for r in range(1, top_n + 1)]
    assert stats.share(0) == scalar_depths.count(0) / top_n
    assert stats.unique_icas == len(_scalar_hot(view, top_n))

    for pop in (view, population):
        _check_ranks(pop, ranks)
        assert [c.fingerprint() for c in pop.hot_ica_certificates(top_n)] == [
            c.fingerprint() for c in _scalar_hot(pop, top_n)
        ]
        for rank in moved[:3]:
            chain = pop.credential_for_rank(rank).chain
            assert list(chain.intermediates) == pop.path_for_rank(rank).ica_certificates()


def _scalar_monthly(ranking, ranks, month, churn=0.02):
    return [ranking.monthly_rank(int(r), month, churn) for r in ranks]


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1, 2**40 + 3, 2**90, -7, -(2**70)])
@pytest.mark.parametrize("month", [0, 1, 5])
def test_monthly_ranks_match_scalar_spec(seed, month):
    ranking = DomainRanking(seed=seed)
    rng = np.random.default_rng(abs(seed) % 2**32)
    ranks = np.concatenate(
        [np.arange(1, 3_001), rng.integers(1, ranking.size + 1, 1_000), [ranking.size]]
    )
    got = ranking.monthly_ranks(ranks, month)
    assert got.dtype == np.int64
    assert got.tolist() == _scalar_monthly(ranking, ranks, month)


def test_monthly_ranks_fall_back_to_the_scalar_spec(monkeypatch):
    """Ranks whose ``randrange`` rejects every word drawn (forced here
    with one word per rank) and spans beyond 32 bits take the scalar
    spec, and agree with it; so do clipped jitters in a small ranking."""
    monkeypatch.setattr(tranco_module, "_JITTER_WORDS", 1)
    ranking = DomainRanking(size=2_000, seed=3)
    ranks = np.arange(1, 2_001)
    for churn in (0.02, 0.5, 3.0):
        assert ranking.monthly_ranks(ranks, 2, churn).tolist() == _scalar_monthly(
            ranking, ranks, 2, churn
        )
    huge = DomainRanking(size=2**45, seed=-11)
    ranks = np.array([1, 2, 2**31, 2**33 + 5, 2**44, 2**45])
    assert huge.monthly_ranks(ranks, 4, 1.0).tolist() == _scalar_monthly(
        huge, ranks, 4, 1.0
    )
    assert ranking.monthly_ranks(np.array([], dtype=np.int64), 3).size == 0

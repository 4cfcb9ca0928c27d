"""Shared fixtures for the repro test suite.

Fixture *source* lives in ``tests/_fixtures.py`` and is shared with
``benchmarks/conftest.py``, so tests and benchmarks can never diverge on
population/chain input data; this file only adapts it to pytest.
"""

import contextlib

import pytest

from repro.runtime.artifacts import ContentCache
from tests._fixtures import (
    make_items as _make_items,
    make_paper_params,
    make_rng,
    reduced_population_config,
    shared_population,
)

make_items = _make_items  # re-export (historical helper import site)


@pytest.fixture
def rng():
    """Deterministic RNG; tests must not depend on global random state."""
    return make_rng()


@pytest.fixture
def items_245(rng):
    """The paper's working-set size: 245 distinct ICA identifiers."""
    return make_items(rng, 245)


@pytest.fixture
def paper_params():
    """Canonical (wire-quantized) params matching §5.3: 245 ICAs,
    0.1% FPP, 0.9 load factor."""
    return make_paper_params()


@pytest.fixture(scope="session")
def reduced_population():
    """The small shared PKI the cohort tests (and the cohort benchmark's
    equivalence smoke) run against; memoized process-wide."""
    return shared_population(reduced_population_config())


@pytest.fixture
def bypass_artifact_caches(monkeypatch):
    """A context manager under which every artifact cache misses and
    stores nothing — the cold path a test compares a cached run against."""

    def miss(self, key):
        self.misses += 1
        return None

    @contextlib.contextmanager
    def bypass():
        with monkeypatch.context() as patch:
            patch.setattr(ContentCache, "get", miss)
            patch.setattr(ContentCache, "put", lambda self, key, value: None)
            yield

    return bypass

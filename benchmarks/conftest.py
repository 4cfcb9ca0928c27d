"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper artifact and prints the same
rows/series the paper reports (run with ``pytest benchmarks/
--benchmark-only -s`` to see the tables). Set ``REPRO_FULL=1`` to run the
experiments at full paper scale (10 users x 4,200 destination draws,
10K-domain crawls); the default is a reduced scale that keeps the whole harness
under a few minutes.

Fixture *source* is shared with the test suite through
``tests/_fixtures.py`` — population/chain setup here and in tests comes
from the same functions by construction.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from tests._fixtures import (  # noqa: E402
    POPULATION_SEED,
    benchmark_scale,
    full_scale,
    shared_population,
)

assert POPULATION_SEED == 1  # the seed the benchmark floors were measured at


@pytest.fixture(scope="session")
def population():
    """One shared synthetic PKI population for all benchmarks."""
    return shared_population()


@pytest.fixture(scope="session")
def scale():
    return benchmark_scale()

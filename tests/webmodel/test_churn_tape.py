"""One world tape per trial: replaying a recorded tape is invisible.

The staleness levels of one trial differ only in
``payload_refresh_every``, which the world never reads, so an engine
memo (:class:`~repro.webmodel.churn_columnar.ChurnMemo`) hands them one
:class:`~repro.webmodel.churn.WorldTape`: the first level to reach a
step advances the world and records the step's frame, every other level
replays it.  Each level run on a shared memo must equal its solo run —
a fresh tape of its own — as a whole ``ChurnCohortResult`` (every
``StepMetrics`` and the event stream, preload-refresh entries included)
with equal deterministic counters, whether it records the tape or
replays one another level recorded in full.
"""

import pytest

from repro import obs
from repro.webmodel.churn import ChurnConfig
from repro.webmodel.churn_columnar import (
    ChurnCohortConfig,
    ChurnMemo,
    run_churn_cohort,
)

LEVELS = (1, 2, 4, 8)
STEPS = 10


def _config(level, distribution, filter_kind):
    return ChurnCohortConfig(
        world=ChurnConfig(
            steps=STEPS,
            num_sites=6,
            ica_validity_steps=8,
            payload_refresh_every=level,
            distribution=distribution,
            filter_kind=filter_kind,
            seed=7,
        ),
        num_clients=12,
        handshakes_per_client=2,
    )


def _run(config, memo=None):
    with obs.scoped() as reg:
        result = run_churn_cohort(config, memo)
        counters = {
            k: v
            for k, v in reg.snapshot()["counters"].items()
            if not k[0].startswith("runtime.artifacts.")
        }
    return result, counters


@pytest.mark.parametrize("filter_kind", ["cuckoo", "xor"])
@pytest.mark.parametrize("distribution", ["full", "delta"])
@pytest.mark.parametrize("levels", [LEVELS, LEVELS[::-1]], ids=["ascending", "descending"])
def test_levels_on_one_memo_equal_their_solo_runs(levels, distribution, filter_kind):
    memo = ChurnMemo()
    shared = [_run(_config(level, distribution, filter_kind), memo) for level in levels]
    (tape,) = memo.tapes.values()
    assert len(tape.frames) == STEPS
    solo = [_run(_config(level, distribution, filter_kind)) for level in levels]
    for level, (result, counters), (alone, alone_counters) in zip(levels, shared, solo):
        assert result == alone, level
        assert counters == alone_counters, level
    results = [result for result, _ in shared]
    kinds = {kind for _, kind, _ in results[0].events}
    assert {"revoke", "rotate", "preload-refresh"} <= kinds
    assert any(r.fp_retries for r in results)

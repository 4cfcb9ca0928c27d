"""The churn staleness sweep: parallel equality, reporting, JSON doc."""

import dataclasses
import json

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.runtime import artifacts
from repro.experiments.churn import (
    ChurnCellResult,
    ChurnExperimentConfig,
    _cell_config,
    churn_json_doc,
    format_churn,
    run_churn_experiment,
)
from repro.webmodel import churn, churn_columnar
from repro.webmodel.churn import ChurnConfig

_SMALL = ChurnExperimentConfig(
    staleness_levels=(1, 4),
    trials=2,
    base=ChurnConfig(steps=6, num_sites=6),
    clients=12,
    handshakes_per_client=2,
)


def _deterministic_counters():
    return {
        k: v
        for k, v in obs.snapshot()["counters"].items()
        if not k[0].startswith("runtime.artifacts.")
    }


@pytest.fixture(scope="module")
def results():
    return run_churn_experiment(_SMALL, jobs=1)


class TestParallelEquality:
    def test_jobs_two_matches_serial(self, results):
        parallel = run_churn_experiment(_SMALL, jobs=2)
        assert parallel == results

    def test_metered_serial_matches_metered_parallel(self):
        obs.disable()
        try:
            obs.enable()
            serial = run_churn_experiment(_SMALL, jobs=1)
            serial_counters = _deterministic_counters()
            obs.disable()
            obs.enable()
            parallel = run_churn_experiment(_SMALL, jobs=2)
            parallel_counters = _deterministic_counters()
            assert parallel == serial
            assert parallel_counters == serial_counters
        finally:
            obs.disable()

    def test_json_doc_is_jobs_invariant(self, results):
        parallel = run_churn_experiment(_SMALL, jobs=2)
        serial_doc = json.dumps(churn_json_doc(_SMALL, results), sort_keys=True)
        parallel_doc = json.dumps(churn_json_doc(_SMALL, parallel), sort_keys=True)
        assert serial_doc == parallel_doc


class TestTraceMemo:
    """One TLS handshake per distinct context per trial: the memo is
    shared by the levels of a work item, which is one trial's levels
    when there are at least as many trials as workers, and lives for
    exactly one item."""

    @staticmethod
    def _count_handshakes(monkeypatch):
        real = churn_columnar.run_handshake
        calls = []

        def counting(client_config, server_config):
            calls.append(1)
            return real(client_config, server_config)

        monkeypatch.setattr(churn_columnar, "run_handshake", counting)
        return calls

    def test_back_to_back_calls_both_reach_the_tls_machine(self, monkeypatch):
        calls = self._count_handshakes(monkeypatch)
        per_call = []
        for _ in range(2):
            before = len(calls)
            run_churn_experiment(_SMALL, jobs=1)
            per_call.append(len(calls) - before)
        assert per_call[0] > 0
        assert per_call[1] == per_call[0]

    def test_levels_of_a_trial_share_their_traces(self, monkeypatch):
        calls = self._count_handshakes(monkeypatch)
        config = dataclasses.replace(_SMALL, trials=1, staleness_levels=(1, 2, 4))
        for level in config.staleness_levels:
            churn_columnar.run_churn_cohort(
                churn_columnar.ChurnCohortConfig(
                    world=_cell_config(config, level, 0),
                    num_clients=config.clients,
                    handshakes_per_client=config.handshakes_per_client,
                )
            )
        alone = len(calls)
        del calls[:]
        run_churn_experiment(config, jobs=1)
        assert 0 < len(calls) < alone

    def test_one_handshake_per_site_length_and_hit(self, monkeypatch):
        """The memo keys a context on what the trace reads from the
        payload — its length and the chain's probe hit — so one trial
        never runs two handshakes for one (step, cache, site, length,
        hit), and runs fewer than it has distinct advertised payloads."""
        real_stats = churn_columnar.ChurnCohortEngine._context_stats
        real_handshake = churn_columnar.run_handshake
        current, payload_contexts, handshake_keys = [], set(), []

        def recording_stats(
            engine, traces, step, client, slot, site_index, payload, hit
        ):
            digest = artifacts.items_digest(engine.state.cache.fingerprints())
            payload_contexts.add((step, site_index, payload))
            current[:] = [(step, digest, site_index, len(payload), hit)]
            return real_stats(
                engine, traces, step, client, slot, site_index, payload, hit
            )

        def recording_handshake(client_config, server_config):
            handshake_keys.append(current[0])
            return real_handshake(client_config, server_config)

        monkeypatch.setattr(
            churn_columnar.ChurnCohortEngine, "_context_stats", recording_stats
        )
        monkeypatch.setattr(churn_columnar, "run_handshake", recording_handshake)
        run_churn_experiment(dataclasses.replace(_SMALL, trials=1), jobs=1)
        assert handshake_keys
        assert len(set(handshake_keys)) == len(handshake_keys)
        assert len(handshake_keys) < len(payload_contexts)

    def test_one_world_per_trial(self, monkeypatch):
        """The levels of a trial replay one world tape: a serial sweep
        builds one ChurnWorld per trial and advances it once per step,
        not once per (level, trial) cell."""
        real_init, real_advance = churn.ChurnWorld.__init__, churn.ChurnWorld.advance
        builds, advances = [], []

        def counting_init(world, config):
            builds.append(config.seed)
            real_init(world, config)

        def counting_advance(world, step):
            advances.append(step)
            return real_advance(world, step)

        monkeypatch.setattr(churn.ChurnWorld, "__init__", counting_init)
        monkeypatch.setattr(churn.ChurnWorld, "advance", counting_advance)
        run_churn_experiment(_SMALL, jobs=1)
        assert len(builds) == _SMALL.trials
        assert len(set(builds)) == _SMALL.trials
        assert len(advances) == _SMALL.trials * _SMALL.base.steps

    @pytest.mark.parametrize("trials", [1, 3])
    def test_uneven_trial_sharding_is_jobs_invariant(self, trials):
        # trials=1 < 2 workers maps one cell per item; trials=3 maps one
        # trial's levels per item and does not divide evenly by 2.
        config = dataclasses.replace(
            _SMALL, trials=trials, staleness_levels=(1, 2, 4)
        )
        obs.disable()
        try:
            obs.enable()
            serial = run_churn_experiment(config, jobs=1)
            serial_counters = _deterministic_counters()
            obs.disable()
            obs.enable()
            parallel = run_churn_experiment(config, jobs=2)
            parallel_counters = _deterministic_counters()
        finally:
            obs.disable()
        assert [(c.level, c.trial) for c in parallel] == [
            (level, trial) for level in (1, 2, 4) for trial in range(trials)
        ]
        assert json.dumps(churn_json_doc(config, parallel), sort_keys=True) == (
            json.dumps(churn_json_doc(config, serial), sort_keys=True)
        )
        assert parallel_counters == serial_counters

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_level_list_returns_no_cells(self, jobs):
        config = dataclasses.replace(_SMALL, staleness_levels=())
        assert run_churn_experiment(config, jobs=jobs) == []


class TestSweepShape:
    def test_cells_ordered_by_level_then_trial(self, results):
        assert [(c.level, c.trial) for c in results] == [
            (level, trial)
            for level in _SMALL.staleness_levels
            for trial in range(_SMALL.trials)
        ]

    def test_trials_reseed_but_levels_share_the_event_stream(self):
        base = _SMALL.base
        assert (
            _cell_config(_SMALL, 1, 0).seed == _cell_config(_SMALL, 4, 0).seed
        )
        assert _cell_config(_SMALL, 1, 0).seed != _cell_config(_SMALL, 1, 1).seed
        assert _cell_config(_SMALL, 4, 1).payload_refresh_every == 4
        assert _cell_config(_SMALL, 4, 1).steps == base.steps

    def test_staleness_degrades_fp_retry_rate(self, results):
        by_level = {}
        for c in results:
            by_level.setdefault(c.level, []).append(c)
        rate = {
            level: sum(c.fp_retries + c.fallbacks for c in cells)
            / sum(c.handshakes for c in cells)
            for level, cells in by_level.items()
        }
        assert rate[4] > rate[1]

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            run_churn_experiment(
                ChurnExperimentConfig(trials=0, base=_SMALL.base)
            )

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            run_churn_experiment(
                dataclasses.replace(_SMALL, engine="quantum")
            )


class TestEngineEquality:
    def test_scalar_engine_matches_columnar(self, results):
        scalar = run_churn_experiment(
            dataclasses.replace(_SMALL, engine="scalar"), jobs=1
        )
        assert scalar == results

    def test_json_doc_is_engine_invariant(self, results):
        scalar = run_churn_experiment(
            dataclasses.replace(_SMALL, engine="scalar"), jobs=1
        )
        columnar_doc = json.dumps(churn_json_doc(_SMALL, results), sort_keys=True)
        scalar_doc = json.dumps(
            churn_json_doc(dataclasses.replace(_SMALL, engine="scalar"), scalar),
            sort_keys=True,
        )
        assert columnar_doc == scalar_doc


class TestDegenerateSweep:
    """Zero-epoch cells must report, not crash (the --steps 0 regression:
    rate denominators and the reporting table are all zero-handshake)."""

    _EMPTY = dataclasses.replace(
        _SMALL, base=dataclasses.replace(_SMALL.base, steps=0)
    )

    @pytest.fixture(scope="class")
    def empty_results(self):
        return run_churn_experiment(self._EMPTY, jobs=1)

    def test_cells_report_zero_rates(self, empty_results):
        assert len(empty_results) == 4
        for cell in empty_results:
            assert cell.handshakes == 0
            assert cell.fp_retry_rate == 0.0
            assert cell.suppression_rate == 0.0
            assert cell.stale_rate == 0.0

    def test_format_and_doc_survive_zero_handshakes(self, empty_results):
        text = format_churn(empty_results)
        assert len(text.splitlines()) == 2 + len(self._EMPTY.staleness_levels)
        doc = churn_json_doc(self._EMPTY, empty_results)
        for level in self._EMPTY.staleness_levels:
            curve = doc["curves"][str(level)]
            assert curve["fp_retry_rate"] == 0.0
            assert curve["per_step_fp_retry_rate"] == []


class TestCacheCounters:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_full_sweep_hits_the_build_and_probe_caches(self, jobs):
        """The levels of a trial capture and probe the same cache states,
        so a full-distribution sweep from cold caches must hit both; the
        exported counters carry the pool workers' lookups too."""
        config = dataclasses.replace(
            _SMALL, base=dataclasses.replace(_SMALL.base, distribution="full")
        )
        artifacts.clear()
        obs.disable()
        try:
            obs.enable()
            run_churn_experiment(config, jobs=jobs)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        for cache in ("filter_builds", "churn_probes"):
            hits = counters.get(("runtime.artifacts.hits", (("cache", cache),)), 0)
            assert hits > 0, cache


class TestReporting:
    def test_format_has_one_row_per_level(self, results):
        text = format_churn(results)
        lines = text.splitlines()
        assert "FP-retry %" in lines[1]
        assert len(lines) == 2 + len(_SMALL.staleness_levels)

    def test_json_doc_schema_and_curves(self, results):
        doc = churn_json_doc(_SMALL, results)
        assert doc["schema"] == "repro.churn/v1"
        assert doc["staleness_levels"] == list(_SMALL.staleness_levels)
        assert len(doc["cells"]) == len(results)
        for level in _SMALL.staleness_levels:
            curve = doc["curves"][str(level)]
            assert len(curve["per_step_fp_retry_rate"]) == _SMALL.base.steps
            assert 0.0 <= curve["fp_retry_rate"] <= 1.0

    def test_cell_rate_properties(self):
        cell = ChurnCellResult(
            level=1,
            trial=0,
            handshakes=10,
            completed=9,
            fp_retries=2,
            fallbacks=1,
            failures=1,
            stale_advertised=5,
            icas_encountered=8,
            icas_suppressed=6,
            wire_bytes=100,
            distribution_bytes=64,
            events=3,
            fp_retry_curve=(0.0, 0.5),
        )
        assert cell.fp_retry_rate == pytest.approx(0.3)
        assert cell.suppression_rate == pytest.approx(0.75)
        assert cell.stale_rate == pytest.approx(0.5)

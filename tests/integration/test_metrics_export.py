"""End-to-end observability: Fig. 5 metrics, export, determinism.

These tests drive the real engines with the registry enabled and check
the three contracts the metrics layer promises:

* merged counters are identical for serial and sharded runs (the
  columnar cohort engine at ``jobs=1`` vs ``jobs=2``);
* the export validates against the checked-in ``repro.obs/v1`` schema
  (both in-process and through the CLI's ``--metrics-out``);
* the numbers are *true*: the Fig. 5 FP rate tracks the configured
  filter eps, the byte-savings counters reproduce what the Fig. 5 result
  objects report, and the per-handshake TLS machine (the cohort's scalar
  reference) closes its handshake accounting on warm artifact caches.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.experiments import fig5
from repro.obs.export import deterministic_counters, to_json_doc
from repro.obs.schema import validation_errors
from repro.runtime import artifacts
from repro.webmodel.cohort import CohortConfig, CohortEngine, run_cohort
from repro.webmodel.cohort_reference import run_cohort_reference
from repro.webmodel.population import PopulationConfig

#: A small Fig. 5 run (two sessions).
CONFIG = fig5.fig5_config(users=2, draws=800, seed=3)
#: A small cohort at a loose fpp, so false-positive retries occur.
COHORT = CohortConfig(
    num_users=48,
    handshakes_per_user=5,
    fpp=0.05,
    population=PopulationConfig(seed=3),
    block_users=16,
)


@pytest.fixture(autouse=True)
def _clean_state():
    obs.disable()
    yield
    obs.disable()


def _metered(run):
    """Call ``run`` on a fresh registry; returns (result, snapshot)."""
    obs.disable()
    obs.enable()
    result = run()
    snap = obs.snapshot()
    obs.disable()
    return result, snap


@pytest.fixture(scope="module")
def sessions():
    """A metered Fig. 5 cohort run: (engine, result, registry snapshot).

    The engine is built *before* the registry turns on: construction
    cost depends on process-global artifact-cache state, which the
    run-phase metrics do not describe.
    """
    obs.disable()
    engine = CohortEngine(CONFIG)
    return (engine, *_metered(engine.run))


@pytest.fixture(scope="module")
def cohort_arms():
    """The cohort engine, serial and sharded: {arm: (result, snapshot)}."""
    return {
        "serial": _metered(lambda: run_cohort(COHORT, jobs=1)),
        "parallel": _metered(lambda: run_cohort(COHORT, jobs=2)),
    }


@pytest.fixture(scope="module")
def reference():
    """The cohort's scalar per-handshake reference, run twice over one
    cleared artifact cache: (result, snapshot of the warm second run)."""
    obs.disable()
    artifacts.clear()
    run_cohort_reference(COHORT)
    return _metered(lambda: run_cohort_reference(COHORT))


class TestSerialParallelDeterminism:
    def test_results_identical(self, cohort_arms):
        serial_result, _ = cohort_arms["serial"]
        parallel_result, _ = cohort_arms["parallel"]
        assert serial_result == parallel_result

    def test_merged_deterministic_counters_identical(self, cohort_arms):
        serial = deterministic_counters(cohort_arms["serial"][1])
        parallel = deterministic_counters(cohort_arms["parallel"][1])
        assert serial == parallel
        assert serial["webmodel.cohort.handshakes{}"] > 0

    def test_histogram_counts_match_across_arms(self, cohort_arms):
        # Span histograms carry nondeterministic *timings* but the event
        # counts they accumulated must match exactly.
        counts = {}
        for arm, (_, snap) in cohort_arms.items():
            counts[arm] = {
                key: state[0] for key, state in snap["histograms"].items()
            }
        assert counts["serial"] == counts["parallel"]


class TestMetricsTellTheTruth:
    def test_export_is_schema_valid(self, sessions):
        assert validation_errors(to_json_doc(sessions[2])) == []

    def test_fp_retry_rate_tracks_configured_eps(self, sessions):
        engine, result, snap = sessions
        flat = deterministic_counters(snap)
        false_positives = flat.get("webmodel.cohort.false_positives{}", 0)
        # Negative queries against the filter: every ICA of a handshake's
        # path that the preload cache does not hold.
        probes = 0
        for block in engine.blocks():
            draw = engine.draw_block(block)
            probes += int(engine.facts.unknown[draw.ordinals[draw.first]].sum())
        assert probes > 0
        # The counter is the cohort-level false-positive total.
        assert false_positives == result.stats.false_positives
        # The observed rate stays within a generous binomial envelope of
        # the configured lookup fpp (small-sample slack of 5 events).
        assert false_positives / probes <= CONFIG.fpp * 10 + 5 / probes

    def test_byte_savings_counters_match_results(self, sessions):
        _, result, snap = sessions
        flat = deterministic_counters(snap)
        stats = result.stats
        assert flat["webmodel.cohort.icas_encountered{}"] == stats.icas_encountered
        assert flat["webmodel.cohort.icas_sent_total{}"] == stats.icas_sent_total
        suppressed_first = flat["webmodel.cohort.icas_suppressed_first{}"]
        assert suppressed_first == stats.icas_suppressed_first
        # The paper's headline: most encountered ICAs get suppressed.
        assert suppressed_first / flat["webmodel.cohort.icas_encountered{}"] > 0.5

    def test_handshake_accounting_is_closed(self, reference):
        result, snap = reference
        flat = deterministic_counters(snap)
        runs = flat["tls.handshake.runs{}"]
        attempts = flat["tls.handshake.attempts{}"]
        retries = sum(
            v for k, v in flat.items() if k.startswith("tls.handshake.retries{")
        )
        outcomes = sum(
            v for k, v in flat.items() if k.startswith("tls.handshake.outcomes{")
        )
        assert outcomes == runs == result.stats.handshakes
        assert attempts == runs + retries
        assert retries == result.stats.retries > 0

    def test_fig5_gauges_match_result_rows(self, sessions):
        _, result, _ = sessions
        obs.disable()
        reg = obs.enable()
        volume = fig5.data_volume(result)
        for row in volume.rows:
            labels = (("algorithm", row.algorithm),)
            assert reg.gauge("experiments.fig5.mb_saved", labels) == pytest.approx(
                row.mb_saved
            )
        assert reg.gauge("experiments.fig5.mean_reduction") == pytest.approx(
            volume.mean_reduction
        )

    @pytest.mark.usefixtures("reference")
    def test_warm_artifact_caches_have_nonzero_hit_ratio(self):
        # The reference fixture ran the same cohort twice over one
        # population, so the content-keyed caches must be warm by the end.
        stats = artifacts.stats()
        for cache in (
            "signature_bytes", "verified_chains", "tbs_pads", "der_fragments"
        ):
            hits = stats[cache]["hits"]
            total = hits + stats[cache]["misses"]
            assert total > 0
            assert hits / total > 0.2, f"{cache} hit ratio too low"


class TestCliMetricsOut:
    def test_json_export_schema_valid(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(
            ["fig5-left", "--users", "1", "--handshakes-per-user", "40",
             "--metrics-out", str(out)]
        ) == 0
        assert not obs.enabled()  # CLI restores the disabled default
        doc = json.loads(out.read_text())
        assert validation_errors(doc) == []
        names = {entry["name"] for entry in doc["counters"]}
        assert "webmodel.cohort.handshakes" in names
        assert "amq.ops" in names
        gauge_names = {entry["name"] for entry in doc["gauges"]}
        assert "runtime.artifacts.cache_hits" in gauge_names
        assert "[metrics: json export written to" in capsys.readouterr().err

    def test_prometheus_export_by_extension(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert main(
            ["fig5-left", "--users", "1", "--handshakes-per-user", "40",
             "--metrics-out", str(out)]
        ) == 0
        text = out.read_text()
        assert "# TYPE webmodel_cohort_handshakes_total counter" in text
        assert "[metrics: prometheus export written to" in capsys.readouterr().err

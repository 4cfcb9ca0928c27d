"""Exporters and the checked-in schema: JSON, Prometheus, validation."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.export import (
    deterministic_counters,
    to_json_doc,
    to_json_text,
    to_prometheus_text,
    write_metrics,
)
from repro.obs.schema import load_schema, validate_export, validation_errors


@pytest.fixture
def sample_snapshot():
    reg = MetricsRegistry()
    reg.inc("tls.handshake.runs", 7)
    reg.inc("amq.ops", 42, (("backend", "cuckoo"), ("op", "insert")))
    reg.inc("runtime.artifacts.hits", 3, (("cache", "staples"),))
    reg.inc("webmodel.churn.steps", 24)
    reg.inc("webmodel.churn.handshakes", 192)
    reg.inc("webmodel.churn.icas_revoked", 9)
    reg.inc("webmodel.churn.stale_retries", 4)
    reg.inc("webmodel.churn.fallbacks", 1)
    reg.inc("amq.delta.full_messages", 6)
    reg.inc("amq.delta.snapshot_fallbacks", 5, (("reason", "patch_larger"),))
    reg.inc("amq.delta.snapshot_fallbacks", 1, (("reason", "base_too_wide"),))
    reg.inc("webmodel.cohort.users", 40)
    reg.inc("webmodel.cohort.handshakes", 228)
    reg.inc("webmodel.cohort.session_reuse", 12)
    reg.inc("webmodel.cohort.retries", 21, (("cause", "server-fp"),))
    reg.inc("webmodel.cohort.false_positives", 21)
    reg.inc("webmodel.cohort.icas_suppressed_first", 220)
    reg.inc("webmodel.cohort.divergent_users", 16)
    reg.set_gauge("experiments.fig5.mean_reduction", 0.73)
    reg.observe("tls.server.flight.seconds", 0.5)
    reg.observe("tls.server.flight.seconds", 1.5)
    reg.observe(
        "webmodel.churn.run.seconds", 2.25, (("filter", "cuckoo"),)
    )
    return reg.snapshot()


class TestJsonExport:
    def test_doc_matches_schema(self, sample_snapshot):
        validate_export(to_json_doc(sample_snapshot))  # does not raise

    def test_entries_are_sorted_and_flat(self, sample_snapshot):
        doc = to_json_doc(sample_snapshot)
        names = [e["name"] for e in doc["counters"]]
        assert names == sorted(names)
        assert doc["gauges"] == [
            {
                "name": "experiments.fig5.mean_reduction",
                "labels": {},
                "value": 0.73,
            }
        ]
        flight, churn = (
            h
            for h in doc["histograms"]
            if h["name"]
            in ("tls.server.flight.seconds", "webmodel.churn.run.seconds")
        )
        assert flight["count"] == 2
        assert flight["sum"] == pytest.approx(2.0)
        assert (flight["min"], flight["max"]) == (0.5, 1.5)
        assert churn["labels"] == {"filter": "cuckoo"}

    def test_equal_registries_export_byte_identical_text(self, sample_snapshot):
        # The serial-vs-parallel CI check diffs files, so text must be stable.
        assert to_json_text(sample_snapshot) == to_json_text(sample_snapshot)
        round_tripped = json.loads(to_json_text(sample_snapshot))
        assert round_tripped == to_json_doc(sample_snapshot)


class TestPrometheusExport:
    def test_counter_rendering(self, sample_snapshot):
        text = to_prometheus_text(sample_snapshot)
        assert "# TYPE tls_handshake_runs_total counter" in text
        assert "tls_handshake_runs_total 7" in text
        assert 'amq_ops_total{backend="cuckoo",op="insert"} 42' in text

    def test_histogram_summary_rendering(self, sample_snapshot):
        text = to_prometheus_text(sample_snapshot)
        assert "tls_server_flight_seconds_count 2" in text
        assert "tls_server_flight_seconds_sum 2.0" in text

    def test_labelled_delta_fallback_rendering(self, sample_snapshot):
        text = to_prometheus_text(sample_snapshot)
        assert "amq_delta_full_messages_total 6" in text
        assert (
            'amq_delta_snapshot_fallbacks_total{reason="patch_larger"} 5'
            in text
        )

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.inc("c", 1, (("k", 'a"b\\c\nd'),))
        text = to_prometheus_text(reg.snapshot())
        assert 'c_total{k="a\\"b\\\\c\\nd"} 1' in text


class TestWriteMetrics:
    def test_extension_dispatch(self, tmp_path, sample_snapshot):
        json_path = tmp_path / "m.json"
        prom_path = tmp_path / "m.prom"
        assert write_metrics(str(json_path), sample_snapshot) == "json"
        assert write_metrics(str(prom_path), sample_snapshot) == "prometheus"
        validate_export(json.loads(json_path.read_text()))
        assert "# TYPE" in prom_path.read_text()


class TestDeterministicCounters:
    def test_excludes_artifact_cache_counters(self, sample_snapshot):
        flat = deterministic_counters(sample_snapshot)
        assert "tls.handshake.runs{}" in flat
        assert not any(k.startswith("runtime.artifacts.") for k in flat)

    def test_churn_counters_are_deterministic_series(self, sample_snapshot):
        # The churn-smoke CI job compares these across --jobs values, so
        # they must be in the deterministic set, not filtered out.
        flat = deterministic_counters(sample_snapshot)
        assert flat["webmodel.churn.steps{}"] == 24
        assert flat["webmodel.churn.handshakes{}"] == 192
        assert flat["webmodel.churn.stale_retries{}"] == 4

    def test_delta_fallback_reasons_are_deterministic_series(
        self, sample_snapshot
    ):
        # The delta-smoke CI job compares these across --jobs values; the
        # reasons split full_messages, which keeps its own unlabelled row.
        flat = deterministic_counters(sample_snapshot)
        assert flat["amq.delta.full_messages{}"] == 6
        assert flat["amq.delta.snapshot_fallbacks{reason=patch_larger}"] == 5
        assert flat["amq.delta.snapshot_fallbacks{reason=base_too_wide}"] == 1

    def test_cohort_counters_are_deterministic_series(self, sample_snapshot):
        # The cohort-smoke CI job compares these across engines and
        # --jobs values, so they must survive the deterministic filter —
        # including the labelled retry-cause series.
        flat = deterministic_counters(sample_snapshot)
        assert flat["webmodel.cohort.users{}"] == 40
        assert flat["webmodel.cohort.handshakes{}"] == 228
        assert flat["webmodel.cohort.retries{cause=server-fp}"] == 21
        assert flat["webmodel.cohort.false_positives{}"] == 21
        assert flat["webmodel.cohort.divergent_users{}"] == 16

    def test_accepts_snapshot_and_doc_equally(self, sample_snapshot):
        from_snapshot = deterministic_counters(sample_snapshot)
        from_doc = deterministic_counters(to_json_doc(sample_snapshot))
        assert from_snapshot == from_doc
        assert (
            from_doc["amq.ops{backend=cuckoo,op=insert}"] == 42
        )


class TestSchemaValidator:
    def test_valid_doc_passes(self, sample_snapshot):
        assert validation_errors(to_json_doc(sample_snapshot)) == []

    def test_missing_required_key(self, sample_snapshot):
        doc = to_json_doc(sample_snapshot)
        del doc["counters"]
        assert any("counters" in e for e in validation_errors(doc))

    def test_wrong_schema_id(self, sample_snapshot):
        doc = to_json_doc(sample_snapshot)
        doc["schema"] = "repro.obs/v0"
        assert validation_errors(doc)

    def test_unexpected_property_rejected(self, sample_snapshot):
        doc = to_json_doc(sample_snapshot)
        doc["extra"] = 1
        assert any("extra" in e for e in validation_errors(doc))

    def test_wrong_entry_type_rejected(self, sample_snapshot):
        doc = to_json_doc(sample_snapshot)
        doc["counters"].append({"name": 3, "labels": {}, "value": 1})
        assert validation_errors(doc)

    def test_boolean_is_not_a_number(self, sample_snapshot):
        doc = to_json_doc(sample_snapshot)
        doc["counters"].append({"name": "b", "labels": {}, "value": True})
        assert validation_errors(doc)

    def test_histogram_count_must_be_integer(self, sample_snapshot):
        doc = to_json_doc(sample_snapshot)
        doc["histograms"][0]["count"] = 1.5
        assert validation_errors(doc)

    def test_validate_export_raises_with_paths(self):
        with pytest.raises(ValueError, match="schema"):
            validate_export({"schema": "repro.obs/v1"})

    def test_schema_file_loads(self):
        schema = load_schema()
        assert schema["properties"]["schema"]["const"] == "repro.obs/v1"

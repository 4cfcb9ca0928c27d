"""Tests of the benchmark harness (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = ledger.Recorder(clock=clock)
    # outer [0, 10] holds a [2, 6] which holds b [3, 4]; a second b [7, 9].
    timeline = [
        (0, "enter", "outer"), (2, "enter", "a"), (3, "enter", "b"), (4, "exit", None),
        (6, "exit", None), (7, "enter", "b"), (9, "exit", None), (10, "exit", None),
    ]
    for at, op, layer in timeline:
        clock.now = at
        rec.enter(layer) if op == "enter" else rec.exit()
    assert rec.self_s == {"outer": 10 - 4 - 2, "a": 4 - 1, "b": 1 + 2}
    assert rec.total_s["b"] == 3 and rec.calls["b"] == 2
    assert sum(rec.self_s.values()) == 10


def test_reconcile_adds_up_to_wall():
    rec = ledger.Recorder(clock=FakeClock())
    rec.self_s.update({"amq.probe": 1.5, "tls.handshake": 2.0, "_hooks": 0.25})
    table = ledger.reconcile(rec, wall_s=5.0)
    assert sum(table["layers"].values()) + table["unattributed_s"] == pytest.approx(5.0)
    # internal spans are not a layer: their time is unattributed
    assert table["unattributed_s"] == pytest.approx(1.5)


def test_recursive_span_is_not_double_counted():
    clock = FakeClock()
    rec = ledger.Recorder(clock=clock)
    for at, op in ((0, "enter"), (1, "enter"), (3, "exit"), (4, "exit")):
        clock.now = at
        rec.enter("x") if op == "enter" else rec.exit()
    assert rec.self_s["x"] == 4


def test_worker_time_folds_into_parallel_window():
    from repro.obs.registry import MetricsRegistry

    rec = ledger.Recorder(clock=FakeClock())
    rec.self_s["runtime.parallel_map"] = 10.0
    rec.counts["runtime.workers"] = 2
    reg = MetricsRegistry()
    reg.inc("perfbench.self_ns", 12_000_000_000, (("layer", "tls.handshake"),))
    reg.inc("perfbench.self_ns", 4_000_000_000, (("layer", "_cell"),))
    reg.inc("perfbench.calls", 7, (("layer", "tls.handshake"),))
    shipped = ledger.absorb_workers(rec, reg)
    assert shipped["busy_s"] == pytest.approx(16.0)
    assert rec.self_s["tls.handshake"] == pytest.approx(6.0)
    assert rec.self_s["runtime.parallel_map"] == pytest.approx(2.0)
    assert rec.calls["tls.handshake"] == 7
    table = ledger.reconcile(rec, wall_s=10.0)
    assert sum(table["layers"].values()) + table["unattributed_s"] == pytest.approx(10.0)


def _originals():
    return {target.path: ledger._resolve(target.path)[2] for target in ledger.TARGETS}


def _small_cohort_doc():
    from repro.webmodel.cohort import CohortConfig, cohort_json_doc, run_cohort

    config = CohortConfig(
        num_users=300, handshakes_per_user=6, fpp=0.25, payload_refresh_every=2,
        hot_top_n=200, seed=3, block_users=128,
    )
    return cohort_json_doc(run_cohort(config, jobs=1))


def _small_churn_doc(jobs):
    from repro.experiments.churn import churn_json_doc, run_churn_experiment

    config = workloads.churn_config(5, clients=24, steps=6, levels=(1, 3), trials=1)
    return churn_json_doc(config, run_churn_experiment(config, jobs=jobs))


def test_wrappers_leave_docs_byte_identical_and_uninstall_cleanly():
    from repro import obs

    before = _originals()
    plain = [_small_cohort_doc(), _small_churn_doc(jobs=1)]
    obs.enable()
    tracer = ledger.Tracer().install()
    try:
        traced = [_small_cohort_doc(), _small_churn_doc(jobs=1), _small_churn_doc(jobs=2)]
        rec = tracer.recorder
    finally:
        tracer.uninstall()
        registry = obs.registry()
        obs.disable()
    ledger.absorb_workers(rec, registry)
    as_text = lambda doc: json.dumps(doc, sort_keys=True)  # noqa: E731
    assert as_text(traced[0]) == as_text(plain[0])
    assert as_text(traced[1]) == as_text(plain[1]) == as_text(traced[2])
    assert _originals() == before
    assert rec.calls["webmodel.cohort.replay"] > 0
    assert rec.calls["tls.handshake"] > 0
    assert rec.counts["runtime.workers"] == 2


def test_names_match_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert tuple(names) == workloads.WORKLOADS
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert e2e == [name for name, _ in run.END_TO_END]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == list(run.PER_LAYER)
    for name in names + e2e + [n for n, _, _ in layer]:
        assert NAME.match(name), name
    assert len(set(names + e2e + [n for n, _, _ in layer])) == len(names) + len(e2e) + len(layer)

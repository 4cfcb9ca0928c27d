"""End-to-end benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics.  It runs repetitions of
the workload, each in a fresh interpreter (cold artifact caches, as for
a CLI user), for about ``--seconds`` (at least ``MIN_REPS``).  It then
adds a few set-up-only interpreters and reports medians.  ``--trace 1``
runs the same untraced repetitions, then one repetition with the layer
wrappers of ``ledger.py`` installed, and reports the per-layer ledger.
On ``churn`` it also re-runs the sweep serially and requires the same
doc.  Every repetition's outputs are checked (see ``workloads.summarize``
and ``check_docs``).

Human-readable lines go first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import TIMED_LAYERS  # noqa: E402
from workloads import JOBS, WORKLOADS  # noqa: E402

#: Repetitions a measured run makes at least, whatever ``--seconds`` is.
MIN_REPS = 3
#: Extra set-up-only interpreters per run (``setup_s`` is their median
#: together with the timed repetitions' set-up).
SETUP_SAMPLES = 5
#: No repetition starts after this many seconds (the run must end < 180 s).
START_DEADLINE_S = 120.0
#: Hard limit for one child interpreter.
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("run_s", "s"),
    ("handshakes_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

ARTIFACT_CACHES = ("filter_builds", "churn_images", "churn_probes", "verified_chains", "cert_decode")

#: ``(name, unit, better)`` of every per-layer metric, in output order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple((f"{layer}_s", "s", "lower") for layer in TIMED_LAYERS)
    + (
        ("webmodel.population.path_for_rank_calls", "count", "lower"),
        ("webmodel.cohort.replay_users", "count", "lower"),
        ("webmodel.cohort.divergent_share", "ratio", "lower"),
        ("core.suppressor_init_calls", "count", "lower"),
        ("core.extension_payload_calls", "count", "lower"),
        ("core.cache.add_many_calls", "count", "lower"),
        ("amq.build_calls", "count", "lower"),
        ("amq.codec.parse_calls", "count", "lower"),
        ("amq.probe_calls", "count", "lower"),
        ("amq.probe_items", "count", "lower"),
        ("amq.hit_precision", "ratio", "higher"),
        ("tls.handshakes", "count", "lower"),
        ("webmodel.churn.slow_path_share", "ratio", "lower"),
        ("amq.delta.snapshot_share", "ratio", "lower"),
        ("runtime.ship_bytes", "bytes", "lower"),
        ("runtime.worker_busy_share", "ratio", "higher"),
    )
    + tuple((f"runtime.artifacts.{c}.hit_rate", "ratio", "higher") for c in ARTIFACT_CACHES)
    + (
        ("ica_bytes_per_handshake", "bytes", "lower"),
        ("fp_retry_rate", "ratio", "lower"),
        ("update_bytes_per_client", "bytes", "lower"),
        ("fail_rate", "ratio", "lower"),
        ("unattributed_s", "s", "lower"),
        ("trace_overhead_share", "ratio", "lower"),
    )
)

#: Per-layer ``*_calls`` metrics and the layer whose calls they count.
_CALLS = {
    "webmodel.population.path_for_rank_calls": "webmodel.population.path_for_rank",
    "webmodel.cohort.replay_users": "webmodel.cohort.replay",
    "core.suppressor_init_calls": "core.suppressor_init",
    "core.extension_payload_calls": "core.extension_payload",
    "core.cache.add_many_calls": "core.cache.add_many",
    "amq.build_calls": "amq.build",
    "amq.codec.parse_calls": "amq.codec.parse",
    "amq.probe_calls": "amq.probe",
    "tls.handshakes": "tls.handshake",
}

#: Doc sha256 per workload for seed 0 (the default seed).
EXPECTED_PATH = HERE / "expected_sha256.json"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Child:
    """Runs ``rep.py`` in a fresh interpreter and parses its JSON line."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        pythonpath = str(ROOT / "src")
        if os.environ.get("PYTHONPATH"):
            pythonpath += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=pythonpath)

    def run(self, *extra: str) -> Tuple[dict, float]:
        """``(child's JSON, spawn instant)``; raises RuntimeError on any
        failure, after the child's whole process group has ended."""
        cmd = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", self.workload, "--seed", str(self.seed), *extra,
        ]
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - _now()))
        spawned = _now()
        proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            proc.communicate()
            raise RuntimeError(f"repetition timed out after {timeout:.0f}s: {' '.join(extra)}")
        finally:
            _kill_group(proc)
        if proc.returncode != 0:
            tail = "\n".join(err.strip().splitlines()[-5:])
            raise RuntimeError(f"repetition exited {proc.returncode}: {tail}")
        lines = out.strip().splitlines()
        if not lines:
            raise RuntimeError("repetition printed nothing")
        return json.loads(lines[-1]), spawned


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop anything left in the child's session (e.g. pool workers)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def source_digest() -> str:
    """sha256 over ``src/`` (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(workload: str, reps: int, traced: bool) -> dict:
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source_digest(),
        "jobs": JOBS[workload],
        "repetitions": reps,
        "traced": traced,
    }


def check_docs(workload: str, seed: int, reps: List[dict]) -> List[str]:
    """Every repetition of one seed must produce the same doc; for seed 0
    it must match the recorded sha256."""
    failures = []
    shas = {rep["sha256"] for rep in reps}
    if len(shas) > 1:
        failures.append(f"repetitions disagree on the doc: {sorted(shas)}")
    if seed == 0 and EXPECTED_PATH.is_file():
        expected = json.loads(EXPECTED_PATH.read_text())[workload]
        if shas != {expected}:
            failures.append(f"seed-0 doc sha256 {sorted(shas)} != recorded {expected}")
    return failures


def measure(child: Child, seconds: float, started: float) -> Tuple[List[dict], List[float], List[str]]:
    """Timed repetitions for ``seconds`` (at least MIN_REPS) plus the
    set-up-only samples; returns (reps, setup samples, failures)."""
    reps: List[dict] = []
    setups: List[float] = []
    failures: List[str] = []
    walls: List[float] = []
    loop_start = _now()
    while True:
        elapsed = _now() - loop_start
        if reps and _now() - started > START_DEADLINE_S:
            break
        # Start another repetition only if it is expected to end within
        # the measuring time, so a run lasts about ``seconds``.
        if len(reps) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
        rep, spawned = child.run()
        walls.append(_now() - spawned)
        rep["setup_s"] = rep["setup_done"] - spawned
        setups.append(rep["setup_s"])
        failures.extend(rep["failures"])
        reps.append(rep)
    for _ in range(SETUP_SAMPLES):
        if _now() - started > START_DEADLINE_S:
            break
        rep, spawned = child.run("--setup-only")
        setups.append(rep["setup_done"] - spawned)
    return reps, setups, failures


def end_to_end(reps: List[dict], setups: List[float]) -> Dict[str, float]:
    return {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "handshakes_per_s": statistics.median(r["attempts"] / r["run_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced: dict, untraced_run_s: float) -> Dict[str, float]:
    led = traced["ledger"]
    calls, counts, protocol = led["calls"], led["counts"], traced["protocol"]
    values: Dict[str, float] = {f"{layer}_s": led["layers"][layer] for layer in TIMED_LAYERS}
    for name, layer in _CALLS.items():
        values[name] = calls.get(layer, 0)
    values["webmodel.cohort.divergent_share"] = protocol["divergent_share"]
    values["amq.probe_items"] = counts.get("amq.probe_items", 0)
    values["amq.hit_precision"] = _ratio(counts.get("amq.true_hits", 0), counts.get("amq.hits", 0))
    values["webmodel.churn.slow_path_share"] = (
        _ratio(calls.get("tls.handshake", 0), protocol["simulated_handshakes"])
    )
    values["amq.delta.snapshot_share"] = _ratio(
        counts.get("amq.delta.snapshots", 0), counts.get("amq.delta.updates", 0)
    )
    values["runtime.ship_bytes"] = counts.get("runtime.ship_bytes", 0)
    values["runtime.worker_busy_share"] = _ratio(
        led["worker_busy_s"], led["workers"] * led["parallel_map_total_s"]
    )
    for cache in ARTIFACT_CACHES:
        hits = counts.get(f"artifacts.{cache}.hits", 0)
        misses = counts.get(f"artifacts.{cache}.misses", 0)
        values[f"runtime.artifacts.{cache}.hit_rate"] = _ratio(hits, hits + misses)
    for name in ("ica_bytes_per_handshake", "fp_retry_rate", "update_bytes_per_client", "fail_rate"):
        values[name] = protocol[name]
    values["unattributed_s"] = led["unattributed_s"]
    values["trace_overhead_share"] = traced["run_s"] / untraced_run_s - 1.0
    return values


def reconcile_failures(traced: dict) -> List[str]:
    led = traced["ledger"]
    failures = []
    total = sum(led["layers"].values()) + led["unattributed_s"]
    if abs(total - led["wall_s"]) > 1e-6:
        failures.append(f"ledger does not reconcile: {total} != {led['wall_s']}")
    if led["unattributed_s"] < -1e-3:
        failures.append(f"negative unattributed time {led['unattributed_s']}")
    if led["layers"]["runtime.parallel_map"] < -1e-3:
        failures.append("worker time exceeds the parallel_map window")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = _now()
    child = Child(args.workload, args.seed, deadline=started + 170.0)
    try:
        # Untimed warm-up: compiles bytecode and warms the page cache, so
        # the first timed interpreter starts like every later one.
        child.run("--setup-only")
        reps, setups, failures = measure(child, args.seconds, started)
        failures += check_docs(args.workload, args.seed, reps)
        metrics: Dict[str, Tuple[float, str]]
        attempted = len(reps)
        if args.trace:
            traced, _ = child.run("--trace")
            attempted += 1
            failures += traced["failures"] + reconcile_failures(traced)
            if traced["sha256"] != reps[0]["sha256"]:
                failures.append("traced doc differs from the untraced doc")
            if JOBS[args.workload] > 1:
                serial, _ = child.run("--jobs", "1")
                attempted += 1
                failures += serial["failures"]
                print(f"serial run_s {serial['run_s']:.4f} s vs jobs={JOBS[args.workload]} "
                      f"median {statistics.median(r['run_s'] for r in reps):.4f} s")
                if serial["sha256"] != traced["sha256"]:
                    failures.append("serial doc differs from the jobs>1 doc")
            values = per_layer(traced, statistics.median(r["run_s"] for r in reps))
            units = {name: unit for name, unit, _ in PER_LAYER}
            metrics = {name: (values[name], units[name]) for name, _, _ in PER_LAYER}
        else:
            values = end_to_end(reps, setups)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("environment " + json.dumps(environment(args.workload, len(reps), bool(args.trace))))
    print("repetition run_s " + " ".join(f"{rep['run_s']:.4f}" for rep in reps))
    print("set-up samples s " + " ".join(f"{s:.4f}" for s in setups))
    protocol = reps[0]["protocol"]
    for name in ("ica_bytes_per_handshake", "fp_retry_rate", "update_bytes_per_client", "fail_rate"):
        print(f"protocol  {name:<40} {protocol[name]:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"metric    {name:<40} {value:.6g} {unit}")
    for failure in failures:
        print(f"check failed: {failure}")
    # A repetition fails with its own checks; a failed cross-repetition
    # check (doc agreement, ledger reconciliation) fails them all.
    own = sum(1 for rep in reps if rep["failures"])
    shared = len(failures) - sum(len(rep["failures"]) for rep in reps)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted if shared else own,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

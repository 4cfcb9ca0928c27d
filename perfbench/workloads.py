"""The benchmark's three workloads, built from a seed through the public API.

* ``cohort``    -- the Fig. 5 cohort at scale: 100K users x 10 destination
                   draws, default filter (cuckoo, fpp 1e-3, no refresh);
* ``cohort-fp`` -- the same cohort at fpp 0.02 with a payload refresh
                   every 3 handshakes, so ~1 % of users diverge and
                   replay through the real ``ClientSuppressor`` pipeline;
* ``churn``     -- the delta-distribution staleness sweep (levels 1/2/4/8
                   x 2 trials) on a scaled-up PKI world, 1,000 clients x
                   2 handshakes x 24 epochs, at ``jobs=2``.

Each workload is split into ``setup`` (prerequisites built before the
first engine call) and ``run`` (the timed engine call); ``summarize``
turns a result into its JSON doc, the modelled-protocol metrics and the
list of failed output checks.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

WORKLOADS = ("cohort", "cohort-fp", "churn")

#: Worker processes per workload (the ``--jobs`` the user would pass).
JOBS = {"cohort": 1, "cohort-fp": 1, "churn": 2}

#: Workload seeds are folded into this range before they reach the model.
SEED_MODULUS = 2**31


def model_seed(seed: int) -> int:
    return seed % SEED_MODULUS


def import_engine(workload: str) -> None:
    """Import the modules a user of this workload's engine loads."""
    if workload == "churn":
        import repro.experiments.churn  # noqa: F401
    else:
        import repro.webmodel.cohort  # noqa: F401
        import repro.webmodel.population  # noqa: F401


def cohort_config(workload: str, seed: int):
    from repro.webmodel.cohort import CohortConfig

    extra: Dict[str, Any] = {}
    if workload == "cohort-fp":
        extra = {"fpp": 0.02, "payload_refresh_every": 3}
    return CohortConfig(
        num_users=100_000, handshakes_per_user=10, seed=model_seed(seed), **extra
    )


def churn_config(seed: int, clients: int = 1000, steps: int = 24, levels=(1, 2, 4, 8), trials: int = 2):
    from repro.experiments.churn import ChurnExperimentConfig
    from repro.webmodel.churn import ChurnConfig

    base = ChurnConfig(
        steps=steps,
        initial_icas=400,
        issuance_rate=8.0,
        revocation_rate=4.0,
        cross_sign_rate=2.0,
        num_sites=24,
        distribution="delta",
        seed=model_seed(seed),
    )
    return ChurnExperimentConfig(
        staleness_levels=tuple(levels),
        trials=trials,
        base=base,
        clients=clients,
        handshakes_per_client=2,
    )


def config_for(workload: str, seed: int):
    if workload == "churn":
        return churn_config(seed)
    return cohort_config(workload, seed)


def setup(workload: str, config) -> Any:
    """Prerequisites built before the first engine call."""
    if workload == "churn":
        return None
    from repro.webmodel.population import ICAPopulation

    return ICAPopulation(config.population)


def run(workload: str, config, prereq: Any, jobs: int) -> Any:
    """The timed engine call."""
    if workload == "churn":
        from repro.experiments.churn import run_churn_experiment

        return run_churn_experiment(config, jobs=jobs)
    from repro.webmodel.cohort import run_cohort

    return run_cohort(config, jobs=jobs, population=prereq)


def doc_for(workload: str, config, result) -> dict:
    if workload == "churn":
        from repro.experiments.churn import churn_json_doc

        return churn_json_doc(config, result)
    from repro.webmodel.cohort import cohort_json_doc

    return cohort_json_doc(result)


def doc_sha256(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_refreshes(config, level: int) -> int:
    """Payload refreshes of one sweep cell: at epoch ``t`` generation
    ``(-t) mod k`` refreshes (the engine's cadence)."""
    from repro.webmodel.churn_columnar import generation_size

    return sum(
        generation_size((-step) % level, config.clients, level)
        for step in range(config.base.steps)
    )


def churn_refreshes(config) -> int:
    """Payload refreshes of the whole sweep."""
    return sum(
        cell_refreshes(config, level) * config.trials
        for level in config.staleness_levels
    )


def _initial_framed_image_bytes(config, trial: int) -> int:
    """Framed size of a full-image refresh of a cell's initial cache."""
    from dataclasses import replace

    from repro.amq.delta import delta_overhead_bytes
    from repro.runtime.parallel import derive_seed
    from repro.webmodel.churn import ChurnWorld
    from repro.webmodel.churn_columnar import capture_wire_image

    world_config = replace(
        config.base, seed=derive_seed("churn.trial", config.base.seed, trial)
    )
    fingerprints = [c.fingerprint() for c in ChurnWorld(world_config).initial_certificates()]
    return len(capture_wire_image(world_config, fingerprints)) + delta_overhead_bytes()


def summarize(workload: str, config, result) -> Tuple[dict, Dict[str, float], int, List[str]]:
    """``(doc, protocol metrics, attempted handshakes, failed checks)``."""
    doc = doc_for(workload, config, result)
    failures: List[str] = []
    if workload == "churn":
        handshakes = sum(c.handshakes for c in result)
        retries = sum(c.fp_retries + c.fallbacks for c in result)
        failed = sum(c.failures for c in result)
        attempts = handshakes + retries
        refreshes = churn_refreshes(config)
        distribution = sum(c.distribution_bytes for c in result)
        for c in result:
            if c.completed + c.failures != c.handshakes:
                failures.append(f"cell {c.level}/{c.trial}: completed + failures != handshakes")
        if failed:
            failures.append(f"{failed} failed churn handshakes")
        for trial in range(config.trials):
            framed = _initial_framed_image_bytes(config, trial)
            for c in result:
                if c.trial != trial:
                    continue
                full_bytes = cell_refreshes(config, c.level) * framed
                if c.distribution_bytes >= full_bytes:
                    failures.append(
                        f"cell {c.level}/{c.trial}: delta bytes {c.distribution_bytes} "
                        f">= full-image bytes {full_bytes}"
                    )
        protocol = {
            "fp_retry_rate": retries / handshakes,
            "update_bytes_per_client": distribution / refreshes,
            "ica_bytes_per_handshake": 0.0,
            "fail_rate": failed / attempts,
        }
        simulated = handshakes
    else:
        stats = result.stats
        attempts = stats.attempts
        if stats.attempts != stats.handshakes + stats.retries:
            failures.append("attempts != handshakes + retries")
        if stats.completed + stats.completed_after_retry != stats.handshakes:
            failures.append("failed cohort handshakes")
        if stats.users != config.num_users:
            failures.append("user count mismatch")
        protocol = {
            "fp_retry_rate": stats.retries / stats.handshakes,
            "update_bytes_per_client": 0.0,
            "ica_bytes_per_handshake": stats.ica_bytes_sent_total / stats.handshakes,
            "fail_rate": 0.0,
        }
        simulated = stats.attempts
    protocol["simulated_handshakes"] = simulated
    if workload != "churn":
        protocol["divergent_share"] = result.stats.divergent_users / result.stats.users
    else:
        protocol["divergent_share"] = 0.0
    return doc, protocol, attempts, failures

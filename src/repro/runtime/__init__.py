"""Experiment runtime: process-pool fan-out + immutable-artifact caches.

``repro.runtime.parallel`` shards deterministic experiment loops across
forked worker processes (ordered, windowed results; stable per-item
seeds; serial fallback); ``repro.runtime.artifacts`` memoizes the
immutable PKI artifacts the handshake fast path would otherwise
recompute per connection. Both are wired through the cohort and churn
engines, the experiment drivers, the CLI (``--jobs``) and the benchmark
harness.
"""

from repro.runtime import artifacts
from repro.runtime.parallel import (
    WorkerCrashError,
    default_jobs,
    derive_seed,
    parallel_imap,
    parallel_map,
    resolve_jobs,
)

__all__ = [
    "artifacts",
    "WorkerCrashError",
    "default_jobs",
    "derive_seed",
    "parallel_imap",
    "parallel_map",
    "resolve_jobs",
]

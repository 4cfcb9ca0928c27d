"""Figure 3 — AMQ filter feasibility.

Three panels (§5.2):

* **left** — filter size vs target load factor at capacity 245 and FPP
  0.1% ("load factors should remain above 75%"; the paper settles on 0.9);
* **center** — insert/query throughput per structure ("millions of
  lookups in seconds" in C; Python magnitudes are lower, the *ordering*
  is the reproducible shape);
* **right** — filter size vs represented ICs at FPP 0.1%, LF 0.9, against
  the 550-byte ClientHello budget ("below 550 bytes ... over 300 ICs").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.amq import (
    FilterParams,
    canonical_params,
    max_capacity_within,
    size_bytes_for,
)
from repro.amq.serialization import filter_class_for_name
from repro.analysis.tables import format_table
from repro.core.filter_config import DEFAULT_FILTER_BUDGET_BYTES

PAPER_CAPACITY = 245
PAPER_FPP = 1e-3
PAPER_LOAD_FACTOR = 0.9
DYNAMIC_KINDS = ("cuckoo", "vacuum", "quotient")


def _payload_bytes(kind: str, capacity: int, fpp: float, load_factor: float) -> int:
    """Wire payload bytes of the plotted configuration, through the wire
    quantizers — the number the planner and the deserializer use."""
    params = canonical_params(
        FilterParams(capacity=capacity, fpp=fpp, load_factor=load_factor)
    )
    return size_bytes_for(kind, capacity, params.fpp, params.load_factor)


# ---------------------------------------------------------------------------
# Left panel: size vs load factor
# ---------------------------------------------------------------------------


def load_factor_sweep(
    kinds: Sequence[str] = DYNAMIC_KINDS,
    load_factors: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95),
    capacity: int = PAPER_CAPACITY,
    fpp: float = PAPER_FPP,
) -> Dict[str, List[Tuple[float, int]]]:
    """{kind: [(load_factor, size_bytes), ...]}."""
    return {
        kind: [(lf, _payload_bytes(kind, capacity, fpp, lf)) for lf in load_factors]
        for kind in kinds
    }


def format_load_factor_sweep(sweep: Dict[str, List[Tuple[float, int]]]) -> str:
    lfs = [lf for lf, _ in next(iter(sweep.values()))]
    rows = [
        [kind, *(str(size) for _, size in series)] for kind, series in sweep.items()
    ]
    return format_table(
        ["structure"] + [f"lf={lf}" for lf in lfs],
        rows,
        title=(
            f"Fig. 3-left — size (bytes) vs load factor "
            f"(capacity {PAPER_CAPACITY}, FPP {PAPER_FPP:.1%})"
        ),
    )


def measured_max_load(
    kinds: Sequence[str] = DYNAMIC_KINDS,
    capacity: int = PAPER_CAPACITY,
    fpp: float = PAPER_FPP,
    trials: int = 5,
) -> Dict[str, float]:
    """Empirical achievable load factor: fill each structure (sized at
    its most compact, load-factor-1 geometry) until the first insertion
    failure and report the mean occupancy reached. The paper's
    feasibility bar is 0.75; all three candidates clear 0.9."""
    import random

    from repro.errors import FilterFullError

    out: Dict[str, float] = {}
    for kind in kinds:
        cls = filter_class_for_name(kind)
        achieved = []
        for trial in range(trials):
            params = canonical_params(
                FilterParams(
                    capacity=capacity, fpp=fpp, load_factor=1.0, seed=trial
                )
            )
            filt = cls(params)
            rng = random.Random(1000 + trial)
            try:
                while True:
                    filt.insert(rng.getrandbits(192).to_bytes(24, "big"))
            except FilterFullError:
                pass
            achieved.append(len(filt) / filt.slot_count())
        out[kind] = sum(achieved) / trials
    return out


def format_max_load(loads: Dict[str, float]) -> str:
    rows = [[kind, f"{100 * lf:.1f}%"] for kind, lf in loads.items()]
    return format_table(
        ["structure", "achieved load factor"],
        rows,
        title="Fig. 3-left companion — measured fill at first insert failure",
    )


# ---------------------------------------------------------------------------
# Center panel: throughput
# ---------------------------------------------------------------------------


BATCH_KINDS = ("bloom",) + DYNAMIC_KINDS + ("xor",)


@dataclass(frozen=True)
class ThroughputResult:
    """Build, query and delete throughput of one structure, each build
    and query measured on the scalar per-item path and the vectorized
    path. ``delete_ops_per_s`` is ``None`` for families without
    deletion (bloom, xor)."""

    kind: str
    num_items: int
    scalar_build_ops_per_s: float
    batch_build_ops_per_s: float
    bulk_build_ops_per_s: float
    scalar_query_ops_per_s: float
    batch_query_ops_per_s: float
    delete_ops_per_s: Optional[float]

    @property
    def batch_build_speedup(self) -> float:
        return self.batch_build_ops_per_s / self.scalar_build_ops_per_s

    @property
    def bulk_build_speedup(self) -> float:
        return self.bulk_build_ops_per_s / self.scalar_build_ops_per_s

    @property
    def batch_query_speedup(self) -> float:
        return self.batch_query_ops_per_s / self.scalar_query_ops_per_s


def throughput(
    kinds: Sequence[str] = BATCH_KINDS,
    num_items: int = 5_000,
    seed: int = 7,
) -> List[ThroughputResult]:
    """Measured throughput at the paper's operating point (0.9 target
    load), per structure:

    * **build** three ways — the scalar ``insert`` loop, in-place
      ``insert_batch``, and the ``build_from_fingerprints`` producer path
      (construction + batch insert, as the filter plans and manager
      rebuilds run it). A single ``contains`` inside each timed build
      window forces the xor filter's deferred peel construction so its
      build cost is not hidden in the first query. The xor scalar arm
      runs under :func:`repro.amq.peel.scalar_spec_mode`, so "scalar
      build" means the list-backed specification construction for every
      family alike;
    * **query** — a per-item ``contains`` loop and one ``contains_batch``
      call on the bulk-built filter, over a half-absent/half-present
      probe mix;
    * **delete** — every item, one by one, for the families in
      :data:`DYNAMIC_KINDS`.
    """
    import random
    from contextlib import nullcontext

    from repro.amq.peel import scalar_spec_mode

    rng = random.Random(seed)
    items = [rng.getrandbits(256).to_bytes(32, "big") for _ in range(num_items)]
    probes = [rng.getrandbits(256).to_bytes(32, "big") for _ in range(num_items)]
    mix = probes[: num_items // 2] + items[: num_items // 2]
    results = []
    for kind in kinds:
        cls = filter_class_for_name(kind)
        params = canonical_params(
            FilterParams(
                capacity=num_items, fpp=PAPER_FPP, load_factor=PAPER_LOAD_FACTOR,
                seed=seed,
            )
        )
        spec_mode = scalar_spec_mode() if kind == "xor" else nullcontext()
        t0 = time.perf_counter()
        with spec_mode:
            scalar_filt = cls(params)
            for item in items:
                scalar_filt.insert(item)
            scalar_filt.contains(items[0])
        t_scalar_build = time.perf_counter() - t0

        t0 = time.perf_counter()
        batch_filt = cls(params)
        batch_filt.insert_batch(items)
        batch_filt.contains(items[0])
        t_batch_build = time.perf_counter() - t0

        t0 = time.perf_counter()
        bulk_filt = cls.build_from_fingerprints(params, items)
        bulk_filt.contains(items[0])
        t_bulk_build = time.perf_counter() - t0

        t0 = time.perf_counter()
        for probe in mix:
            bulk_filt.contains(probe)
        t_scalar_query = time.perf_counter() - t0
        t0 = time.perf_counter()
        bulk_filt.contains_batch(mix)
        t_batch_query = time.perf_counter() - t0

        delete_ops_per_s = None
        if kind in DYNAMIC_KINDS:
            t0 = time.perf_counter()
            for item in items:
                bulk_filt.delete(item)
            delete_ops_per_s = num_items / (time.perf_counter() - t0)
        results.append(
            ThroughputResult(
                kind=kind,
                num_items=num_items,
                scalar_build_ops_per_s=num_items / t_scalar_build,
                batch_build_ops_per_s=num_items / t_batch_build,
                bulk_build_ops_per_s=num_items / t_bulk_build,
                scalar_query_ops_per_s=len(mix) / t_scalar_query,
                batch_query_ops_per_s=len(mix) / t_batch_query,
                delete_ops_per_s=delete_ops_per_s,
            )
        )
    return results


def format_throughput(results: Sequence[ThroughputResult]) -> str:
    rows = [
        [
            r.kind,
            f"{r.scalar_build_ops_per_s:,.0f}",
            f"{r.batch_build_ops_per_s:,.0f}",
            f"{r.bulk_build_ops_per_s:,.0f}",
            f"{r.bulk_build_speedup:.1f}x",
            f"{r.scalar_query_ops_per_s:,.0f}",
            f"{r.batch_query_ops_per_s:,.0f}",
            f"{r.batch_query_speedup:.1f}x",
            "-" if r.delete_ops_per_s is None else f"{r.delete_ops_per_s:,.0f}",
        ]
        for r in results
    ]
    n = results[0].num_items if results else 0
    return format_table(
        [
            "structure",
            "insert/s",
            "insert_batch/s",
            "bulk build/s",
            "build speedup",
            "query/s",
            "contains_batch/s",
            "query speedup",
            "delete/s",
        ],
        rows,
        title=(
            f"Fig. 3-center — throughput ({n:,} items; pure Python, "
            "see EXPERIMENTS.md)"
        ),
    )


# ---------------------------------------------------------------------------
# Right panel: size vs capacity
# ---------------------------------------------------------------------------


def capacity_sweep(
    kinds: Sequence[str] = DYNAMIC_KINDS,
    capacities: Sequence[int] = (50, 100, 150, 200, 245, 300, 400, 700, 1000, 1400),
    fpp: float = PAPER_FPP,
    load_factor: float = PAPER_LOAD_FACTOR,
) -> Dict[str, List[Tuple[int, int]]]:
    """{kind: [(capacity, size_bytes), ...]}."""
    return {
        kind: [(n, _payload_bytes(kind, n, fpp, load_factor)) for n in capacities]
        for kind in kinds
    }


def budget_capacities(
    kinds: Sequence[str] = DYNAMIC_KINDS,
    budget_bytes: int = DEFAULT_FILTER_BUDGET_BYTES,
    fpp: float = PAPER_FPP,
    load_factor: float = PAPER_LOAD_FACTOR,
) -> Dict[str, int]:
    """Max ICs each structure holds within the ClientHello budget, sized
    on canonical params as the planner sizes them."""
    params = canonical_params(
        FilterParams(capacity=1, fpp=fpp, load_factor=load_factor)
    )
    return {
        kind: max_capacity_within(
            kind, budget_bytes, params.fpp, params.load_factor
        )
        for kind in kinds
    }


def format_capacity_sweep(
    sweep: Dict[str, List[Tuple[int, int]]],
    budgets: Dict[str, int],
) -> str:
    capacities = [c for c, _ in next(iter(sweep.values()))]
    rows = []
    for kind, series in sweep.items():
        rows.append(
            [kind, *(str(size) for _, size in series), str(budgets.get(kind, "-"))]
        )
    return format_table(
        ["structure"]
        + [f"n={c}" for c in capacities]
        + [f"max ICs @{DEFAULT_FILTER_BUDGET_BYTES}B"],
        rows,
        title=(
            "Fig. 3-right — size (bytes) vs represented ICs "
            f"(FPP {PAPER_FPP:.1%}, LF {PAPER_LOAD_FACTOR})"
        ),
    )

#!/usr/bin/env python
"""Figure 3-center — filter insert/query throughput.

The paper measures C implementations handling millions of ops per second;
pure-Python magnitudes are ~100x lower. The reproducible shape is the
ordering and the adequacy argument (even Python sustains far more lookups
per second than a busy server's handshake rate). The companion batch
benchmark shows the vectorized ``contains_batch``/``insert_batch`` API
recovering an order of magnitude of that gap at Tranco-scale batch sizes.

Run as a script to emit ``BENCH_fig3.json``, the machine-readable
scalar/batch/bulk-build throughput report for the array-native storage
engine::

    python benchmarks/bench_fig3_throughput.py                 # 2^16 items
    python benchmarks/bench_fig3_throughput.py --num-items 8192
    python benchmarks/bench_fig3_throughput.py --families cuckoo,xor

Internal floors gate cuckoo/vacuum (bulk build, batch query), the xor
family's array-native peel engine against its own scalar-specification
construction (``repro.amq.peel.scalar_spec_mode``), and the semi-sort
codec round-trip against its scalar emit/take loops; ``--families``
restricts the run (and the gates) to a subset.

The JSON embeds two kinds of comparison:

* **internal ratios** (batch and bulk-build vs this build's own scalar
  loop) — machine-independent, asserted on every run, and the CI
  regression gate;
* **vs-main speedups** against ``PRE_ENGINE_BASELINE``, the four-mode
  throughput of the list-backed engine at commit f35f628 measured on the
  dev machine that generated the checked-in report. The scalar loop is
  within noise of that engine's scalar path on the same machine (the
  scalar algorithms are unchanged), so the internal ratios track the
  vs-main speedups wherever the baseline numbers cannot be reproduced.
  ``--enforce-vs-main`` additionally asserts the acceptance gates
  (>= 5x bulk build, >= 3x batch query for cuckoo and vacuum) against
  the embedded baseline — meaningful only on comparable hardware.

Exit status is non-zero when an assertion fails, so CI can run it as-is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import fig3

#: Four-mode throughput (ops/s) of the list-backed storage engine at
#: commit f35f628 ("current main" for this change), measured on the dev
#: machine with the same workload the CLI below runs: 2^16 32-byte items,
#: fpp 1e-3, load factor 0.9, seed 7, query mix of 32768 absent + 32768
#: present probes. Machine-specific — comparisons against these numbers
#: are only meaningful on comparable hardware.
PRE_ENGINE_BASELINE: Dict[str, Dict[str, float]] = {
    "cuckoo": {
        "scalar_build_ops_per_s": 107_085.0,
        "batch_build_ops_per_s": 442_384.0,
        "scalar_query_ops_per_s": 110_635.0,
        "batch_query_ops_per_s": 786_278.0,
    },
    "vacuum": {
        "scalar_build_ops_per_s": 94_812.0,
        "batch_build_ops_per_s": 314_510.0,
        "scalar_query_ops_per_s": 97_542.0,
        "batch_query_ops_per_s": 823_866.0,
    },
}

#: Machine-independent CI floors: the vectorized paths must beat this
#: build's own scalar loop by these factors for the paper's two headline
#: structures. Set well under the measured ratios (build ~7-11x, query
#: ~40x) to absorb shared-runner noise while still catching any
#: regression to per-item placement.
MIN_INTERNAL_BUILD_SPEEDUP = 3.0
MIN_INTERNAL_QUERY_SPEEDUP = 4.0
GATED_KINDS = ("cuckoo", "vacuum")

#: The xor family gates its array-native peel engine against its own
#: scalar-specification construction (``peel.scalar_spec_mode``): the
#: vectorized hash/scatter + packed-record peel must rebuild at least
#: this much faster than the list-backed spec loops at 2^16 items
#: (measured ~5.4x on the dev machine).
MIN_INTERNAL_XOR_BUILD_SPEEDUP = 4.0

#: The semi-sort codec's vectorized pack/unpack (shared ``bitpack``
#: array records) vs its own scalar emit/take loops on the same table
#: (measured ~50-100x; the floor absorbs runner noise).
MIN_INTERNAL_CODEC_SPEEDUP = 8.0

#: The ISSUE acceptance gates, enforced with ``--enforce-vs-main``
#: against ``PRE_ENGINE_BASELINE`` (bulk build vs the scalar insert loop
#: every session construction used to pay; batch query vs main's own
#: batch query path).
MIN_VS_MAIN_BULK_BUILD_SPEEDUP = 5.0
MIN_VS_MAIN_BATCH_QUERY_SPEEDUP = 3.0


def test_fig3_center_throughput(benchmark, scale):
    results = benchmark.pedantic(
        fig3.throughput,
        kwargs={"num_items": scale["ops"]},
        rounds=1,
        iterations=1,
    )
    print()
    print(fig3.format_throughput(results))
    for r in results:
        assert r.query_ops_per_s > 10_000  # >> typical handshake rates
        assert r.insert_ops_per_s > 2_000


def test_fig3_batch_vs_scalar_throughput(benchmark, scale):
    # The acceptance bar is set at 10k-item batches regardless of the
    # reduced-scale knob: the batch API exists precisely for the
    # Tranco-1M-style bulk workloads.
    num_items = max(scale["ops"], 10_000)
    results = benchmark.pedantic(
        fig3.batch_throughput,
        kwargs={"num_items": num_items},
        rounds=1,
        iterations=1,
    )
    print()
    print(fig3.format_batch_throughput(results))
    by_kind = {r.kind: r for r in results}
    for r in results:
        # Batch must never be slower than the scalar loop.
        assert r.query_speedup > 0.9, (r.kind, r.query_speedup)
    for kind in ("bloom", "cuckoo"):
        r = by_kind[kind]
        assert r.query_speedup >= 2.0, (
            f"{kind} contains_batch only {r.query_speedup:.2f}x scalar"
        )


def test_fig3_bulk_build_throughput(benchmark, scale):
    num_items = max(scale["ops"], 10_000)
    results = benchmark.pedantic(
        fig3.bulk_build_throughput,
        kwargs={"num_items": num_items},
        rounds=1,
        iterations=1,
    )
    print()
    print(fig3.format_bulk_build_throughput(results))
    for r in results:
        assert r.bulk_build_speedup > 0.8, (r.kind, r.bulk_build_speedup)
    by_kind = {r.kind: r for r in results}
    for kind in GATED_KINDS:
        r = by_kind[kind]
        assert r.bulk_build_speedup >= 2.0, (
            f"{kind} bulk build only {r.bulk_build_speedup:.2f}x scalar"
        )
        assert r.batch_query_speedup >= 3.0, (
            f"{kind} contains_batch only {r.batch_query_speedup:.2f}x scalar"
        )
    r = by_kind["xor"]
    assert r.bulk_build_speedup >= 2.0, (
        f"xor bulk build only {r.bulk_build_speedup:.2f}x its scalar-spec "
        "construction"
    )


# ---------------------------------------------------------------------------
# BENCH_fig3.json CLI
# ---------------------------------------------------------------------------


def bench_semisort_codec(num_slots: int, seed: int = 7) -> Dict[str, Any]:
    """Vectorized vs scalar semi-sort codec round-trip on one table.

    The scalar arm runs the module's own emit/take loops (``pack_table``
    on a plain list, ``unpack_table_py``), so the ratio is internal and
    machine-independent like the filter build gates.
    """
    import random
    import time

    import numpy as np

    from repro.amq import semisort

    rng = random.Random(seed)
    fp_bits = 12
    table = [rng.getrandbits(fp_bits) for _ in range(num_slots)]
    num_buckets = num_slots // semisort.BUCKET_SIZE
    arr = np.array(table, dtype=np.uint64)
    t0 = time.perf_counter()
    packed = semisort.pack_table(arr, fp_bits)
    semisort.unpack_table_array(packed, num_buckets, fp_bits)
    t_vec = time.perf_counter() - t0
    t0 = time.perf_counter()
    packed_scalar = semisort.pack_table(table, fp_bits)
    semisort.unpack_table_py(packed_scalar, num_buckets, fp_bits)
    t_scalar = time.perf_counter() - t0
    assert packed == packed_scalar, "codec paths disagree on bytes"
    ratio = t_scalar / t_vec
    return {
        "num_slots": num_slots,
        "fp_bits": fp_bits,
        "vectorized_roundtrip_s": round(t_vec, 6),
        "scalar_roundtrip_s": round(t_scalar, 6),
        "internal_speedup": round(ratio, 2),
    }


def run_benchmark(
    num_items: int,
    output: Optional[str],
    enforce_vs_main: bool,
    families: Optional[List[str]] = None,
) -> Dict[str, Any]:
    kinds = tuple(families) if families else fig3.BATCH_KINDS
    unknown = set(kinds) - set(fig3.BATCH_KINDS)
    if unknown:
        raise SystemExit(
            f"unknown families {sorted(unknown)}; choose from {fig3.BATCH_KINDS}"
        )
    print(
        f"fig3 throughput: {num_items} items x {len(kinds)} "
        f"structures (fpp {fig3.PAPER_FPP:g}, lf {fig3.PAPER_LOAD_FACTOR})"
    )
    results = fig3.bulk_build_throughput(kinds=kinds, num_items=num_items)
    print(fig3.format_bulk_build_throughput(results))
    by_kind = {r.kind: r for r in results}

    engines: Dict[str, Any] = {}
    for r in results:
        engines[r.kind] = {
            "scalar_build_ops_per_s": round(r.scalar_build_ops_per_s),
            "batch_build_ops_per_s": round(r.batch_build_ops_per_s),
            "bulk_build_ops_per_s": round(r.bulk_build_ops_per_s),
            "scalar_query_ops_per_s": round(r.scalar_query_ops_per_s),
            "batch_query_ops_per_s": round(r.batch_query_ops_per_s),
            "internal_speedup": {
                "batch_build_vs_scalar": round(r.batch_build_speedup, 2),
                "bulk_build_vs_scalar": round(r.bulk_build_speedup, 2),
                "batch_query_vs_scalar": round(r.batch_query_speedup, 2),
            },
        }

    gated = [k for k in GATED_KINDS if k in by_kind]
    vs_main: Dict[str, Any] = {}
    gates: Dict[str, Any] = {}
    for kind in gated:
        r = by_kind[kind]
        base = PRE_ENGINE_BASELINE[kind]
        bulk_vs_scalar = r.bulk_build_ops_per_s / base["scalar_build_ops_per_s"]
        bulk_vs_batch = r.bulk_build_ops_per_s / base["batch_build_ops_per_s"]
        query_vs_batch = r.batch_query_ops_per_s / base["batch_query_ops_per_s"]
        query_vs_scalar = r.batch_query_ops_per_s / base["scalar_query_ops_per_s"]
        vs_main[kind] = {
            "bulk_build_vs_main_scalar_build": round(bulk_vs_scalar, 2),
            "bulk_build_vs_main_batch_build": round(bulk_vs_batch, 2),
            "batch_query_vs_main_batch_query": round(query_vs_batch, 2),
            "batch_query_vs_main_scalar_query": round(query_vs_scalar, 2),
        }
        gates[kind] = {
            "bulk_build_speedup_vs_main_scalar_build_ge_5x": bulk_vs_scalar
            >= MIN_VS_MAIN_BULK_BUILD_SPEEDUP,
            "batch_query_speedup_vs_main_batch_query_ge_3x": query_vs_batch
            >= MIN_VS_MAIN_BATCH_QUERY_SPEEDUP,
            "internal_build_speedup_ge_3x": r.bulk_build_speedup
            >= MIN_INTERNAL_BUILD_SPEEDUP,
            "internal_query_speedup_ge_4x": r.batch_query_speedup
            >= MIN_INTERNAL_QUERY_SPEEDUP,
        }

    if "xor" in by_kind:
        r = by_kind["xor"]
        gates["xor"] = {
            "internal_build_speedup_ge_4x": r.bulk_build_speedup
            >= MIN_INTERNAL_XOR_BUILD_SPEEDUP,
        }
    # The codec gate always runs at the acceptance scale (the scalar arm
    # is ~0.1 s there): at tiny tables fixed numpy overheads dilute the
    # ratio below the floor without any regression.
    codec = bench_semisort_codec(max(num_items, 1 << 16))
    gates["semisort_codec"] = {
        "internal_roundtrip_speedup_ge_8x": codec["internal_speedup"]
        >= MIN_INTERNAL_CODEC_SPEEDUP,
    }
    print(
        f"semisort codec roundtrip: {codec['internal_speedup']}x "
        f"vectorized vs scalar ({num_items} slots)"
    )

    report = {
        "benchmark": "fig3_throughput",
        "cpu_count": os.cpu_count() or 1,
        "scale": {
            "num_items": num_items,
            "fpp": fig3.PAPER_FPP,
            "load_factor": fig3.PAPER_LOAD_FACTOR,
            "seed": 7,
            "item_bytes": 32,
            "query_mix": "half absent, half present probes",
            "families": list(kinds),
        },
        "engines": engines,
        "semisort_codec": codec,
        "pre_engine_baseline": {
            "commit": "f35f628",
            "note": (
                "list-backed engine measured on the machine that generated "
                "this report; vs-main speedups are only meaningful on "
                "comparable hardware — CI enforces the internal ratios"
            ),
            **PRE_ENGINE_BASELINE,
        },
        "speedup_vs_main": vs_main,
        "gates": gates,
    }
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {output}")

    # -- assertions ----------------------------------------------------------
    for kind in gated:
        r = by_kind[kind]
        assert r.bulk_build_speedup >= MIN_INTERNAL_BUILD_SPEEDUP, (
            f"{kind} bulk build {r.bulk_build_speedup:.2f}x scalar "
            f"< {MIN_INTERNAL_BUILD_SPEEDUP}x floor"
        )
        assert r.batch_query_speedup >= MIN_INTERNAL_QUERY_SPEEDUP, (
            f"{kind} batch query {r.batch_query_speedup:.2f}x scalar "
            f"< {MIN_INTERNAL_QUERY_SPEEDUP}x floor"
        )
    if "xor" in by_kind:
        r = by_kind["xor"]
        assert r.bulk_build_speedup >= MIN_INTERNAL_XOR_BUILD_SPEEDUP, (
            f"xor bulk build {r.bulk_build_speedup:.2f}x its scalar-spec "
            f"construction < {MIN_INTERNAL_XOR_BUILD_SPEEDUP}x floor"
        )
    assert codec["internal_speedup"] >= MIN_INTERNAL_CODEC_SPEEDUP, (
        f"semisort codec roundtrip {codec['internal_speedup']}x "
        f"scalar < {MIN_INTERNAL_CODEC_SPEEDUP}x floor"
    )
    if enforce_vs_main:
        for kind in gated:
            g = gates[kind]
            assert g["bulk_build_speedup_vs_main_scalar_build_ge_5x"], (
                f"{kind} bulk build vs main scalar build "
                f"{vs_main[kind]['bulk_build_vs_main_scalar_build']}x < "
                f"{MIN_VS_MAIN_BULK_BUILD_SPEEDUP}x gate"
            )
            assert g["batch_query_speedup_vs_main_batch_query_ge_3x"], (
                f"{kind} batch query vs main batch query "
                f"{vs_main[kind]['batch_query_vs_main_batch_query']}x < "
                f"{MIN_VS_MAIN_BATCH_QUERY_SPEEDUP}x gate"
            )
    print("  all assertions passed")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--num-items", type=int, default=1 << 16,
        help="items per structure (acceptance scale: 2^16)",
    )
    parser.add_argument(
        "--output", default="BENCH_fig3.json",
        help="report path ('' to skip writing)",
    )
    parser.add_argument(
        "--enforce-vs-main", action="store_true",
        help=(
            "also assert the >=5x bulk-build / >=3x batch-query gates "
            "against the embedded main baseline (dev-machine only)"
        ),
    )
    parser.add_argument(
        "--families", default="",
        help=(
            "comma-separated subset of families to run "
            f"(default: all of {','.join(fig3.BATCH_KINDS)}); gates apply "
            "only to families present in the run"
        ),
    )
    args = parser.parse_args(argv)
    families = [f for f in args.families.split(",") if f] or None
    run_benchmark(
        args.num_items, args.output or None, args.enforce_vs_main, families
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

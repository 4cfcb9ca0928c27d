#!/usr/bin/env python
"""Figure 3-center — filter insert/query throughput.

The paper measures C implementations handling millions of ops per second;
pure-Python magnitudes are ~100x lower. The reproducible shape is the
ordering and the adequacy argument (even Python sustains far more lookups
per second than a busy server's handshake rate). The same sweep times
the vectorized ``insert_batch``/``build_from_fingerprints``/
``contains_batch`` paths, which recover an order of magnitude of that gap
at Tranco-scale batch sizes.

Run as a script to emit ``BENCH_fig3.json``, the machine-readable
scalar/batch/bulk-build throughput report for the array-native storage
engine::

    python benchmarks/bench_fig3_throughput.py                 # 2^16 items
    python benchmarks/bench_fig3_throughput.py --num-items 8192
    python benchmarks/bench_fig3_throughput.py --families cuckoo,xor

Every ratio in the report is internal (batch and bulk-build vs this
build's own scalar loop), so it is machine-independent and asserted on
every run. Internal floors gate cuckoo/vacuum (bulk build, batch query),
the xor family's array-native peel engine against its own
scalar-specification construction (``repro.amq.peel.scalar_spec_mode``),
and the semi-sort codec round-trip against its scalar emit/take loops;
``--families`` restricts the run (and the gates) to a subset.

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
        assert r.scalar_query_ops_per_s > 10_000  # >> typical handshake rates
        assert r.scalar_build_ops_per_s > 2_000
        assert r.batch_build_ops_per_s > 2_000

    # The vectorized-path bars are set at 10k-item batches regardless of
    # the reduced-scale knob: the batch API exists precisely for the
    # Tranco-1M-style bulk workloads.
    num_items = max(scale["ops"], 10_000)
    if num_items != scale["ops"]:
        results = fig3.throughput(num_items=num_items)
        print(fig3.format_throughput(results))
    by_kind = {r.kind: r for r in results}
    for r in results:
        # Neither vectorized path may fall behind the scalar loop beyond noise.
        assert r.batch_query_speedup > 0.9, (r.kind, r.batch_query_speedup)
        assert r.bulk_build_speedup > 0.8, (r.kind, r.bulk_build_speedup)
    for kind in ("bloom", "cuckoo"):
        r = by_kind[kind]
        assert r.batch_query_speedup >= 2.0, (
            f"{kind} contains_batch only {r.batch_query_speedup:.2f}x scalar"
        )
    for kind in GATED_KINDS + ("xor",):
        r = by_kind[kind]
        assert r.bulk_build_speedup >= 2.0, (
            f"{kind} bulk build only {r.bulk_build_speedup:.2f}x its "
            "scalar construction"
        )
    for kind in GATED_KINDS:
        r = by_kind[kind]
        assert r.batch_query_speedup >= 3.0, (
            f"{kind} contains_batch only {r.batch_query_speedup:.2f}x scalar"
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
    results = fig3.throughput(kinds=kinds, num_items=num_items)
    print(fig3.format_throughput(results))
    by_kind = {r.kind: r for r in results}

    engines: Dict[str, Any] = {}
    for r in results:
        engines[r.kind] = {
            "scalar_build_ops_per_s": round(r.scalar_build_ops_per_s),
            "batch_build_ops_per_s": round(r.batch_build_ops_per_s),
            "bulk_build_ops_per_s": round(r.bulk_build_ops_per_s),
            "scalar_query_ops_per_s": round(r.scalar_query_ops_per_s),
            "batch_query_ops_per_s": round(r.batch_query_ops_per_s),
            "delete_ops_per_s": (
                None if r.delete_ops_per_s is None
                else round(r.delete_ops_per_s)
            ),
            "internal_speedup": {
                "batch_build_vs_scalar": round(r.batch_build_speedup, 2),
                "bulk_build_vs_scalar": round(r.bulk_build_speedup, 2),
                "batch_query_vs_scalar": round(r.batch_query_speedup, 2),
            },
        }

    gated = [k for k in GATED_KINDS if k in by_kind]
    gates: Dict[str, Any] = {}
    for kind in gated:
        r = by_kind[kind]
        gates[kind] = {
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
        f"vectorized vs scalar ({codec['num_slots']} slots)"
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
        "--families", default="",
        help=(
            "comma-separated subset of families to run "
            f"(default: all of {','.join(fig3.BATCH_KINDS)}); gates apply "
            "only to families present in the run"
        ),
    )
    args = parser.parse_args(argv)
    families = [f for f in args.families.split(",") if f] or None
    run_benchmark(args.num_items, args.output or None, families)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

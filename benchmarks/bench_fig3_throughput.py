"""Figure 3-center — filter insert/query throughput.

The paper measures C implementations handling millions of ops per second;
pure-Python magnitudes are ~100x lower. The reproducible shape is the
ordering and the adequacy argument (even Python sustains far more lookups
per second than a busy server's handshake rate). The same sweep times
the vectorized ``insert_batch``/``build_from_fingerprints``/
``contains_batch`` paths, which recover an order of magnitude of that gap
at Tranco-scale batch sizes.

Every speedup asserted here is internal (batch and bulk-build vs this
build's own scalar loop), so it is machine-independent. At 2^16 items
the internal floors gate cuckoo/vacuum (bulk build, batch query), the
xor family's array-native peel engine against its own
scalar-specification construction (``repro.amq.peel.scalar_spec_mode``),
and the semi-sort codec round-trip against its scalar emit/take loops::

    pytest benchmarks/bench_fig3_throughput.py --benchmark-only -s
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.amq import semisort
from repro.experiments import fig3

#: Item count of the internal floors below (the acceptance scale).
FLOOR_ITEMS = 1 << 16

#: Machine-independent floors: the vectorized paths must beat this
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


def semisort_codec_speedup(num_slots: int, seed: int = 7) -> float:
    """Vectorized vs scalar semi-sort codec round-trip on one table.

    The scalar arm runs the module's own emit/take loops (``pack_table``
    on a plain list, ``unpack_table_py``), so the ratio is internal and
    machine-independent like the filter build gates.
    """
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
    return t_scalar / t_vec


def test_fig3_center_throughput_floors(benchmark):
    """The internal floors at the acceptance scale of 2^16 items."""
    results = benchmark.pedantic(
        fig3.throughput,
        kwargs={"kinds": GATED_KINDS + ("xor",), "num_items": FLOOR_ITEMS},
        rounds=1,
        iterations=1,
    )
    print()
    print(fig3.format_throughput(results))
    by_kind = {r.kind: r for r in results}
    for kind in GATED_KINDS:
        r = by_kind[kind]
        assert r.bulk_build_speedup >= MIN_INTERNAL_BUILD_SPEEDUP, (
            f"{kind} bulk build {r.bulk_build_speedup:.2f}x scalar "
            f"< {MIN_INTERNAL_BUILD_SPEEDUP}x floor"
        )
        assert r.batch_query_speedup >= MIN_INTERNAL_QUERY_SPEEDUP, (
            f"{kind} batch query {r.batch_query_speedup:.2f}x scalar "
            f"< {MIN_INTERNAL_QUERY_SPEEDUP}x floor"
        )
    r = by_kind["xor"]
    assert r.bulk_build_speedup >= MIN_INTERNAL_XOR_BUILD_SPEEDUP, (
        f"xor bulk build {r.bulk_build_speedup:.2f}x its scalar-spec "
        f"construction < {MIN_INTERNAL_XOR_BUILD_SPEEDUP}x floor"
    )
    codec = semisort_codec_speedup(FLOOR_ITEMS)
    print(f"semisort codec roundtrip: {codec:.1f}x vectorized vs scalar")
    assert codec >= MIN_INTERNAL_CODEC_SPEEDUP, (
        f"semisort codec roundtrip {codec:.2f}x scalar "
        f"< {MIN_INTERNAL_CODEC_SPEEDUP}x floor"
    )

"""Hypergraph peeling engine for the XOR filter family.

Construction of an XOR filter (Graf & Lemire, 2020) peels the 3-uniform
hypergraph whose vertices are table slots and whose edges are the items'
``(h0, h1, h2)`` triples: repeatedly pop a degree-1 slot, match it to its
sole remaining item, remove that item's three incidences, and finally
assign fingerprints in reverse peel order. This module holds both sides
of that construction:

* :func:`peel_spec` — the executable specification: the verbatim scalar
  LIFO peel + reverse-assignment loops the original implementation wrote
  (and that ``tests/amq/_reference.py`` freezes). Every other path must
  produce its exact table.
* :func:`peel_arrays` — the array-native engine: vectorized degree and
  accumulator scatter (``np.bincount`` / ``np.bitwise_xor.at``) around a
  packed-record replay of the spec's peel loop.

**Why the peel decision loop itself stays sequential.** The *matching*
(which slot each item is peeled at) genuinely depends on the LIFO pop
order: two degree-1 slots of the same item race, and whichever pops
first claims the item and may push new singletons that preempt older
queue entries. A breadth-first "wave" peel produces a different matching
on such instances, and with it a different wire image. What does *not*
depend on order is the final table given the matching: each matched slot
is written exactly once, and any item whose matched slot appears among
another item's three slots was necessarily peeled later (its slot still
had degree >= 2), so the assignment is the unique solution of a
triangular XOR system — any topological order yields the same bytes,
which is why the engine is free to restructure *how* the same decisions
are computed (packed records, vectorized setup) but not *which*
decisions are made. ``docs/architecture.md`` spells out the argument.

The engine therefore vectorizes everything around the decision loop and
replays the loop itself over packed per-item records: one Python integer
``h0 | h1 << t | h2 << 2t | fp << 3t`` per item, XOR-accumulated per
slot, so a degree-1 slot's accumulator *is* its item's full record — no
per-edge triple lookups, and the peel stack already carries everything
the assignment pass needs.

:func:`scalar_spec_mode` forces the full scalar construction (scalar
hashing included); ``benchmarks/bench_fig3_throughput.py`` uses it as
the like-for-like scalar baseline the internal speedup gate compares
against.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

_FORCE_SPEC = False


@contextmanager
def scalar_spec_mode() -> Iterator[None]:
    """Force every XOR-family construction in the block through the
    scalar specification path (scalar hashing, list-backed peel) — the
    benchmark baseline for the array engine's internal speedup."""
    global _FORCE_SPEC
    previous = _FORCE_SPEC
    _FORCE_SPEC = True
    try:
        yield
    finally:
        _FORCE_SPEC = previous


def scalar_spec_active() -> bool:
    """Whether :func:`scalar_spec_mode` is in effect."""
    return _FORCE_SPEC


def peel_spec(
    triples: Sequence[Tuple[int, int, int, int]], slots: int
) -> Optional[List[int]]:
    """Executable specification: scalar LIFO peel + reverse assignment.

    ``triples`` holds one ``(h0, h1, h2, fp)`` per (deduplicated) item.
    Returns the finished slot table, or ``None`` when a 2-core remains
    (non-peelable instance; the caller retries with a fresh construction
    seed). The pop order — ascending-singleton queue seed, LIFO pops,
    stale entries skipped, crossings pushed in ``h0, h1, h2`` order — is
    load-bearing: it fixes the slot->item matching and with it the wire
    image, so it must never change.
    """
    xor_of_items = [0] * slots
    degree = [0] * slots
    for idx, (h0, h1, h2, _fp) in enumerate(triples):
        for h in (h0, h1, h2):
            xor_of_items[h] ^= idx
            degree[h] += 1
    stack = []  # (slot, item index), in peel order
    queue = [s for s in range(slots) if degree[s] == 1]
    while queue:
        slot = queue.pop()
        if degree[slot] != 1:
            continue
        idx = xor_of_items[slot]
        stack.append((slot, idx))
        for h in triples[idx][:3]:
            xor_of_items[h] ^= idx
            degree[h] -= 1
            if degree[h] == 1:
                queue.append(h)
    if len(stack) != len(triples):
        return None  # 2-core remained; retry with another seed
    # Assign in reverse peel order: each peeled slot's three partners
    # already hold their final values (they were peeled earlier or never
    # matched), so one scalar pass closes the triangular system.
    table = [0] * slots
    for slot, idx in reversed(stack):
        h0, h1, h2, fp = triples[idx]
        table[slot] = fp ^ table[h0] ^ table[h1] ^ table[h2] ^ table[slot]
    return table


def peel_arrays(h0, h1, h2, fp, slots: int, fp_bits: int) -> Optional[List[int]]:
    """Array-native construction over uint64 hash arrays, byte-identical
    to :func:`peel_spec` on the same triples.

    Degree counts and per-slot record accumulators scatter in four numpy
    passes; the peel decision loop replays the spec's exact LIFO order
    over packed records. Slot indexes and fingerprint must fit one signed
    64-bit record (``3 * index_bits + fp_bits <= 62``) — true for every
    wire-planned geometry up to ~1M slots at fpp 1e-3; wider layouts take
    the specification path unchanged.
    """
    n = int(h0.shape[0])
    tb = max(1, (slots - 1).bit_length())
    if 3 * tb + fp_bits > 62:
        return peel_spec(
            list(zip(h0.tolist(), h1.tolist(), h2.tolist(), fp.tolist())), slots
        )
    s1, s2, s3 = tb, 2 * tb, 3 * tb
    h0i = h0.astype(np.int64)
    h1i = h1.astype(np.int64)
    h2i = h2.astype(np.int64)
    q = h0i | (h1i << s1) | (h2i << s2) | (fp.astype(np.int64) << s3)
    incident = np.concatenate((h0i, h1i, h2i))
    deg = np.bincount(incident, minlength=slots)
    qon = np.zeros(slots, dtype=np.int64)
    np.bitwise_xor.at(qon, incident, np.concatenate((q, q, q)))
    # The decision loop runs over plain lists: a degree-1 slot's
    # accumulator is its sole item's packed record, so each peel is three
    # list updates and zero lookups. flatnonzero seeds the queue in the
    # same ascending order as the spec's range scan.
    degl = deg.tolist()
    qonl = qon.tolist()
    queue = np.flatnonzero(deg == 1).tolist()
    pop = queue.pop
    push = queue.append
    order_slots: List[int] = []
    order_records: List[int] = []
    rec_slot = order_slots.append
    rec_record = order_records.append
    mask = (1 << tb) - 1
    peeled = 0
    while queue:
        s = pop()
        if degl[s] != 1:
            continue
        qv = qonl[s]
        rec_slot(s)
        rec_record(qv)
        peeled += 1
        a = qv & mask
        qonl[a] ^= qv
        d = degl[a] - 1
        degl[a] = d
        if d == 1:
            push(a)
        b = (qv >> s1) & mask
        qonl[b] ^= qv
        d = degl[b] - 1
        degl[b] = d
        if d == 1:
            push(b)
        c = (qv >> s2) & mask
        qonl[c] ^= qv
        d = degl[c] - 1
        degl[c] = d
        if d == 1:
            push(c)
        if peeled == n:
            break
    if peeled != n:
        return None
    table = [0] * slots
    for s, qv in zip(reversed(order_slots), reversed(order_records)):
        table[s] = (
            (qv >> s3)
            ^ table[qv & mask]
            ^ table[(qv >> s1) & mask]
            ^ table[(qv >> s2) & mask]
            ^ table[s]
        )
    return table

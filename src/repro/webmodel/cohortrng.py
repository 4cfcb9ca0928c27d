"""Counter-based RNG streams for the cohort engine (and its reference).

The columnar cohort engine and the scalar reference runner must consume
*byte-identical* per-user randomness, whatever order they evaluate users
in and however the cohort is sharded across worker processes.  A stateful
generator (``random.Random``, ``numpy.random.Generator``) cannot give
that: the stream position would depend on evaluation order.  This module
instead derives every draw from a pure function of

    (stream key, counter)        with   counter = user * slots + slot

so draw ``(u, t)`` has one value, computable scalar-by-scalar or as a
whole ndarray, in any process, in any order.

Seed-derivation scheme (the documented contract the property tests pin):

* ``stream key`` = :func:`repro.runtime.parallel.derive_seed`
  ``(namespace, cohort seed, bits=64)`` — a SHA-256 content hash, so
  distinct namespaces ("cohort.rank", "cohort.rtt.a", "cohort.rtt.b")
  and distinct cohort seeds never collide or correlate;
* ``counter`` = ``user * slots_per_user + slot`` — distinct per (user,
  slot) within a cohort by construction;
* the draw is a splitmix64 finalizer over ``key + (counter+1) * GOLDEN``.
  splitmix64's finalizer is a bijection on 64-bit integers, so two
  distinct counters under one key can never yield the same 64-bit draw —
  the "no stream collisions across users" property is structural, not
  statistical.

Uniforms take the top 53 bits (``u64 >> 11`` times 2^-53), the standard
IEEE-double construction, giving values in [0, 1).

Distribution shapes are chosen to be *rejection-free* so one (or two)
uniforms map to one variate — a rejection loop would consume a
data-dependent number of draws and break the fixed counter layout:

* bounded Zipf ranks via the truncated continuous-Pareto inverse CDF;
* log-normal RTT via the Box-Muller transform (two uniforms per draw).

Both engines call *these* functions on the same (key, counter) inputs,
so equality of every draw holds by construction; the differential suite
then checks the far stronger claim that the two *session machines* agree.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.parallel import derive_seed

#: splitmix64 increment (the golden-ratio constant), as an unsigned word.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
#: 2^-53: top-53-bits-to-double scale factor.
_U53_SCALE = 1.0 / float(1 << 53)

#: Stream namespaces used by the cohort model (one key per stream).
RANK_STREAM = "cohort.rank"
RTT_A_STREAM = "cohort.rtt.a"
RTT_B_STREAM = "cohort.rtt.b"


def stream_key(namespace: str, seed: int) -> int:
    """The 64-bit stream key for ``namespace`` under a cohort seed."""
    return derive_seed(namespace, seed, bits=64)


def counter_hash(key: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over ``key + (counter+1) * GOLDEN``.

    ``counters`` must be a uint64 ndarray; the result is uint64 of the
    same shape.  For a fixed key this is a bijection in the counter, so
    distinct counters give distinct words.
    """
    # In place, with one spare word column: a block's columns are large.
    z = counters + np.uint64(1)
    z *= _GOLDEN
    z += np.uint64(key)
    t = np.empty_like(z)
    for shift, mix in ((_SHIFT_30, _MIX1), (_SHIFT_27, _MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mix
    np.right_shift(z, _SHIFT_31, out=t)
    z ^= t
    return z


def uniforms(key: int, counters: np.ndarray) -> np.ndarray:
    """IEEE-double uniforms in [0, 1) from the (key, counter) stream."""
    z = counter_hash(key, counters)
    z >>= _SHIFT_11
    u = z.astype(np.float64)
    u *= _U53_SCALE
    return u


def user_counters(user: int, slots_per_user: int) -> np.ndarray:
    """The counter row of one user: ``user * slots + [0..slots)``."""
    base = np.uint64(user) * np.uint64(slots_per_user)
    return base + np.arange(slots_per_user, dtype=np.uint64)


def block_counters(start_user: int, stop_user: int, slots_per_user: int) -> np.ndarray:
    """Counters of a contiguous user block as a (users, slots) matrix."""
    users = np.arange(start_user, stop_user, dtype=np.uint64)
    slots = np.arange(slots_per_user, dtype=np.uint64)
    return users[:, None] * np.uint64(slots_per_user) + slots[None, :]


def zipf_ranks(u: np.ndarray, exponent: float, size: int) -> np.ndarray:
    """Bounded Zipf-like ranks in [1, size] via the inverse CDF of a
    continuous Pareto truncated at ``size + 1`` (rejection-free, hence
    exactly one uniform per rank).

    For exponent a > 1 the continuous density ~ r^-a on [1, size+1]
    has CDF F(r) = (1 - r^(1-a)) / (1 - (size+1)^(1-a)); inverting and
    flooring yields integer ranks whose mass closely tracks the discrete
    zeta weights, with no atom at either end of the universe — and the
    draw is identical between the two cohort paths, which is the
    property that matters here.
    """
    if size < 1:
        raise ValueError(f"rank universe must be >= 1, got {size}")
    if exponent <= 1.0:
        raise ValueError(f"zipf exponent must exceed 1, got {exponent}")
    one_minus_a = 1.0 - exponent
    lo = float(size + 1) ** one_minus_a
    r = u * (1.0 - lo)
    np.subtract(1.0, r, out=r)
    np.power(r, 1.0 / one_minus_a, out=r)
    ranks = r.astype(np.int64)
    np.clip(ranks, 1, size, out=ranks)
    return ranks


def lognormal_rtt(
    u1: np.ndarray,
    u2: np.ndarray,
    median_s: float,
    sigma: float,
    floor_s: float = 0.002,
) -> np.ndarray:
    """Log-normal RTT draws from two uniform streams via Box-Muller.

    ``median * exp(sigma * z)`` with ``z`` standard normal — the standard
    heavy-tailed fit for Internet RTT populations (sigma 0.5 mixes nearby
    CDN nodes and intercontinental paths) — from counter-based uniforms,
    so any sharding reproduces every draw.  Floored at ``floor_s``, a
    2 ms physical minimum that keeps deep tails physical.
    """
    if median_s <= 0:
        raise ValueError(f"median RTT must be positive, got {median_s}")
    if sigma <= 0:
        raise ValueError(f"RTT sigma must be positive, got {sigma}")
    # The same operations in place (two float columns live, not six).
    radius = np.negative(u1)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    z = u2 * (2.0 * np.pi)
    np.cos(z, out=z)
    z *= radius
    del radius
    z *= sigma
    np.exp(z, out=z)
    z *= median_s
    np.maximum(z, floor_s, out=z)
    return z

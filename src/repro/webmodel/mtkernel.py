"""CPython's ``random.Random(int)`` as numpy columns.

:func:`mt_words` reproduces the Mersenne-Twister seeding
(``init_by_array`` over the ``init_genrand(19650218)`` table) and the
first output words of ``random.Random(s)`` for a whole batch of seeds at
once, byte for byte; :func:`random_columns` and
:func:`randbelow_columns` turn those words into ``random()`` and
``randrange(n)`` draws.  The bulk lookups of
:mod:`repro.webmodel.population` and :mod:`repro.webmodel.tranco` use
them in place of one ``random.Random`` per rank; their scalar methods
stay as the executable spec the differential tests compare against.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

_N, _M = 624, 397  # MT19937 state words and twist offset
MASK32 = 0xFFFFFFFF


def _genrand_table(seed: int) -> List[np.uint32]:
    """MT19937 ``init_genrand(seed)``: the state ``init_by_array`` starts from."""
    mt = [seed]
    for i in range(1, _N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & MASK32)
    return [np.uint32(word) for word in mt]


_INIT = _genrand_table(19650218)
_U30 = np.uint32(30)


def _key_adds(high: int, low: np.ndarray) -> List[np.ndarray]:
    """Per column, the term ``init_by_array``'s first loop adds at step
    ``i`` (``key[j] + j`` with ``j = i mod len(key)``), cycled by index.

    CPython keys ``random.Random(s)`` with the little-endian 32-bit words
    of ``abs(s)`` (at least one word); here ``s = high * 2**64 + low``.
    """
    if high >= 0:
        mag, tops, alt = low, (high, high), np.zeros(low.shape, dtype=bool)
    else:  # abs(s) = (-high - 1) * 2**64 + (2**64 - low), or -high * 2**64 at low 0
        mag, tops, alt = ~low + np.uint64(1), (-high - 1, -high), low == 0
    words = [
        (mag & np.uint64(MASK32)).astype(np.uint32),
        (mag >> np.uint64(32)).astype(np.uint32),
    ]
    length = np.where(words[1] != 0, 2, 1)
    top_words = [
        [top >> shift & MASK32 for shift in range(0, top.bit_length(), 32)]
        for top in tops
    ]
    for t in range(max(map(len, top_words))):
        pick = [w[t] if t < len(w) else 0 for w in top_words]
        words.append(np.where(alt, np.uint32(pick[1]), np.uint32(pick[0])))
    for flag, top in zip((False, True), top_words):
        if top:
            length[alt == flag] = 2 + len(top)
    lengths = np.unique(length).tolist()
    if lengths[-1] > _N:
        raise ValueError("random.Random key longer than the MT19937 state")
    adds = []
    for step in range(min(math.lcm(*lengths), _N)):
        add = np.empty(low.shape, dtype=np.uint32)
        for n in lengths:
            sel = length == n
            add[sel] = words[step % n][sel] + np.uint32(step % n)
        adds.append(add)
    return adds


def mt_words(high: int, low: np.ndarray, count: int) -> np.ndarray:
    """``(count, len(low))`` uint32: column ``b`` holds the first ``count``
    ``getrandbits(32)`` outputs of ``random.Random(high * 2**64 + low[b])``.

    Memory is O(batch): ``init_by_array``'s first loop runs once to reach
    its last word (the second loop's start), then again fused with the
    second loop, keeping only the state rows the first ``count`` outputs
    read (output ``w`` twists ``mt[w]``, ``mt[w+1]`` and ``mt[w+397]``).
    """
    if not 1 <= count <= _N - _M:
        raise ValueError(f"count must be in [1, {_N - _M}], got {count}")
    low = np.asarray(low, dtype=np.uint64)
    adds = _key_adds(high, low)
    period = len(adds)
    mul1, mul2 = np.uint32(1664525), np.uint32(1566083941)
    prev = np.full(low.shape, _INIT[0])
    tmp = np.empty_like(prev)

    def mix(word: np.ndarray, mul: np.uint32, into) -> None:
        np.right_shift(word, _U30, out=tmp)
        np.bitwise_xor(tmp, word, out=tmp)
        np.multiply(tmp, mul, out=tmp)
        np.bitwise_xor(tmp, into, out=tmp)

    def loop1(i: int) -> None:  # mt[i] of init_by_array's first loop
        mix(prev, mul1, _INIT[i])
        np.add(tmp, adds[(i - 1) % period], out=prev)

    loop1(1)
    first = prev.copy()
    for i in range(2, _N):
        loop1(i)
    mix(prev, mul1, first)  # the loop wraps and updates mt[1] once more
    wrapped = tmp + adds[(_N - 1) % period]
    prev[...] = first
    second = wrapped.copy()
    rows = {}
    for i in range(2, _N):
        loop1(i)
        mix(second, mul2, prev)
        np.subtract(tmp, np.uint32(i), out=second)
        if i <= count or _M <= i < _M + count:
            rows[i] = second.copy()
    mix(second, mul2, wrapped)  # the second loop wraps onto mt[1] too
    rows[1] = tmp - np.uint32(1)
    out = np.empty((count,) + low.shape, dtype=np.uint32)
    upper, lower = np.uint32(0x80000000), np.uint32(0x7FFFFFFF)
    for w in range(count):
        y = (upper if w == 0 else rows[w] & upper) | (rows[w + 1] & lower)
        v = rows[w + _M] ^ (y >> np.uint32(1)) ^ ((y & np.uint32(1)) * np.uint32(0x9908B0DF))
        v ^= v >> np.uint32(11)
        v ^= (v << np.uint32(7)) & np.uint32(0x9D2C5680)
        v ^= (v << np.uint32(15)) & np.uint32(0xEFC60000)
        out[w] = v ^ (v >> np.uint32(18))
    return out


def random_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``random.random()`` from two consecutive output words."""
    return ((a >> 5).astype(np.float64) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)


def randbelow_columns(words: np.ndarray, n) -> Tuple[np.ndarray, np.ndarray]:
    """``randrange(n)`` per column of ``words`` (``n`` an int, or one per
    column, each in ``[1, 2**32)``): the first ``w >> (32 - k)`` below
    ``n``, where ``k = n.bit_length()``, and whether ``words`` held one."""
    n = np.asarray(n, dtype=np.uint32)
    bits = np.frexp(n.astype(np.float64))[1]  # n.bit_length(), exactly
    drawn = words >> (32 - bits).astype(np.uint32)
    valid = drawn < n
    ok = valid.any(axis=0)
    value = drawn[valid.argmax(axis=0), np.arange(words.shape[1])]
    return np.where(ok, value, 0), ok

"""Keyed, counter-based random number streams.

Every stochastic component of the package draws from a Philox generator whose
key is a hash of ``(seed, *key_parts)``.  This gives each logical unit (an
account, a dependent block, a repetition of an experiment, ...) its own
independent stream, so results do not depend on generation order or on the
number of worker processes.  The public entry points are :func:`stream` and
:func:`derive_seed`; the bytes a key hashes are fixed in one place,
:func:`_hasher`, whose state every key of the package starts from.

Realisation-level streams use fixed-size draw blocks: realisation ``k`` of a
unit consumes draw block ``k`` of the unit's stream, so two plans that assign
different realisation counts to the same unit share their common prefix of
realisations (common random numbers).

Philox is counter-based (Salmon et al. 2011): a stream is fully described by
its key, with the counter at zero, and its ``j``-th block of four words is
a pure function of the key and ``j``.  :func:`_unit_keys` derives the keys of
many units ``(seed, *prefix, i)`` at once, hashing each id on a copy of the
prefix's SHA-256 state.  :func:`_unit_streams` walks them with one generator,
re-keyed in place, instead of building a generator per unit (it serves every
independent unit of the simulator's chunk engine), and
:func:`_philox_uniforms` computes the first few uniforms of every key in
numpy arithmetic.  Both equal ``stream(seed, *prefix, i)`` bitwise: the
digest is that of the same bytes, the 64-bit products are exact in 32-bit
halves, and a uniform is ``(x >> 11) * 2**-53`` of the same raw word, as in
numpy's ``Generator.random``.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

__all__ = ["stream", "derive_seed"]


def _hasher(seed: int, key: tuple):
    """SHA-256 state after ``(seed, *key)``."""
    h = hashlib.sha256(str(int(seed)).encode())
    for part in key:
        h.update(b"\x1f")
        if isinstance(part, (int, np.integer)):
            h.update(b"i" + str(int(part)).encode())
        elif isinstance(part, str):
            h.update(b"s" + part.encode())
        else:
            raise TypeError(f"stream key parts must be int or str, got {type(part).__name__}")
    return h


def _digest(seed: int, key: tuple) -> bytes:
    return _hasher(seed, key).digest()


def stream(seed: int, *key) -> np.random.Generator:
    """Return the generator for the stream identified by ``(seed, *key)``."""
    philox_key = int.from_bytes(_digest(seed, key)[:16], "little")
    return np.random.Generator(np.random.Philox(key=philox_key))


def _unit_keys(seed: int, *prefix, ids) -> np.ndarray:
    """The Philox keys of the streams ``(seed, *prefix, i)`` for ``i`` in ``ids``.

    Returns an (n, 2) uint64 array: row ``k`` holds the two little-endian words
    of the 128-bit key that :func:`stream` passes to Philox as an int.  Each id
    is hashed in one update, ``b"\\x1fi<id>"``, of a copy of the prefix's state,
    which absorbs the same bytes as :func:`_hasher`.
    """
    copy = _hasher(seed, prefix).copy

    def digest(i):
        h = copy()
        h.update(b"\x1fi%d" % operator.index(i))
        return h.digest()[:16]

    return np.frombuffer(b"".join(map(digest, ids)), dtype="<u8").reshape(-1, 2)


def _unit_streams(seed: int, *prefix, ids):
    """Yield the stream ``(seed, *prefix, i)`` for each ``i`` in ``ids``, in order.

    The draws equal ``stream(seed, *prefix, i)`` bitwise, but one generator is
    re-keyed in place for every unit: each yielded generator is valid only
    until the next one is requested.
    """
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    inner = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = dict(bit_gen.state, state=inner)  # counter 0 and an empty buffer, as after construction
    for key in _unit_keys(seed, *prefix, ids=ids):
        inner["key"] = key
        bit_gen.state = state
        yield gen


# Philox-4x64 multipliers and Weyl key increments (Salmon et al. 2011, as in numpy)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray):
    """High and low words of the 128-bit product of the constant ``m`` and each of ``x``."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    lo_lo = m_lo * x_lo
    mid = m_hi * x_lo + (lo_lo >> _S32)  # each product of 32-bit halves fits in 64 bits
    mid2 = m_lo * x_hi + (mid & _LO32)
    return m_hi * x_hi + (mid >> _S32) + (mid2 >> _S32), np.uint64(m) * x


def _philox_uniforms(keys: np.ndarray, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` uniforms of the Philox stream of each key: (n, n_draws).

    Row ``k`` equals ``Generator(Philox(key=keys[k])).random(n_draws)`` bitwise.
    Block ``j`` of four raw words is Philox-4x64-10 of the counter ``(j + 1, 0,
    0, 0)``: numpy increments its zero counter before the first block.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    blocks = -(-n_draws // 4)
    shape = (len(keys), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = keys[:, :1], keys[:, 1:]
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    raw = np.stack((c0, c1, c2, c3), axis=-1).reshape(len(keys), 4 * blocks)[:, :n_draws]
    return (raw >> np.uint64(11)) * 2.0**-53


def derive_seed(seed: int, *key) -> int:
    """Derive a child integer seed, for namespacing whole experiments."""
    d = _digest(seed, key)
    return int.from_bytes(d[16:24], "little") >> 1

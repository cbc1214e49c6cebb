"""Keyed, counter-based random number streams.

Every stochastic component of the package draws from a Philox generator whose
key is a hash of ``(seed, *key_parts)``.  This gives each logical unit (an
account, a dependent block, a repetition of an experiment, ...) its own
independent stream, so results do not depend on generation order or on the
number of worker threads.

Realisation-level streams use fixed-size draw blocks: realisation ``k`` of a
unit consumes draw block ``k`` of the unit's stream, so two plans that assign
different realisation counts to the same unit share their common prefix of
realisations (common random numbers).

Philox is counter-based: a stream is fully described by its key, with the
counter at zero.  :func:`_unit_streams` exploits this to walk many units with
one generator, re-keyed in place, instead of building a generator per unit.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "derive_seed"]


def _hasher(seed: int, key: tuple, base=None):
    """SHA-256 state after ``(seed, *key)``; ``base`` is a state that already absorbed the seed."""
    h = hashlib.sha256(str(int(seed)).encode()) if base is None else base.copy()
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


def _unit_streams(seed: int, *prefix, ids):
    """Yield the stream ``(seed, *prefix, i)`` for each ``i`` in ``ids``, in order.

    The draws equal ``stream(seed, *prefix, i)`` bitwise, but one generator is
    re-keyed in place for every unit: each yielded generator is valid only
    until the next one is requested.
    """
    base = _hasher(seed, prefix)
    bit_gen = np.random.Philox(key=0)
    gen = np.random.Generator(bit_gen)
    inner = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = dict(bit_gen.state, state=inner)  # counter 0 and an empty buffer, as after construction
    for i in ids:
        # the two little-endian words of the 128-bit key that stream() passes to Philox as an int
        inner["key"] = np.frombuffer(_hasher(seed, (i,), base).digest(), dtype="<u8", count=2)
        bit_gen.state = state
        yield gen


def derive_seed(seed: int, *key) -> int:
    """Derive a child integer seed, for namespacing whole experiments."""
    d = _digest(seed, key)
    return int.from_bytes(d[16:24], "little") >> 1

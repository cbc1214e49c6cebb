"""Keyed stream determinism and independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collsim.rng import _philox_uniforms, _unit_keys, _unit_streams, derive_seed, stream


def test_same_key_same_stream():
    a = stream(7, "unit", 3).random(32)
    b = stream(7, "unit", 3).random(32)
    assert np.array_equal(a, b)


def test_different_keys_differ():
    a = stream(7, "unit", 3).random(32)
    assert not np.array_equal(a, stream(7, "unit", 4).random(32))
    assert not np.array_equal(a, stream(8, "unit", 3).random(32))
    assert not np.array_equal(a, stream(7, "other", 3).random(32))


def test_key_parts_are_typed_not_concatenated():
    # ("ab",) and ("a", "b") must map to different streams
    a = stream(0, "ab").random(8)
    b = stream(0, "a", "b").random(8)
    assert not np.array_equal(a, b)
    # int 1 and str "1" must differ too
    assert not np.array_equal(stream(0, 1).random(8), stream(0, "1").random(8))


def test_split_draws_equal_one_big_draw():
    # consecutive draws continue the stream exactly where the last one ended
    g1 = stream(5, "x")
    big = g1.random(100)
    g2 = stream(5, "x")
    parts = np.concatenate([g2.random(30), g2.random(70)])
    assert np.array_equal(big, parts)


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(42, "pop", 0)
    assert s1 == derive_seed(42, "pop", 0)
    assert s1 != derive_seed(42, "pop", 1)
    assert s1 != derive_seed(43, "pop", 0)
    assert 0 <= s1 < 2**63


def test_invalid_key_part_type():
    with pytest.raises(TypeError):
        stream(0, 1.5)


def test_unit_streams_equal_stream():
    # more units than a chunk of run_plan holds accounts, mixed id types and draw sizes
    ids = list(range(5000)) + [np.int64(7), 10**15, 3]
    for k, (i, g) in enumerate(zip(ids, _unit_streams(9, "sim", ids=ids))):
        shape = (1 + k % 39, 84)
        ref = stream(9, "sim", i)
        assert np.array_equal(g.random(shape), ref.random(shape))
        assert np.array_equal(g.random(3), ref.random(3))
    # a multi-part prefix
    for i, g in zip(range(50), _unit_streams(2, "pilot", "x", 4, ids=range(50))):
        assert np.array_equal(g.random(7), stream(2, "pilot", "x", 4, i).random(7))


def _philox_key(g):
    return g.bit_generator.state["state"]["key"]


def test_unit_keys_equal_stream_keys():
    ids = [0, 1, 4097, np.int64(7), np.uint32(12), 10**15]
    for prefix in (("population",), ("sim",), ("pilot", "x", 4)):
        keys = _unit_keys(3, *prefix, ids=ids)
        assert keys.shape == (len(ids), 2) and keys.dtype == np.uint64
        for i, key in zip(ids, keys):
            assert np.array_equal(key, _philox_key(stream(3, *prefix, i)))
    assert _unit_keys(3, "sim", ids=[]).shape == (0, 2)
    with pytest.raises(TypeError):
        _unit_keys(3, "sim", ids=[1.5])


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=5),
    n_draws=st.integers(1, 12),
)
def test_philox_uniforms_equal_generator_draws(keys, n_draws):
    words = np.array([[k & (2**64 - 1), k >> 64] for k in keys], dtype=np.uint64)
    u = _philox_uniforms(words, n_draws)
    assert u.shape == (len(keys), n_draws) and u.dtype == np.float64
    for k, row in zip(keys, u):
        ref = np.random.Generator(np.random.Philox(key=k)).random(n_draws)
        assert row.tobytes() == ref.tobytes()


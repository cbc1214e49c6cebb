"""The normal quantile and logistic ports against scipy.special, bit for bit."""

import math

import numpy as np
import pytest
import scipy.special

from collsim import population
from collsim._special import _PIECE, expit, ndtri


def _same_bits(got, want):
    """Equal shape, dtype and bits; NaNs match NaNs whatever their sign or payload."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


_EDGES = np.array([0.0, 1.0, -0.1, 1.1, -np.inf, np.inf, np.nan, -800.0, 800.0, 5e-324, 1e-300, 1 - 2**-53, 0.5])


class TestNdtri:
    def test_random_points(self):
        u = np.random.default_rng(0).random(1_000_000)
        assert _same_bits(ndtri(u), scipy.special.ndtri(u))

    def test_tails(self):
        rng = np.random.default_rng(1)
        y = np.concatenate([10.0 ** -rng.uniform(0, 300, 100_000), np.exp(-rng.uniform(0, 700, 100_000))])
        y = np.concatenate([y, [5e-324, 1e-310, 2.2250738585072014e-308, math.exp(-2.0), 1 - math.exp(-2.0)]])
        for v in (y, 1.0 - y):
            assert _same_bits(ndtri(v), scipy.special.ndtri(v))

    def test_edges(self):
        assert _same_bits(ndtri(_EDGES), scipy.special.ndtri(_EDGES))
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
        assert all(np.isnan(ndtri(v)) for v in (-0.1, 1.1, np.nan, np.inf, -np.inf))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5), (2 * _PIECE + 17,), (_PIECE + 3, 2)])
    def test_shapes(self, shape):
        y = np.random.default_rng(2).random(shape)
        got = ndtri(y)
        assert _same_bits(got, scipy.special.ndtri(y))
        assert type(got) is type(scipy.special.ndtri(y))


class TestExpit:
    def test_random_points(self):
        x = np.random.default_rng(3).uniform(-40.0, 40.0, 1_000_000)
        assert _same_bits(expit(x), scipy.special.expit(x))

    def test_wide_range_and_overflow(self):
        x = np.random.default_rng(4).uniform(-800.0, 800.0, 100_000)
        x = np.concatenate([x, [-709.78, -709.7827128933841, -709.79, -745.2, -1e308]])
        assert _same_bits(expit(x), scipy.special.expit(x))

    def test_edges(self):
        assert _same_bits(expit(_EDGES), scipy.special.expit(_EDGES))
        assert expit(-800.0) == 0.0 and expit(np.inf) == 1.0 and expit(-np.inf) == 0.0

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5), (2 * _PIECE + 17,), (_PIECE + 3, 2)])
    def test_shapes(self, shape):
        x = np.random.default_rng(5).normal(0.0, 10.0, shape)
        got = expit(x)
        assert _same_bits(got, scipy.special.expit(x))
        assert type(got) is type(scipy.special.expit(x))


def test_truncation_constants_equal_scipy_ndtr():
    assert population._PHI_A == scipy.special.ndtr(population._A) == scipy.special.ndtr(-2.0)
    assert population._PHI_B == scipy.special.ndtr(population._B) == scipy.special.ndtr(7.5)

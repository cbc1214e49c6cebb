"""Variance emulator: design properties, GP algebra, persistence."""

import json
import math
import tracemalloc
from operator import setitem

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import scipy.linalg
from scipy.linalg import cho_solve

import collsim.emulator
from collsim.emulator import (
    _JITTER,
    SLICES,
    GpEmulator,
    SegmentGP,
    _features,
    _fit_single,
    _matern52_parts,
    _maximin_lhd,
    _nll_grad_beta,
    _design_moments,
    fit_gp,
    generate_training_data,
    random_design,
    sigma2_for_population,
    sliced_lhd,
    validate_emulator,
)
from collsim.population import balance_cdf, balance_cdf_inv, credit_cdf, credit_cdf_inv, init_population
from collsim.rng import stream
from collsim.simulator import _CHUNK_PATHS, HORIZON, _segment_moments, _simulate_paths, payment_probability


def _min_dist2(pts: np.ndarray) -> float:
    d = pts[:, None, :] - pts[None, :, :]
    dist2 = (d**2).sum(axis=-1)
    np.fill_diagonal(dist2, np.inf)
    return float(dist2.min())


def _sliced_lhd_full_recompute(points_per_slice, seed=0, exchange_iters=2000):
    """Reference maximin exchange that recomputes every distance after each swap."""
    n = points_per_slice
    design = {}
    for s, y in SLICES:
        g = stream(seed, "design", s, y)
        pts = np.empty((n, 2))
        for d in range(2):
            pts[:, d] = (g.permutation(n) + g.random(n)) / n
        best = _min_dist2(pts)
        for _ in range(exchange_iters):
            d = int(g.integers(2))
            i, k = g.integers(n, size=2)
            if i == k:
                continue
            pts[[i, k], d] = pts[[k, i], d]
            cand = _min_dist2(pts)
            if cand > best:
                best = cand
            else:
                pts[[i, k], d] = pts[[k, i], d]
        design[(s, y)] = pts
    return design


def _lhd(points_per_slice, seed, iters):
    """:func:`sliced_lhd`'s slices at ``iters`` exchange attempts, one :func:`_maximin_lhd` per slice."""
    return {key: _maximin_lhd(points_per_slice, stream(seed, "design", *key), iters) for key in SLICES}


class TestDesign:
    def test_slices_cover_segment_times_prior_payment(self):
        assert set(SLICES) == {(s, y) for s in (1, 2, 3) for y in (0, 1)}

    def test_latin_property_per_column(self):
        n = 23
        design = _lhd(n, seed=4, iters=200)
        for key, pts in design.items():
            assert pts.shape == (n, 2)
            for d in range(2):
                cells = np.floor(pts[:, d] * n).astype(int)
                assert sorted(cells) == list(range(n))  # one point per stratum

    def test_exchange_never_worsens_maximin(self):
        raw = _lhd(15, seed=4, iters=0)
        improved = _lhd(15, seed=4, iters=500)
        for key in raw:
            assert _min_dist2(improved[key]) >= _min_dist2(raw[key]) - 1e-15

    @pytest.mark.parametrize("n", [2, 3, 15, 50])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_incremental_exchange_matches_full_recompute(self, seed, n):
        got = _lhd(n, seed=seed, iters=500)
        want = _sliced_lhd_full_recompute(n, seed=seed, exchange_iters=500)
        for key in SLICES:
            assert got[key].tobytes() == want[key].tobytes()

    def test_deterministic(self):
        a = sliced_lhd(10, seed=4)
        b = sliced_lhd(10, seed=4, n_workers=2)
        assert list(b) == list(SLICES)
        per_slice = _lhd(10, seed=4, iters=collsim.emulator._EXCHANGE_ITERS)  # what the other design tests call
        for key in a:
            assert np.array_equal(a[key], b[key])
            assert a[key].tobytes() == per_slice[key].tobytes()

    def test_random_design_disjoint_from_lhd(self):
        lhd = sliced_lhd(10, seed=4)
        rnd = random_design(10, seed=4)
        assert not np.array_equal(lhd[(1, 0)], rnd[(1, 0)])


class TestMatern52:
    def test_frozen_value(self):
        # r = 0.5, lengthscale 1, signal variance 2:
        # 2 * (1 + sqrt(5)/2 + 5/12) * exp(-sqrt(5)/2)
        r = 0.5
        expected = 2.0 * (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)
        got = _matern52_parts(np.array([[0.0]]), np.array([[0.5]]), np.array([1.0]), 2.0)[0][0, 0]
        assert got == pytest.approx(expected, abs=1e-14)

    def test_diagonal_is_signal_variance(self):
        x = np.random.default_rng(0).random((6, 3))
        k = _matern52_parts(x, x, np.array([0.3, 1.0, 2.0]), 1.7)[0]
        assert np.diag(k) == pytest.approx(np.full(6, 1.7))

    def test_symmetric_positive_definite(self):
        x = np.random.default_rng(1).random((20, 2))
        k = _matern52_parts(x, x, np.array([0.5, 0.5]), 1.0)[0]
        assert np.allclose(k, k.T)
        assert np.linalg.eigvalsh(k).min() > -1e-10

    def test_lengthscale_anisotropy(self):
        # a long lengthscale in dimension 0 makes moves along it matter less
        k_along_0 = _matern52_parts(np.zeros((1, 2)), np.array([[0.5, 0.0]]), np.array([5.0, 0.2]), 1.0)[0][0, 0]
        k_along_1 = _matern52_parts(np.zeros((1, 2)), np.array([[0.0, 0.5]]), np.array([5.0, 0.2]), 1.0)[0][0, 0]
        assert k_along_0 > k_along_1

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("n, m", [(1000, 100), (150, 150)])
    def test_distances_equal_summed_reduction_bitwise(self, n, m, d):
        rng = np.random.default_rng(10 * d + n)
        a, b = rng.random((n, d)), rng.random((m, d))
        ell = rng.uniform(0.05, 3.0, d)
        k, r, d2 = _matern52_parts(a, b, ell, 1.3)
        want_d2 = ((a[:, None, :] - b[None, :, :]) / ell) ** 2
        want_r = np.sqrt(want_d2.sum(axis=-1))
        want_k = 1.3 * (1.0 + math.sqrt(5.0) * want_r + 5.0 * want_r**2 / 3.0) * np.exp(-math.sqrt(5.0) * want_r)
        for got, want in ((k, want_k), (r, want_r), (d2, want_d2)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _nll_mp(theta, x, y, noise):
    """The NLL of ``_nll_grad_beta`` in mpmath's working precision, exact in its float inputs.

    The profiled mean needs only ``u = L^-1 1`` and ``w = L^-1 y``, with ``L``
    the Cholesky factor of the kernel matrix: ``beta = u.w / u.u``, and the
    quadratic form is ``|w - beta u|^2``.
    """
    mp = mpmath.mp
    n = len(y)
    ell, tau2 = [mp.exp(t) for t in theta[:-1]], mp.exp(theta[-1])
    a = mp.matrix(n, n)
    for i in range(n):
        for j in range(i + 1):
            r = mp.sqrt(mp.fsum(((mp.mpf(x[i, d]) - mp.mpf(x[j, d])) / ell[d]) ** 2 for d in range(len(ell))))
            a[i, j] = a[j, i] = tau2 * (1 + mp.sqrt(5) * r + 5 * r**2 / 3) * mp.exp(-mp.sqrt(5) * r)
        a[i, i] += mp.mpf(noise[i]) + mp.mpf(_JITTER)
    low = mp.cholesky(a)

    def forward(b):  # L^-1 b; mpmath's L_solve takes a unit diagonal
        z = []
        for i in range(n):
            z.append((b[i] - mp.fdot(low[i, :i], z)) / low[i, i])
        return z

    u, w = forward([1] * n), forward([mp.mpf(v) for v in y])
    beta = mp.fdot(u, w) / mp.fdot(u, u)
    quad = mp.fsum((w[i] - beta * u[i]) ** 2 for i in range(n))
    return quad / 2 + mp.fsum(mp.log(low[i, i]) for i in range(n)) + n * mp.log(2 * mp.pi) / 2


class TestLikelihoodGradient:
    @settings(max_examples=40, deadline=None)
    @example(x=np.zeros((3, 3)), y_scale=3.0, seed=3, position=np.full(4, 0.75))  # once failed at 3.5e-5 in float64
    @given(
        x=st.integers(3, 12).flatmap(lambda n: arrays(float, (n, 3), elements=st.floats(0.0, 1.0))),
        y_scale=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
        position=arrays(float, 4, elements=st.floats(0.0, 1.0)),
    )
    def test_matches_central_differences(self, x, y_scale, seed, position):
        """At random theta inside the fit's bounds, the analytic gradient equals a
        five-point central difference to 1e-5 relative.  The difference is taken
        of the NLL at 40 digits, so that no rounding noise of the float64 NLL
        enters it; kernel matrices with a condition number above 1e6 are
        skipped, as the float64 gradient itself loses digits there."""
        rng = np.random.default_rng(seed)
        n = len(x)
        y = y_scale * rng.standard_normal(n)
        noise = rng.uniform(1e-3, 0.1, n)
        var_y = max(float(np.var(y)), 1e-6)
        lo = np.array([np.log(1e-2)] * 3 + [np.log(var_y * 1e-4)])
        hi = np.array([np.log(1e2)] * 3 + [np.log(var_y * 1e4)])
        theta = lo + (hi - lo) * position
        k, _, _ = _matern52_parts(x, x, np.exp(theta[:-1]), np.exp(theta[-1]))
        assume(np.linalg.cond(k + np.diag(noise + _JITTER)) < 1e6)

        with mpmath.workdps(40):
            t0, h = [mpmath.mpf(t) for t in theta], mpmath.mpf("1e-8")

            def nll(d, step):
                return _nll_mp([t + step * h * (i == d) for i, t in enumerate(t0)], x, y, noise)

            numeric = np.array(
                [float((8 * (nll(d, 1) - nll(d, -1)) - (nll(d, 2) - nll(d, -2))) / (12 * h)) for d in range(4)]
            )
        _, grad, _ = _nll_grad_beta(theta, x, y, noise)
        assert np.max(np.abs(grad - numeric)) <= 1e-5 * np.max(np.abs(numeric))

    def test_failed_cholesky_at_every_start_raises(self, monkeypatch):
        def indefinite(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "cholesky", indefinite)
        x = np.random.default_rng(0).random((6, 3))
        with pytest.raises(ValueError, match="indefinite at every start"):
            _fit_single(x, np.arange(6.0), np.full(6, 0.01))


class TestGpAlgebra:
    def test_three_point_posterior_exactly(self):
        # independent re-derivation of the posterior formulas on a 3-point model
        x = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.9, 0.7, 0.1]])
        y = np.array([1.0, -0.5, 2.0])
        noise = np.array([0.01, 0.02, 0.03])
        ell = np.array([0.4, 0.6, 0.8])
        tau2 = 1.5
        beta = 0.7
        gp = SegmentGP(
            x_train=x,
            y_train=y,
            noise=noise,
            lengthscales=ell,
            signal_variance=tau2,
            beta=beta,
            log_marginal_likelihood=0.0,
        )
        xs = np.array([[0.3, 0.4, 0.5]])
        mean, var = gp.predict(xs)

        def k(a, b):
            r = math.sqrt(float((((a - b) / ell) ** 2).sum()))
            return tau2 * (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)

        big_k = np.array([[k(x[i], x[j]) for j in range(3)] for i in range(3)])
        big_k += np.diag(noise + 1e-8)
        k_star = np.array([k(xs[0], x[i]) for i in range(3)])
        expected_mean = beta + k_star @ np.linalg.solve(big_k, y - beta)
        expected_var = tau2 - k_star @ np.linalg.solve(big_k, k_star)
        assert float(mean[0]) == pytest.approx(expected_mean, abs=1e-10)
        assert float(var[0]) == pytest.approx(expected_var, abs=1e-10)

    def test_interpolates_with_tiny_noise(self):
        x = np.array([[0.1, 0.1, 0.1], [0.5, 0.4, 0.6], [0.8, 0.9, 0.2]])
        y = np.array([3.0, 1.0, -2.0])
        gp = SegmentGP(
            x_train=x,
            y_train=y,
            noise=np.full(3, 1e-12),
            lengthscales=np.array([1.0, 1.0, 1.0]),
            signal_variance=2.0,
            beta=0.0,
            log_marginal_likelihood=0.0,
        )
        mean, var = gp.predict(x)
        assert mean == pytest.approx(y, abs=1e-5)
        assert np.all(var < 1e-4)


@pytest.fixture(scope="module")
def tiny_emulator():
    design = _lhd(12, seed=31, iters=100)
    training = generate_training_data(design, n_realisations=250, seed=32)
    return fit_gp(training), training


def _rows(columns):
    """The rows of equal-length columns, as tuples of Python numbers."""
    return list(zip(*(np.asarray(c).tolist() for c in columns)))


def _per_point_moments(pts, s, y, n_real, seed, domain):
    """The rows of ``_design_moments``'s columns from one ``stream()`` and one kernel call per design point: its oracle."""
    totals, credits = [], []
    for l, (b_t, c_t) in enumerate(pts):
        credit = credit_cdf_inv(np.array([c_t]))[0]
        p0 = payment_probability(credit, s, False)
        p1 = payment_probability(credit, s, True)
        u = stream(seed, domain, s, y, l).random((n_real, HORIZON))
        totals.append(_simulate_paths(p0, p1, balance_cdf_inv(b_t), bool(y), u.T)[0])
        credits.append(credit)
    moments = _segment_moments(np.concatenate(totals), np.full(len(totals), n_real))
    moments = zip(pts, credits, *(m.tolist() for m in moments))
    return [
        (b_t, c_t, cr, v, kurt, max((kurt - 1.0) / n_real, 0.0))
        for (b_t, c_t), cr, mean, v, kurt in moments
        if v > 1e-12 * max(mean**2, 1.0)
    ]


class TestUnitEngine:
    """Design points run as the independent units of one chunked engine, with the draws of one stream each."""

    def test_training_observations_equal_per_point_oracle(self):
        design = _lhd(12, seed=21, iters=50)  # 12 points of 1000 paths: three chunks a slice
        assert 12 * 1000 > 2 * _CHUNK_PATHS
        training = generate_training_data(design, n_realisations=1000, seed=22)
        two = generate_training_data(design, n_realisations=1000, seed=22, n_workers=2)
        assert {k: c.tobytes() for k, c in two.items()} == {k: c.tobytes() for k, c in training.items()}
        expected = []
        for (s, y), pts in design.items():
            for b_t, c_t, credit, v, kurt, noise in _per_point_moments(pts, s, y, 1000, 22, "train"):
                expected.append((float(b_t), float(c_t), credit, s, y, float(np.log(v)), noise, kurt))
        columns = ("b_tilde", "c_tilde", "credit_score", "segment", "y0", "log_var", "noise_var", "kurtosis")
        assert set(training) == set(columns)
        assert _rows(training[k] for k in columns) == expected

    @pytest.mark.parametrize("n_points, n_real", [(9, 1500), (3, _CHUNK_PATHS + 7), (1, 5)])
    def test_validation_moments_equal_per_point_oracle(self, n_points, n_real):
        design = random_design(n_points, seed=23)
        for workers in (1, 2):
            got = dict(_design_moments(design, n_real, 24, "validate", n_workers=workers))
            assert list(got) == list(design)
            for (s, y), pts in design.items():
                assert _rows(got[(s, y)]) == _per_point_moments(pts, s, y, n_real, 24, "validate")

    def test_training_holds_one_chunk_of_uniforms(self):
        design = {(2, 0): random_design(40, seed=25)[(2, 0)]}
        tracemalloc.start()
        try:
            generate_training_data(design, n_realisations=1000, seed=26)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = (_CHUNK_PATHS + 1000) * HORIZON * 8  # the uniforms of the largest chunk, 3.4 MB
        assert peak < 1.6 * chunk, peak  # all 40 points' uniforms would take 26.9 MB


class TestTrainingData:
    def test_noise_law(self, tiny_emulator):
        _, training = tiny_emulator
        for kurt, noise, log_var in _rows(training[k] for k in ("kurtosis", "noise_var", "log_var")):
            assert noise == pytest.approx(max((kurt - 1.0) / 250, 0.0))  # the fixture's 250 realisations
            assert np.isfinite(log_var)

    def test_all_slices_present(self, tiny_emulator):
        _, training = tiny_emulator
        assert set(_rows((training["segment"], training["y0"]))) == set(SLICES)

    def test_too_few_realisations_rejected(self):
        with pytest.raises(ValueError):
            generate_training_data(_lhd(3, seed=0, iters=0), n_realisations=3, seed=0)


class TestEmulatorPredictions:
    def test_predictions_positive_for_population(self, tiny_emulator):
        emulator, _ = tiny_emulator
        pop = init_population(300, (1.0,), seed=40)
        sigma2 = sigma2_for_population(emulator, pop)
        assert sigma2.shape == (300,)
        assert np.all(sigma2 > 0)

    def test_single_account_matches_population_path(self, tiny_emulator):
        emulator, _ = tiny_emulator
        pop = init_population(20, (1.0,), seed=41)
        sigma2 = sigma2_for_population(emulator, pop)
        for i in (0, 7, 13):
            credit = pop.credit_score[i : i + 1]
            one = emulator.predict_sigma2(
                balance_cdf(pop.balance[i : i + 1]),
                credit_cdf(credit),
                int(pop.segment[i]),
                pop.paid_last_month[i : i + 1].astype(int),
                credit=credit,
            )
            assert one.shape == (1,) and one[0] == pytest.approx(sigma2[i], rel=1e-9)

    def test_mean_only_prediction_equals_full_prediction(self, tiny_emulator, monkeypatch):
        emulator, _ = tiny_emulator
        g = np.random.default_rng(45)
        b_t, c_t, y0 = g.random(40), g.random(40), g.integers(0, 2, 40)
        credit = credit_cdf_inv(c_t)
        for s in (1, 2, 3):
            x = _features(b_t, c_t, s, y0, credit)
            full = np.exp(emulator.models[s].predict(x)[0])
            assert np.array_equal(emulator.predict_sigma2(b_t, c_t, s, y0, credit=credit), full)
        # the mean-only path never runs the posterior variance
        monkeypatch.setattr(SegmentGP, "predict", lambda self, x: pytest.fail("variance computed"))
        sigma2_for_population(emulator, init_population(50, (1.0,), seed=46))

    @pytest.mark.parametrize("n_real", [0, 1, 2, 3])
    def test_validation_rejects_too_few_realisations_before_any_work(self, tiny_emulator, monkeypatch, n_real):
        # 0 failed deep inside, 1 dropped every point and 2-3 gave NaN noise
        emulator, _ = tiny_emulator
        monkeypatch.setattr(collsim.emulator, "_pool_map", lambda *a: pytest.fail("simulated"))
        with pytest.raises(ValueError, match=f"^n_realisations must be at least 4 .*, got {n_real}$"):
            validate_emulator(emulator, random_design(2, seed=43), n_realisations=n_real, seed=44)

    def test_validation_matches_point_by_point_prediction(self, tiny_emulator):
        emulator, _ = tiny_emulator
        test = random_design(6, seed=43)
        metrics = validate_emulator(emulator, test, n_realisations=200, seed=44)
        log_err, pred_sd, samp_sd = [], [], []
        for (s, y), pts in test.items():
            if s != 2:
                continue
            for b_t, c_t, credit, v, _, _ in _rows(dict(_design_moments(test, 200, 44, "validate"))[(s, y)]):
                mean, _ = emulator.predict_log(b_t, c_t, s, np.array([y]), credit=credit)
                log_err.append(float(mean[0]) - np.log(v))
                pred_sd.append(np.sqrt(np.exp(float(mean[0]))))
                samp_sd.append(np.sqrt(v))
        seg = metrics["per_segment"][2]
        assert seg["n"] == len(log_err)
        assert seg["log_rmse"] == pytest.approx(np.sqrt(np.mean(np.square(log_err))), rel=1e-9)
        assert seg["sd_correlation"] == pytest.approx(np.corrcoef(pred_sd, samp_sd)[0, 1], rel=1e-9)

    def test_validation_without_kept_points_reports_none(self, tiny_emulator):
        emulator, _ = tiny_emulator
        flat = np.array([[1e-6, 1 - 1e-6], [1e-3, 0.999]])  # tiny balances that are always paid in full
        dropped = validate_emulator(emulator, {(1, 0): flat, (2, 1): flat}, n_realisations=50, seed=44)
        assert dropped == {"per_segment": {1: None, 2: None, 3: None}, "pooled": None}
        mixed = validate_emulator(emulator, {(1, 0): flat, (3, 0): random_design(6, seed=43)[(3, 0)]}, 50, 44)
        assert mixed["per_segment"][1] is None and mixed["per_segment"][3]["n"] == 6
        assert mixed["pooled"] == mixed["per_segment"][3]

    def test_features(self):
        f = _features(np.array([0.2]), np.array([0.5]), 1, np.array([0]), credit_cdf_inv(np.array([0.5])))
        assert f.shape == (1, 3)
        assert f[0, 0] == 0.2 and f[0, 1] == 0.5
        assert 0.0 < f[0, 2] <= 0.5  # sqrt(p(1-p))


def _synthetic_gp(m=100, seed=50):
    """A SegmentGP on ``m`` random training points with fixed hyperparameters."""
    g = np.random.default_rng(seed)
    return SegmentGP(
        x_train=g.random((m, 3)),
        y_train=g.standard_normal(m),
        noise=g.uniform(0.01, 0.1, m),
        lengthscales=np.array([0.3, 0.5, 0.8]),
        signal_variance=1.3,
        beta=0.2,
        log_marginal_likelihood=0.0,
    )


class TestBlockedPrediction:
    """Predictions build k_star a block of rows at a time and keep the bits of the whole-matrix formula."""

    BLOCK = collsim.emulator._KERNEL_BLOCK_BYTES // (100 * 3 * 8)  # rows per block at m = 100, d = 3

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_equals_whole_matrix_formula(self, n):
        gp = _synthetic_gp()
        x = np.random.default_rng(n).random((n, 3))
        k_star = _matern52_parts(x, gp.x_train, gp.lengthscales, gp.signal_variance)[0]
        mean = gp.beta + k_star @ cho_solve(gp._factor(), gp.y_train - gp.beta)
        var = gp.signal_variance - np.einsum("ij,ji->i", k_star, cho_solve(gp._factor(), k_star.T))
        assert gp.predict_mean(x).tobytes() == mean.tobytes()
        got_mean, got_var = gp.predict(x)
        assert got_mean.tobytes() == mean.tobytes()
        assert got_var.tobytes() == np.maximum(var, 0.0).tobytes()

    def test_prediction_holds_one_cross_kernel(self):
        gp = _synthetic_gp()
        x = np.random.default_rng(51).random((10_000, 3))
        gp._factor()
        tracemalloc.start()
        try:
            gp.predict_mean(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k_star = 10_000 * 100 * 8  # 8 MB; the whole (n, m, 3) difference tensor would add 24 MB, twice
        assert peak < 1.5 * k_star, peak


class TestPersistence:
    def test_json_round_trip_preserves_predictions(self, tiny_emulator, tmp_path):
        emulator, _ = tiny_emulator
        path = tmp_path / "emulator.json"
        emulator.to_json(path)
        back = GpEmulator.from_json(path)
        pop = init_population(50, (1.0,), seed=42)
        assert sigma2_for_population(back, pop).tobytes() == sigma2_for_population(emulator, pop).tobytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "emulator.json"
        path.write_text(json.dumps({"format_version": 999, "models": {}}))
        with pytest.raises(ValueError, match="format"):
            GpEmulator.from_json(path)

    def test_only_segment_mode_and_median_prediction_load(self, tiny_emulator, tmp_path):
        path = tmp_path / "emulator.json"
        doc = tiny_emulator[0].to_json(path)
        assert (doc["mode"], doc["prediction"]) == ("segment", "median")
        assert json.loads(path.read_text()) == doc  # the document it returns is the one it wrote
        for field, value in (("mode", "slice"), ("prediction", "mean")):
            path.write_text(json.dumps({**doc, field: value}))
            with pytest.raises(ValueError, match=field):
                GpEmulator.from_json(path)


class TestStoredEmulatorChecked:
    """A malformed emulator file raises one ValueError naming the file, the segment and the field."""

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda d, m: d.pop("models"), ": missing field 'models'"),
            (lambda d, m: d.update(models=[]), ": field 'models' must be an object of segment models"),
            (lambda d, m: d["models"].update({"4": {}}), ": field 'models' has segment '4', expected 1, 2 or 3"),
            (lambda d, m: d["models"].update({"1": [1]}), ", segment 1: expected a JSON object"),
            (lambda d, m: m.pop("beta"), ", segment 1: missing field 'beta'"),
            (lambda d, m: m.update(y_train=m["y_train"][:95]), ", segment 1: field 'y_train' must have shape (100,), got (95,)"),
            (lambda d, m: m.update(noise=[m["noise"]]), ", segment 1: field 'noise' must have shape (100,), got (1, 100)"),
            (lambda d, m: m.update(x_train=[r[:2] for r in m["x_train"]]), ", segment 1: field 'x_train' must have shape (m, 3) with m >= 1, got (100, 2)"),
            (lambda d, m: m.update(x_train=[]), ", segment 1: field 'x_train' must have shape (m, 3) with m >= 1, got (0,)"),
            (lambda d, m: setitem(m["x_train"], 3, [0.1, 0.2]), ", segment 1: field 'x_train' must hold numbers only"),
            (lambda d, m: setitem(m["y_train"], 7, "x"), ", segment 1: field 'y_train' must hold numbers only"),
            (lambda d, m: m.update(beta=True), ", segment 1: field 'beta' must hold numbers only"),
            (lambda d, m: setitem(m["y_train"], 7, math.nan), ", segment 1: field 'y_train' must be finite"),
            (lambda d, m: m.update(beta=math.inf), ", segment 1: field 'beta' must be finite"),
            (lambda d, m: m.update(lengthscales=[0.3, 0.5]), ", segment 1: field 'lengthscales' must have shape (3,), got (2,)"),
            (lambda d, m: setitem(m["lengthscales"], 1, 0.0), ", segment 1: field 'lengthscales' must be positive"),
            (lambda d, m: m.update(signal_variance=-1.3), ", segment 1: field 'signal_variance' must be positive"),
            (lambda d, m: setitem(m["noise"], 0, -0.01), ", segment 1: field 'noise' must be non-negative"),
            (lambda d, m: d["models"].pop("3"), ": field 'models' has no model for segment 3"),
        ],
    )
    def test_bad_field_named(self, tmp_path, edit, expected):
        path = tmp_path / "emulator.json"
        doc = GpEmulator(models={s: _synthetic_gp() for s in (1, 2, 3)}).to_json(path)
        edit(doc, doc["models"]["1"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            GpEmulator.from_json(path)
        assert str(err.value) == f"{path}{expected}"

    @pytest.mark.parametrize("text, expected", [("{not json", ": emulator is not valid JSON: "), ("[1]", ": emulator must be a JSON object, got list")])
    def test_bad_document_named(self, tmp_path, text, expected):
        path = tmp_path / "emulator.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            GpEmulator.from_json(path)
        assert str(err.value).startswith(f"{path}{expected}")


class TestFitValidation:
    def test_too_few_observations_per_group(self):
        row = dict(b_tilde=0.5, c_tilde=0.5, credit_score=credit_cdf_inv(np.array([0.5]))[0], segment=1, y0=0, log_var=1.0, noise_var=0.01, kurtosis=3.0)
        with pytest.raises(ValueError, match="observations"):
            fit_gp({k: np.full(3, value) for k, value in row.items()})

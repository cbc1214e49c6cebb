"""Variance emulator: design properties, GP algebra, persistence."""

import json
import math
import tracemalloc
from operator import setitem

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    TrainingObservation,
    _features,
    _fit_single,
    _matern52_parts,
    _nll_grad_beta,
    _design_moments,
    fit_gp,
    generate_training_data,
    matern52,
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


class TestDesign:
    def test_slices_cover_segment_times_prior_payment(self):
        assert set(SLICES) == {(s, y) for s in (1, 2, 3) for y in (0, 1)}

    def test_latin_property_per_column(self):
        n = 23
        design = sliced_lhd(n, seed=4, exchange_iters=200)
        for key, pts in design.items():
            assert pts.shape == (n, 2)
            for d in range(2):
                cells = np.floor(pts[:, d] * n).astype(int)
                assert sorted(cells) == list(range(n))  # one point per stratum

    def test_exchange_never_worsens_maximin(self):
        raw = sliced_lhd(15, seed=4, exchange_iters=0)
        improved = sliced_lhd(15, seed=4, exchange_iters=500)
        for key in raw:
            assert _min_dist2(improved[key]) >= _min_dist2(raw[key]) - 1e-15

    @pytest.mark.parametrize("n", [2, 3, 15, 50])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_incremental_exchange_matches_full_recompute(self, seed, n):
        got = sliced_lhd(n, seed=seed, exchange_iters=500)
        want = _sliced_lhd_full_recompute(n, seed=seed, exchange_iters=500)
        for key in SLICES:
            assert got[key].tobytes() == want[key].tobytes()

    def test_deterministic(self):
        a = sliced_lhd(10, seed=4, exchange_iters=50)
        b = sliced_lhd(10, seed=4, exchange_iters=50, n_workers=2)
        assert list(b) == list(SLICES)
        for key in a:
            assert np.array_equal(a[key], b[key])

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
        got = matern52(np.array([0.0]), np.array([0.5]), np.array([1.0]), 2.0)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_diagonal_is_signal_variance(self):
        x = np.random.default_rng(0).random((6, 3))
        k = matern52(x, x, np.array([0.3, 1.0, 2.0]), 1.7)
        assert np.diag(k) == pytest.approx(np.full(6, 1.7))

    def test_symmetric_positive_definite(self):
        x = np.random.default_rng(1).random((20, 2))
        k = matern52(x, x, np.array([0.5, 0.5]), 1.0)
        assert np.allclose(k, k.T)
        assert np.linalg.eigvalsh(k).min() > -1e-10

    def test_lengthscale_anisotropy(self):
        # a long lengthscale in dimension 0 makes moves along it matter less
        k_along_0 = matern52(np.zeros(2), np.array([0.5, 0.0]), np.array([5.0, 0.2]), 1.0)
        k_along_1 = matern52(np.zeros(2), np.array([0.0, 0.5]), np.array([5.0, 0.2]), 1.0)
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


class TestLikelihoodGradient:
    @settings(max_examples=40, deadline=None)
    @given(
        x=st.integers(3, 12).flatmap(lambda n: arrays(float, (n, 3), elements=st.floats(0.0, 1.0))),
        y_scale=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**32 - 1),
        position=arrays(float, 4, elements=st.floats(0.0, 1.0)),
    )
    def test_matches_central_differences(self, x, y_scale, seed, position):
        """At random theta inside the fit's bounds, the analytic gradient equals a
        five-point central difference to 1e-5 relative.  Kernel matrices with a
        condition number above 1e6 are skipped: there the NLL's rounding noise,
        not the gradient, sets the difference quotient's error."""
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

        def nll(t):
            return _nll_grad_beta(t, x, y, noise)[0]

        h = 1e-3
        numeric = np.array(
            [(8 * (nll(theta + h * e) - nll(theta - h * e)) - (nll(theta + 2 * h * e) - nll(theta - 2 * h * e))) / (12 * h)
             for e in np.eye(4)]
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
    design = sliced_lhd(12, seed=31, exchange_iters=100)
    obs = generate_training_data(design, n_realisations=250, seed=32)
    return fit_gp(obs), obs


def _per_point_moments(pts, s, y, n_real, seed, domain):
    """The moments of ``_design_moments`` from one ``stream()`` and one kernel call per design point: its oracle."""
    totals, credits = [], []
    for l, (b_t, c_t) in enumerate(pts):
        credit = credit_cdf_inv(c_t)
        p0 = payment_probability(credit, s, False)
        p1 = payment_probability(credit, s, True)
        u = stream(seed, domain, s, y, l).random((n_real, HORIZON))
        totals.append(_simulate_paths(p0, p1, balance_cdf_inv(b_t), bool(y), u.T)[0])
        credits.append(credit)
    moments = _segment_moments(np.concatenate(totals), np.full(len(totals), n_real))
    moments = zip(pts, credits, *(m.tolist() for m in moments))
    return [(b_t, c_t, cr, v, kurt) for (b_t, c_t), cr, mean, v, kurt in moments if v > 1e-12 * max(mean**2, 1.0)]


class TestUnitEngine:
    """Design points run as the independent units of one chunked engine, with the draws of one stream each."""

    def test_training_observations_equal_per_point_oracle(self):
        design = sliced_lhd(12, seed=21, exchange_iters=50)  # 12 points of 1000 paths: three chunks a slice
        assert 12 * 1000 > 2 * _CHUNK_PATHS
        observations = generate_training_data(design, n_realisations=1000, seed=22)
        assert generate_training_data(design, n_realisations=1000, seed=22, n_workers=2) == observations
        expected = []
        for (s, y), pts in design.items():
            for b_t, c_t, credit, v, kurt in _per_point_moments(pts, s, y, 1000, 22, "train"):
                expected.append(
                    (float(b_t), float(c_t), credit, s, y, float(np.log(v)), max((kurt - 1.0) / 1000, 0.0), kurt)
                )
        got = [
            (o.b_tilde, o.c_tilde, o.credit_score, o.segment, o.y0, o.log_variance, o.noise_variance, o.kurtosis)
            for o in observations
        ]
        assert got == expected

    @pytest.mark.parametrize("n_points, n_real", [(9, 1500), (3, _CHUNK_PATHS + 7), (1, 5)])
    def test_validation_moments_equal_per_point_oracle(self, n_points, n_real):
        design = random_design(n_points, seed=23)
        for workers in (1, 2):
            got = dict(_design_moments(design, n_real, 24, "validate", n_workers=workers))
            assert list(got) == list(design)
            for (s, y), pts in design.items():
                assert got[(s, y)] == _per_point_moments(pts, s, y, n_real, 24, "validate")

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
        _, obs = tiny_emulator
        for o in obs:
            assert o.noise_variance == pytest.approx(max((o.kurtosis - 1.0) / 250, 0.0))  # the fixture's 250 realisations
            assert np.isfinite(o.log_variance)

    def test_all_slices_present(self, tiny_emulator):
        _, obs = tiny_emulator
        assert {(o.segment, o.y0) for o in obs} == set(SLICES)

    def test_too_few_realisations_rejected(self):
        with pytest.raises(ValueError):
            generate_training_data(sliced_lhd(3, seed=0, exchange_iters=0), n_realisations=3, seed=0)


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
            credit = float(pop.credit_score[i])
            one = emulator.predict_sigma2(
                balance_cdf(float(pop.balance[i])),
                credit_cdf(credit),
                int(pop.segment[i]),
                int(pop.paid_last_month[i]),
                credit=credit,
            )
            assert float(np.atleast_1d(one)[0]) == pytest.approx(sigma2[i], rel=1e-9)

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
            for b_t, c_t, credit, v, _ in dict(_design_moments(test, 200, 44, "validate"))[(s, y)]:
                mean, _ = emulator.predict_log(b_t, c_t, s, np.array([y]), credit=credit)
                log_err.append(float(mean[0]) - np.log(v))
                pred_sd.append(np.sqrt(np.exp(float(mean[0]))))
                samp_sd.append(np.sqrt(v))
        seg = metrics["per_segment"][2]
        assert seg["n"] == len(log_err)
        assert seg["log_rmse"] == pytest.approx(np.sqrt(np.mean(np.square(log_err))), rel=1e-9)
        assert seg["sd_correlation"] == pytest.approx(np.corrcoef(pred_sd, samp_sd)[0, 1], rel=1e-9)

    def test_features(self):
        f = _features(0.2, 0.5, 1, 0, credit_cdf_inv(0.5))
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
        k_star = matern52(x, gp.x_train, gp.lengthscales, gp.signal_variance)
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
        ],
    )
    def test_bad_field_named(self, tmp_path, edit, expected):
        path = tmp_path / "emulator.json"
        doc = GpEmulator(models={1: _synthetic_gp()}).to_json(path)
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
        obs = [
            TrainingObservation(
                b_tilde=0.5,
                c_tilde=0.5,
                credit_score=credit_cdf_inv(0.5),
                segment=1,
                y0=0,
                log_variance=1.0,
                noise_variance=0.01,
                kurtosis=3.0,
            )
        ] * 3
        with pytest.raises(ValueError, match="observations"):
            fit_gp(obs)

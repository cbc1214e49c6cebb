"""Sample moments, quantiles, mean/variance estimation and prediction intervals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from collsim.estimators import (
    PredictionInterval,
    VarianceInputs,
    estimate_mu,
    estimator_variance,
    monthly_bands,
    normal_quantile,
    prediction_interval,
    variance_inputs_from_samples,
)
from collsim.population import init_population
from collsim.simulator import HORIZON, RealisationPlan, _segment_moments, run_plan
from engine_totals import assert_near_fsum, moments_of, raw_totals
from exact_truth import exact


class TestSampleMoments:
    def test_hand_values(self):
        mean, variance, kurt = moments_of([[0.0, 2.0]])[:, 0]
        assert mean == 1.0
        assert variance == 2.0  # ddof=1
        assert math.isnan(kurt)  # needs at least 4 points

    def test_kurtosis_of_symmetric_sample(self):
        # {-1, -1, 1, 1}: m2 = 1, m4 = 1 -> kurtosis 1 (plain m4/m2^2, normal = 3)
        assert moments_of([[-1.0, -1.0, 1.0, 1.0]])[2, 0] == pytest.approx(1.0, abs=1e-14)

    def test_normal_kurtosis(self):
        g = np.random.Generator(np.random.Philox(key=9))
        assert moments_of([g.standard_normal(400000)])[2, 0] == pytest.approx(3.0, abs=0.05)

    def test_degenerate_kurtosis_is_nan(self):
        assert math.isnan(moments_of([[5.0, 5.0, 5.0, 5.0]])[2, 0])

    def test_segment_moments_equal_per_row_scalar_formula(self):
        # each row's moments are those of the row on its own, bit for bit, and within a few ulps of
        # the scalar formulas summed with math.fsum
        g = np.random.default_rng(4)
        for c in (1, 2, 3, 4, 7, 25):
            x = g.gamma(2.0, 40.0, (2000, c))
            x[0] = 5.0  # zero variance
            moments = np.array(_segment_moments(x.ravel(), np.full(len(x), c)))
            mean, variance, kurt = moments
            for k, row in enumerate(x):
                assert moments[:, k].tobytes() == np.array(_segment_moments(row, np.full(1, c)))[:, 0].tobytes()
                assert_near_fsum(mean[k], variance[k], kurt[k], row)
                if c < 2:
                    assert math.isnan(variance[k])
                    continue
                assert math.isnan(kurt[k]) == (c < 4 or variance[k] == 0.0)
            if c >= 2:
                assert variance[0] == 0.0


class TestNormalQuantile:
    def test_against_reference_inverse(self):
        for q in (0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.995, 0.9999):
            assert normal_quantile(q) == float(ndtri(q))

    def test_symmetry(self):
        assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), abs=1e-13)

    def test_invalid(self):
        for q in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                normal_quantile(q)


@pytest.fixture(scope="module")
def small_run():
    pop = init_population(150, (0.7, 0.3), seed=13)
    plan = RealisationPlan.equal(150, 6)
    out = run_plan(pop, plan, seed=5, store_monthly=True)
    return pop, plan, out


class TestEstimateMu:
    def test_portfolio_totals_sum_exactly(self, small_run):
        pop, plan, out = small_run
        mu = estimate_mu(out, pop)
        assert mu.per_portfolio.sum() == pytest.approx(mu.total, abs=1e-9)
        assert mu.per_month.sum() == pytest.approx(mu.total, abs=1e-6)

    def test_equals_mean_of_account_means(self, small_run):
        pop, plan, out = small_run
        mu = estimate_mu(out, pop)
        manual = sum(float(np.mean(t)) for t in raw_totals(pop, plan, seed=5))
        assert mu.total == pytest.approx(manual, abs=1e-9)


class TestEstimatorVariance:
    def test_hand_computed(self):
        pop = init_population(150, (0.7, 0.3), seed=13)
        counts = np.arange(2.0, 152.0)
        for pf in pop.portfolios:
            counts[pf.dependent_ids] = 4.0
        plan = RealisationPlan(counts=counts)
        s2 = np.linspace(1.0, 10.0, 150)
        s2_block = np.full(2, np.nan)
        expected = np.zeros(2)
        for j, pf in enumerate(pop.portfolios):
            expected[j] = (s2[pf.independent_ids] / counts[pf.independent_ids]).sum()
            if len(pf.dependent_ids):
                s2_block[j] = 3.0 + j
                expected[j] += s2_block[j] / 4.0
        inputs = VarianceInputs(sigma2_independent=s2, sigma2_block=s2_block)
        per_pf, total = estimator_variance(inputs, plan, pop)
        assert per_pf == pytest.approx(expected, rel=1e-12)
        assert total == pytest.approx(expected.sum(), rel=1e-12)

    def test_missing_block_variance_raises(self):
        pop = init_population(300, (1.0,), seed=8)
        assert len(pop.portfolios[0].dependent_ids) >= 1
        inputs = VarianceInputs(sigma2_independent=np.ones(300), sigma2_block=np.array([np.nan]))
        with pytest.raises(ValueError, match="block"):
            estimator_variance(inputs, RealisationPlan.equal(300, 2), pop)

    def test_zero_variance_accounts_allowed_zero_counts(self):
        pop = init_population(20, (1.0,), seed=3)
        s2 = np.ones(20)
        s2[3] = 0.0
        counts = np.full(20, 2.0)
        counts[3] = 0.0
        inputs = VarianceInputs(sigma2_independent=s2, sigma2_block=np.array([np.nan]))
        assert not len(pop.portfolios[0].dependent_ids)
        _, total = estimator_variance(inputs, RealisationPlan(counts=counts), pop)
        assert total == pytest.approx(19 / 2.0)


class TestAgainstExactTruth:
    """The paper's claim on independent accounts, against their exact moments (``bench/exact.py``)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_summed_sample_variances_are_unbiased_for_the_plan_variance(self, seed):
        # the sum of per-account sample variances over their counts, sum s_i^2 / R_i, estimates the
        # plan's variance sum sigma_i^2 / R_i: its z-score, with sd sqrt(sum Var(s_i^2) / R_i^2) from
        # the exact fourth moments, stays within 4
        pop = init_population(5000, (1.0,), seed=seed)
        indep = pop.independent_ids
        counts = np.ones(pop.n)  # each block runs once
        counts[indep] = np.random.default_rng(seed).integers(2, 41, len(indep))
        out = run_plan(pop, RealisationPlan(counts=counts), seed=seed + 100)
        r = counts[indep]
        mean, var, m4 = exact.total_moments(
            pop.credit_score[indep], pop.segment[indep], pop.paid_last_month[indep], pop.balance[indep]
        )
        sd = np.sqrt(np.sum((exact.sample_variance_sd(var, m4, r) / r) ** 2))
        z = (np.sum(out.variances[indep] / r) - np.sum(var / r)) / sd
        assert abs(z) <= 4.0, z
        z_mean = (np.sum(out.means[indep]) - np.sum(mean)) / np.sqrt(np.sum(var / r))
        assert abs(z_mean) <= 4.0, z_mean


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    share=st.floats(0.3, 1.0),
    seed=st.integers(0, 10**6),
    unit=st.integers(0, 10**6),
    growth=st.floats(1e-6, 1e6),
)
def test_estimator_variance_does_not_rise_when_a_count_grows(n, share, seed, unit, growth):
    pop = init_population(n, (share, 1.0 - share) if share < 1.0 else (1.0,), seed=seed)
    g = np.random.default_rng(seed)
    s2 = g.uniform(0.0, 1e6, n) * (g.random(n) < 0.9)  # some zero-variance accounts
    counts = g.uniform(0.5, 100.0, n)
    s2_block = np.full(pop.n_portfolios, np.nan)
    for j, pf in enumerate(pop.portfolios):
        if len(pf.dependent_ids):
            s2_block[j] = g.uniform(0.0, 1e8)
            counts[pf.dependent_ids] = g.uniform(0.5, 100.0)
    inputs = VarianceInputs(sigma2_independent=s2, sigma2_block=s2_block)
    # grow one unit's count: an independent account, or every account of its block
    i = unit % n
    grown = counts.copy()
    block = next((pf.dependent_ids for pf in pop.portfolios if i in pf.dependent_ids), [i])
    grown[block] += growth
    before, total_before = estimator_variance(inputs, RealisationPlan(counts=counts), pop)
    after, total_after = estimator_variance(inputs, RealisationPlan(counts=grown), pop)
    assert np.all(after <= before)
    assert total_after <= total_before


class TestVarianceInputsFromSamples:
    def test_matches_manual_sample_variances(self, small_run):
        pop, plan, out = small_run
        inputs = variance_inputs_from_samples(out, pop)
        totals = raw_totals(pop, plan, seed=5)
        for i in (0, 7, 42):
            assert inputs.sigma2_independent[i] == pytest.approx(np.var(totals[i], ddof=1))
        for j, blk in out.block_totals.items():
            assert inputs.sigma2_block[j] == pytest.approx(np.var(blk, ddof=1))

    def test_single_realisation_rejected_with_offenders(self):
        pop = init_population(10, (1.0,), seed=1)
        out = run_plan(pop, RealisationPlan.equal(10, 1), seed=0)
        with pytest.raises(ValueError, match=r"R_i >= 2"):
            variance_inputs_from_samples(out, pop)


class TestPredictionInterval:
    def test_interval_algebra(self):
        iv = PredictionInterval(center=100.0, half_width=10.0, coverage_p=0.95)
        assert iv.lower == 90.0 and iv.upper == 110.0
        assert iv.contains(90.0) and iv.contains(110.0) and not iv.contains(89.999)
        assert iv.relative_uncertainty == pytest.approx(0.2)

    def test_half_width_formula(self, small_run):
        # half width = z * sqrt(sum sigma2_i (1 + 1/R_i) + sum sigma2_D (1 + 1/r_D))
        pop, plan, out = small_run
        inputs = variance_inputs_from_samples(out, pop)
        iv = prediction_interval(1000.0, inputs, plan, pop, p=0.9)
        v = float((inputs.sigma2_independent[pop.independent_ids] * (1 + 1 / 6)).sum())
        for j, pf in enumerate(pop.portfolios):
            if len(pf.dependent_ids):
                v += inputs.sigma2_block[j] * (1 + 1 / 6)
        assert iv.half_width == pytest.approx(normal_quantile(0.95) * math.sqrt(v), rel=1e-12)
        assert iv.center == 1000.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_half_width_formula_on_an_unequal_plan_with_blocks(self, seed):
        # the per-unit formula sum sigma2_i (1 + 1/R_i) + sum sigma2_D (1 + 1/r_j), summed unit by unit
        pop = init_population(400, (0.5, 0.3, 0.2), seed=seed)
        assert all(len(pf.dependent_ids) for pf in pop.portfolios)
        g = np.random.default_rng(seed)
        s2 = g.uniform(0.0, 1e6, pop.n) * (g.random(pop.n) < 0.9)  # some zero-variance accounts
        counts = g.integers(1, 40, pop.n).astype(float)
        s2_block = g.uniform(1e3, 1e8, pop.n_portfolios)
        for pf in pop.portfolios:
            counts[pf.dependent_ids] = g.integers(1, 40)
        inputs = VarianceInputs(sigma2_independent=s2, sigma2_block=s2_block)
        v = math.fsum(s2[i] * (1 + 1 / counts[i]) for i in pop.independent_ids)
        v += math.fsum(s2_block[j] * (1 + 1 / counts[pf.dependent_ids[0]]) for j, pf in enumerate(pop.portfolios))
        iv = prediction_interval(50.0, inputs, RealisationPlan(counts=counts), pop, p=0.8)
        assert iv.half_width == pytest.approx(normal_quantile(0.9) * math.sqrt(v), rel=1e-12)

    def test_given_variances_take_single_realisations(self):
        # variances that do not come from the run (emulator, pilots) need no second realisation
        pop = init_population(10, (1.0,), seed=3)
        assert not len(pop.portfolios[0].dependent_ids)
        em = VarianceInputs(sigma2_independent=np.ones(10), sigma2_block=np.array([np.nan]))
        iv = prediction_interval(0.0, em, RealisationPlan.equal(10, 1), pop)
        assert iv.half_width > 0

    def test_invalid_coverage(self, small_run):
        pop, plan, out = small_run
        inputs = variance_inputs_from_samples(out, pop)
        with pytest.raises(ValueError):
            prediction_interval(0.0, inputs, plan, pop, p=1.0)


class TestMonthlyBands:
    def test_bands_are_coherent(self, small_run):
        pop, plan, out = small_run
        bands = monthly_bands(out, p=0.95)
        assert len(bands) == HORIZON
        mu = estimate_mu(out, pop)
        centers = np.array([b.center for b in bands])
        assert centers == pytest.approx(mu.per_month, abs=1e-6)
        assert all(b.half_width >= 0 for b in bands)

    def test_requires_monthly_stats(self, small_run):
        pop, plan, _ = small_run
        out = run_plan(pop, plan, seed=5, store_monthly=False)
        with pytest.raises(ValueError, match="store_monthly"):
            monthly_bands(out)

    def test_requires_equal_plan(self, small_run):
        pop, plan, out = small_run
        counts = plan.counts.copy()
        indep = pop.independent_ids
        counts[indep[0]] = 9.0
        out = run_plan(pop, RealisationPlan(counts=counts), seed=5, store_monthly=True)
        with pytest.raises(ValueError, match="equal"):
            monthly_bands(out)

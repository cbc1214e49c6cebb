"""The exact reference against brute-force enumeration and against collsim."""

import itertools

import numpy as np
import pytest

import exact


def brute_force_moments(p0, p1, paid0, balance, horizon):
    """Enumerate all 2**horizon payment paths of one account."""
    dist = {}
    for path in itertools.product((0, 1), repeat=horizon):
        prob, prev = 1.0, paid0
        for y in path:
            p = p1 if prev else p0
            prob *= p if y else 1.0 - p
            prev = y
        k = sum(path)
        dist[k] = dist.get(k, 0.0) + prob
    k = np.arange(horizon + 1)
    pmf = np.array([dist.get(i, 0.0) for i in k])
    x = np.minimum(exact.PAYMENT_CAP * k, balance)
    mean = float((pmf * x).sum())
    var = float((pmf * (x - mean) ** 2).sum())
    m4 = float((pmf * (x - mean) ** 4).sum())
    return pmf, mean, var, m4


@pytest.mark.parametrize("horizon", [1, 2, 5, 10])
def test_matches_enumeration(horizon):
    g = np.random.default_rng(horizon)
    n = 12
    credit = g.normal(0.0, 3.0, n)
    segment = g.integers(1, 4, n)
    paid0 = g.random(n) < 0.5
    balance = g.uniform(40.0, 600.0, n)
    p0, p1 = exact.payment_probabilities(credit, segment)
    pmf = exact.payment_count_pmf(p0, p1, paid0, horizon)
    mean, var, m4 = exact.total_moments(credit, segment, paid0, balance, horizon=horizon, chunk=5)
    for i in range(n):
        bf_pmf, bf_mean, bf_var, bf_m4 = brute_force_moments(p0[i], p1[i], paid0[i], balance[i], horizon)
        np.testing.assert_allclose(pmf[i], bf_pmf, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose([mean[i], var[i], m4[i]], [bf_mean, bf_var, bf_m4], rtol=1e-10, atol=1e-9)


def test_pmf_is_a_distribution_at_full_horizon():
    p0, p1 = exact.payment_probabilities(np.linspace(-6, 6, 50), np.tile([1, 2, 3], 17)[:50])
    pmf = exact.payment_count_pmf(p0, p1, np.arange(50) % 2 == 0)
    assert pmf.shape == (50, exact.HORIZON + 1)
    assert np.all(pmf >= 0)
    np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=1e-12)


def test_rejects_unknown_segment():
    with pytest.raises(ValueError):
        exact.payment_probabilities([0.0], [4])


def test_agrees_with_collsim_monte_carlo():
    """The restated model is collsim's: Monte Carlo totals match the exact moments."""
    from collsim import RealisationPlan, init_population, run_plan

    r = 400
    pop = init_population(300, (1.0,), seed=5)
    out = run_plan(pop, RealisationPlan.equal(pop.n, r), seed=3)
    ind = pop.independent_ids
    mean, var, m4 = exact.total_moments(
        pop.credit_score[ind], pop.segment[ind], pop.paid_last_month[ind], pop.balance[ind]
    )
    means = np.array([out.totals[i].mean() for i in ind])
    s2 = np.array([out.totals[i].var(ddof=1) for i in ind])
    z_mean = (means.sum() - mean.sum()) / np.sqrt(var.sum() / r)
    z_var = (s2.sum() - var.sum()) / np.sqrt((exact.sample_variance_sd(var, m4, r) ** 2).sum())
    assert abs(z_mean) < 5 and abs(z_var) < 5

"""Uncapped optimal allocation, population mapping and rounding."""

import numpy as np
import pytest

from collsim.allocator import (
    constrained_problem_for_population,
    pilot_block_variance,
    plan_for_population,
    round_plan,
)
from collsim.constrained import (
    ConstrainedProblem,
    PortfolioInputs,
    active_set_solve,
    round_counts,
    stationarity_solution,
)
from collsim.population import init_population
from collsim.simulator import DEFAULT_SCHEDULE, RealisationPlan


def _uncapped(budget, *portfolios):
    """The problem with no caps and its stationary plan with an empty active set."""
    problem = ConstrainedProblem(portfolios=portfolios, caps=np.full(len(portfolios), np.inf), budget=budget)
    return problem, stationarity_solution(problem, frozenset())


class TestOptimalAllocation:
    def test_hand_instance(self):
        # sigmas (3, 4), one block with sigma 6 and 4 members:
        # G = 3 + 4 + 2*6 = 19; C = 38 -> scale 2
        problem, plan = _uncapped(
            38.0, PortfolioInputs(sigma_independent=np.array([3.0, 4.0]), sigma_block=6.0, block_size=4)
        )
        assert plan.r_independent[0] == pytest.approx([6.0, 8.0])
        assert plan.r_block == pytest.approx([6.0])  # (6/2) * 2
        assert plan.cost(problem) == pytest.approx(38.0)

    def test_kkt_ratio_constant(self):
        # at the optimum, sigma_i^2 / R_i^2 is the same for every unit
        g = np.random.Generator(np.random.Philox(key=5))
        sigma = g.uniform(1, 50, size=8)
        sigma_block = g.uniform(1, 50, size=2)
        block_size = np.array([3, 5])
        _, plan = _uncapped(
            500.0,
            PortfolioInputs(sigma_independent=sigma, sigma_block=sigma_block[0], block_size=3),
            PortfolioInputs(sigma_independent=np.array([]), sigma_block=sigma_block[1], block_size=5),
        )
        ratios = np.concatenate(
            [sigma**2 / plan.r_independent[0] ** 2, sigma_block**2 / (block_size * plan.r_block**2)]
        )
        assert np.ptp(ratios) / ratios[0] < 1e-12

    def test_beats_random_plans(self):
        g = np.random.Generator(np.random.Philox(key=6))
        sigma = g.uniform(1, 100, size=5)
        problem, plan = _uncapped(100.0, PortfolioInputs(sigma_independent=sigma))
        v_opt = plan.objective(problem)
        for _ in range(2000):
            w = g.dirichlet(np.ones(5))
            v = float((sigma**2 / (100.0 * w)).sum())
            assert v >= v_opt * (1 - 1e-12)

    def test_exhausts_budget(self):
        problem, plan = _uncapped(
            123.0, PortfolioInputs(sigma_independent=np.array([1.0, 2.0, 3.0]), sigma_block=5.0, block_size=7)
        )
        assert plan.cost(problem) == pytest.approx(123.0)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            _uncapped(10.0, PortfolioInputs(sigma_independent=np.zeros(3)))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            _uncapped(0.0, PortfolioInputs(sigma_independent=np.array([1.0])))
        with pytest.raises(ValueError):
            _uncapped(1.0, PortfolioInputs(sigma_independent=np.array([-1.0])))


class TestRounding:
    def test_rounding_rules(self):
        # fractions below one round up to one; otherwise half away from zero
        out = round_counts([0.001, 0.4, 0.9999, 1.0, 1.4, 1.5, 2.5, 7.49])
        assert list(out) == [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 7.0]

    def test_zero_rounds_to_one(self):
        assert list(round_counts([0.0])) == [1.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            round_counts([-0.1])

    def test_round_plan_keeps_blocks_equal(self):
        pop = init_population(300, (1.0,), seed=8)
        dep = pop.portfolios[0].dependent_ids
        assert len(dep) >= 2
        counts = np.full(300, 2.7)
        counts[dep] = 3.4
        plan = round_plan(RealisationPlan(counts=counts), pop)
        assert np.all(plan.counts[dep] == 3.0)
        plan.validate_for(pop)
        assert plan.is_integer


class TestPlanForPopulation:
    def test_maps_pooled_solution_to_ids(self):
        pop = init_population(200, (0.6, 0.4), seed=12)
        g = np.random.Generator(np.random.Philox(key=7))
        sigma = g.uniform(1, 10, size=200)
        sigma_block = np.full(2, np.nan)
        for j, pf in enumerate(pop.portfolios):
            if len(pf.dependent_ids):
                sigma_block[j] = 20.0 + j
        plan = plan_for_population(pop, sigma, sigma_block, budget=5000.0)
        assert plan.cost == pytest.approx(5000.0)
        # proportionality within the independents
        indep = pop.independent_ids
        ratio = plan.counts[indep] / sigma[indep]
        assert np.ptp(ratio) / ratio[0] < 1e-12
        plan_int = round_plan(plan, pop)
        plan_int.validate_for(pop)
        # the closed form R_i = sigma_i C / G, G summed over units
        block_weight = sum(
            np.sqrt(len(pf.dependent_ids)) * sigma_block[j]
            for j, pf in enumerate(pop.portfolios)
            if len(pf.dependent_ids)
        )
        scale = 5000.0 / (sigma[indep].sum() + block_weight)
        assert plan.counts[indep] == pytest.approx(sigma[indep] * scale, rel=1e-14)

    def test_empty_portfolio(self):
        # a portfolio with no accounts has gamma = 0: it gets no budget and never binds a cap
        pop = init_population(100, (0.99, 0.01), seed=4)
        assert not (pop.portfolio == 1).any()
        sigma = np.random.Generator(np.random.Philox(key=8)).uniform(1, 10, size=100)
        sigma_block = np.array([30.0 if len(pop.portfolios[0].dependent_ids) else np.nan, np.nan])
        plan = plan_for_population(pop, sigma, sigma_block, budget=2500.0)
        assert plan.cost == pytest.approx(2500.0)
        round_plan(plan, pop).validate_for(pop)
        problem = constrained_problem_for_population(pop, sigma, sigma_block, caps=(1e9, 1e-6), budget=2500.0)
        solution = active_set_solve(problem)
        assert solution.active == frozenset()
        assert solution.plan.portfolio_variances(problem)[1] == 0.0
        assert solution.plan.cost(problem) == pytest.approx(2500.0)


class TestPilotBlockVariance:
    def test_reproducible_and_positive(self):
        pop = init_population(400, (1.0,), seed=8)
        assert len(pop.portfolios[0].dependent_ids) >= 2
        v1 = pilot_block_variance(pop, 0, DEFAULT_SCHEDULE, n_pilot=40, seed=6)
        v2 = pilot_block_variance(pop, 0, DEFAULT_SCHEDULE, n_pilot=40, seed=6)
        assert v1 == v2
        assert v1 > 0

    def test_requires_two_pilots(self):
        pop = init_population(400, (1.0,), seed=8)
        with pytest.raises(ValueError):
            pilot_block_variance(pop, 0, DEFAULT_SCHEDULE, n_pilot=1, seed=6)

"""Cap-constrained allocation: stationarity algebra, active-set iteration, oracle."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collsim.constrained import (
    ConstrainedProblem,
    InfeasibleProblemError,
    PortfolioInputs,
    active_set_solve,
    brute_force_oracle,
    check_slater,
    kkt_report,
    plan_to_csv,
    problem_from_json,
    solution_to_json,
    stationarity_solution,
)
from collsim.cli import _random_problem
from collsim.population import Population
from collsim.rng import stream
from collsim.simulator import RealisationPlan


class TestProblemConstants:
    def test_gamma_and_eps(self):
        pf = PortfolioInputs(
            sigma_independent=np.array([3.0, 4.0]), sigma_block=6.0, block_size=4
        )
        assert pf.gamma == pytest.approx(3 + 4 + 2 * 6)
        problem = ConstrainedProblem(portfolios=(pf,), caps=np.array([19.0 / 2]), budget=100.0)
        assert problem.eps == pytest.approx([2.0])

    def test_validation(self):
        pf = PortfolioInputs(sigma_independent=np.array([1.0]))
        with pytest.raises(ValueError):
            ConstrainedProblem(portfolios=(pf,), caps=np.array([0.0]), budget=10.0)
        with pytest.raises(ValueError, match=r"caps must be positive \(use np.inf for no cap\), got \[nan\]"):
            ConstrainedProblem(portfolios=(pf,), caps=np.array([np.nan]), budget=10.0)
        with pytest.raises(ValueError):
            ConstrainedProblem(portfolios=(pf,), caps=np.array([1.0]), budget=0.0)
        with pytest.raises(ValueError):
            ConstrainedProblem(
                portfolios=(PortfolioInputs(sigma_independent=np.zeros(2)),),
                caps=np.array([1.0]),
                budget=10.0,
            )


class TestStationaritySolution:
    def test_unconstrained_matches_proportional_allocation(self):
        # with no active caps, every unit count is sigma-proportional with common alpha = C / sum(gamma)
        pf1 = PortfolioInputs(sigma_independent=np.array([3.0, 4.0]))
        pf2 = PortfolioInputs(sigma_independent=np.array([5.0]), sigma_block=6.0, block_size=4)
        problem = ConstrainedProblem(
            portfolios=(pf1, pf2), caps=np.array([np.inf, np.inf]), budget=120.0
        )
        plan = stationarity_solution(problem, frozenset())
        alpha = 120.0 / (7 + 17)
        assert plan.r_independent[0] == pytest.approx([3 * alpha, 4 * alpha])
        assert plan.r_independent[1] == pytest.approx([5 * alpha])
        assert plan.r_block[1] == pytest.approx(6.0 / 2.0 * alpha)
        assert plan.cost(problem) == pytest.approx(120.0)

    def test_active_portfolio_meets_cap_exactly(self):
        pf1 = PortfolioInputs(sigma_independent=np.array([3.0, 4.0]))
        pf2 = PortfolioInputs(sigma_independent=np.array([10.0]))
        problem = ConstrainedProblem(portfolios=(pf1, pf2), caps=np.array([2.0, np.inf]), budget=100.0)
        plan = stationarity_solution(problem, frozenset({0}))
        variances = plan.portfolio_variances(problem)
        assert variances[0] == pytest.approx(2.0, rel=1e-12)
        assert plan.cost(problem) == pytest.approx(100.0)

    def test_zero_gamma_portfolio_gets_nothing(self):
        # gamma = 0 adds nothing to d_B, has variance 0 (not NaN) and never binds its cap
        zero = PortfolioInputs(sigma_independent=np.zeros(2), sigma_block=0.0, block_size=3)
        pf = PortfolioInputs(sigma_independent=np.array([3.0, 4.0]))
        problem = ConstrainedProblem(portfolios=(zero, pf), caps=np.array([1e-9, 2.0]), budget=70.0)
        plan = stationarity_solution(problem, frozenset())
        assert plan.r_independent[1] == pytest.approx([30.0, 40.0])
        assert list(plan.r_independent[0]) == [0.0, 0.0] and plan.r_block[0] == 0.0
        assert list(plan.portfolio_variances(problem)) == pytest.approx([0.0, 0.7])  # gamma / alpha = 7 / 10
        # with every portfolio that has variability active, the zero one keeps zero counts
        capped = stationarity_solution(problem, frozenset({1}))
        assert list(capped.r_independent[0]) == [0.0, 0.0] and capped.r_block[0] == 0.0
        assert capped.portfolio_variances(problem)[1] == pytest.approx(2.0)
        solution = active_set_solve(problem)
        assert solution.active == frozenset()
        assert kkt_report(problem, solution)["stationarity_residual"] < 1e-12
        _, o_obj, _ = brute_force_oracle(problem)
        assert solution.plan.objective(problem) == pytest.approx(o_obj, rel=1e-12)

    def test_budget_exhaustion_raises(self):
        pf1 = PortfolioInputs(sigma_independent=np.array([10.0]))
        pf2 = PortfolioInputs(sigma_independent=np.array([10.0]))
        problem = ConstrainedProblem(portfolios=(pf1, pf2), caps=np.array([0.5, np.inf]), budget=100.0)
        # cap 0.5 needs gamma*eps = 100/0.5 = 200 > budget
        with pytest.raises(InfeasibleProblemError):
            stationarity_solution(problem, frozenset({0}))


class TestSlater:
    def test_margin(self):
        pf = PortfolioInputs(sigma_independent=np.array([10.0]))  # gamma 10
        problem = ConstrainedProblem(portfolios=(pf,), caps=np.array([2.0]), budget=60.0)
        holds, margin = check_slater(problem)
        assert holds and margin == pytest.approx(60.0 - 50.0)

    def test_infeasible_detected(self):
        pf = PortfolioInputs(sigma_independent=np.array([10.0]))
        problem = ConstrainedProblem(portfolios=(pf,), caps=np.array([2.0]), budget=40.0)
        holds, margin = check_slater(problem)
        assert not holds and margin == pytest.approx(-10.0)
        with pytest.raises(InfeasibleProblemError, match="Slater"):
            active_set_solve(problem)


class TestActiveSetSolve:
    def test_matches_brute_force_on_random_instances(self):
        g = stream(99, "constrained-tests")
        for k in range(60):
            problem = _random_problem(g, int(g.integers(2, 7)))
            solution = active_set_solve(problem)
            oracle = brute_force_oracle(problem)
            assert oracle is not None, k
            _, o_obj, _ = oracle
            assert solution.plan.objective(problem) == pytest.approx(o_obj, rel=1e-9), k

    def test_kkt_conditions_hold(self):
        g = stream(98, "constrained-tests")
        for k in range(40):
            problem = _random_problem(g, int(g.integers(2, 7)))
            solution = active_set_solve(problem)
            report = kkt_report(problem, solution)
            assert report["stationarity_residual"] < 1e-9, k
            assert report["primal_cost_residual"] < 1e-9, k
            assert report["max_cap_violation"] < 1e-9, k
            assert report["min_delta"] >= -1e-12, k
            assert report["max_complementary_slackness"] < 1e-9, k

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cap", [100.0, 1.0])
    def test_kkt_report_ignores_infinite_caps(self, cap):
        # sigmas (1, 2) and (5) at budget 30: the cap of 100 is slack, the cap of 1 binds
        problem = ConstrainedProblem(
            portfolios=(PortfolioInputs(np.array([1.0, 2.0])), PortfolioInputs(np.array([5.0]))),
            caps=np.array([np.inf, cap]),
            budget=30.0,
        )
        solution = active_set_solve(problem)
        assert solution.active == (frozenset({1}) if cap == 1.0 else frozenset())
        report = kkt_report(problem, solution)
        assert 0.0 <= report["max_cap_violation"] < 1e-12
        assert 0.0 <= report["max_complementary_slackness"] < 1e-12

    def test_alpha_strictly_decreases(self):
        g = stream(97, "constrained-tests")
        seen_multi = 0
        for _ in range(60):
            problem = _random_problem(g, int(g.integers(3, 7)))
            solution = active_set_solve(problem)
            at = solution.alpha_trace
            assert all(b < a for a, b in zip(at, at[1:]))
            seen_multi += len(at) > 1
        assert seen_multi > 5  # the test actually exercised multi-pass solves

    def test_terminates_within_p_passes(self):
        g = stream(96, "constrained-tests")
        for _ in range(40):
            n = int(g.integers(2, 7))
            problem = _random_problem(g, n)
            solution = active_set_solve(problem)
            assert solution.iterations <= n

    def test_no_caps_active_with_loose_caps(self):
        pf = PortfolioInputs(sigma_independent=np.array([1.0, 2.0]))
        problem = ConstrainedProblem(portfolios=(pf,), caps=np.array([np.inf]), budget=30.0)
        solution = active_set_solve(problem)
        assert solution.active == frozenset()
        assert solution.plan.r_independent[0] == pytest.approx([10.0, 20.0])


@st.composite
def _problems(draw):
    """Random problems with 1-5 portfolios, some of them with gamma = 0, some caps infinite, Slater holding."""
    sigmas = st.just(0.0) | st.floats(0.01, 300.0)
    portfolios, eps = [], []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(0, 5))
        pf = PortfolioInputs(
            sigma_independent=np.array(draw(st.lists(sigmas, max_size=4))),
            sigma_block=draw(sigmas) if size else 0.0,
            block_size=size,
        )
        portfolios.append(pf)
        eps.append(draw(st.none() | st.floats(0.05, 2.0)))  # None: no cap
    gamma = np.array([pf.gamma for pf in portfolios])
    assume(np.any(gamma > 0))
    # a zero-variance portfolio's cap is any positive number
    caps = np.array([np.inf if e is None else (g / e if g > 0 else e) for g, e in zip(gamma, eps)])
    spend = float(sum(g * e for g, e in zip(gamma, eps) if e is not None))
    budget = spend * draw(st.floats(1 + 1e-9, 3.0)) if spend > 0 else draw(st.floats(1.0, 1e4))
    return ConstrainedProblem(portfolios=tuple(portfolios), caps=caps, budget=budget)


@settings(max_examples=200, deadline=None)
@given(_problems())
def test_active_set_matches_brute_force_oracle(problem):
    solution = active_set_solve(problem)
    oracle = brute_force_oracle(problem)
    assert oracle is not None
    _, o_obj, _ = oracle
    assert solution.plan.objective(problem) == pytest.approx(o_obj, rel=1e-9)
    assert solution.plan.cost(problem) == pytest.approx(problem.budget, rel=1e-9)
    caps = np.asarray(problem.caps, dtype=float)
    assert np.all(solution.plan.portfolio_variances(problem) <= caps * (1 + 1e-9))
    # Slater leaves some live portfolio inactive on every pass, so the multipliers are always defined
    live = [j for j, pf in enumerate(problem.portfolios) if pf.gamma > 0]
    assert any(j not in solution.active for j in live)
    assert np.isfinite(solution.lam) and solution.lam > 0
    assert solution.iterations == len(solution.alpha_trace)


class TestWireFormats:
    def _problem(self, tmp_path):
        path = tmp_path / "problem.json"
        doc = {
            "budget": 500,
            "portfolios": [
                {"sigma_independent": [30, 40], "sigma_block": 60, "block_size": 3, "cap": 900},
                {"sigma_independent": [100, 20], "cap": 700},
            ],
        }
        path.write_text(json.dumps(doc))
        return problem_from_json(path)

    def test_problem_round_trip(self, tmp_path):
        problem = self._problem(tmp_path)
        assert problem.n_portfolios == 2
        assert problem.budget == 500.0
        assert problem.portfolios[0].block_size == 3

    def test_solution_json_and_csv(self, tmp_path):
        problem = self._problem(tmp_path)
        solution = active_set_solve(problem)
        doc = solution_to_json(problem, solution)
        back = json.loads(json.dumps(doc))
        assert back["active_set"] == doc["active_set"]
        assert back["objective"] == pytest.approx(solution.plan.objective(problem))
        plan_to_csv(problem, solution, tmp_path / "plan.csv")
        lines = (tmp_path / "plan.csv").read_text().strip().splitlines()
        assert lines[0] == "unit_id,kind,count_real,count_int"
        assert len(lines) == 1 + 1 + 2 + 2  # block row + 2 + 2 independents

    def test_plan_csv_rows(self, tmp_path):
        # account 0 is independent and 1-2 form portfolio 0's block, yet the block's row comes first
        pop = Population(
            balance=np.full(5, 1000.0),
            credit_score=np.zeros(5),
            segment=np.array([1, 3, 3, 1, 2]),
            eligible=np.array([True, True, True, False, True]),
            paid_last_month=np.zeros(5, dtype=bool),
            portfolio=np.array([0, 0, 0, 1, 1]),
            n_portfolios=2,
        )
        RealisationPlan(np.array([0.3, 2.5, 2.5, 3.49999, 7.0])).to_csv(pop, tmp_path / "plan.csv")
        assert (tmp_path / "plan.csv").read_text().splitlines() == [
            "unit_id,kind,count_real,count_int",
            "block-0,block,2.5,3",
            "0,independent,0.3,1",
            "3,independent,3.49999,3",
            "4,independent,7.0,7",
        ]
        problem = self._problem(tmp_path)
        plan_to_csv(problem, active_set_solve(problem), tmp_path / "solved.csv")
        assert (tmp_path / "solved.csv").read_text().splitlines() == [
            "unit_id,kind,count_real,count_int",
            "block-0,block,58.92871677394731,59",
            "p0-0,independent,51.03376573865654,51",
            "p0-1,independent,68.04502098487538,68",
            "p1-0,independent,170.11255246218846,170",
            "p1-1,independent,34.02251049243769,34",
        ]

"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (visible even under output capture) and
then asserts.  The suite is heavy; the coverage criterion alone runs 3000
repeated studies and takes several minutes on one CPU.
"""

import math

import numpy as np
import pytest

from collsim.allocator import (
    constrained_plan_for_population,
    constrained_problem_for_population,
    round_plan,
)
from collsim.cli import _random_problem
from collsim.constrained import (
    ConstrainedProblem,
    PortfolioInputs,
    active_set_solve,
    brute_force_oracle,
    kkt_report,
    stationarity_solution,
)
from collsim.emulator import SegmentGP, _simulate_point, validate_emulator
from collsim.estimators import VarianceInputs, VarianceSource, estimator_variance
from collsim.experiments import (
    ExperimentConfig,
    coverage_study,
    reference_sigmas,
    train_emulator_experiment,
)
from collsim.population import init_population
from collsim.rng import stream
from collsim.simulator import RealisationPlan, run_plan

ACC_SEED = 2026
COVERAGE_REPS = 1000


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


@pytest.fixture(scope="module")
def population_99_1():
    return init_population(1000, (0.99, 0.01), seed=2)


@pytest.fixture(scope="module")
def reference(population_99_1):
    """High-accuracy per-unit sigmas from 5000-realisation pilots."""
    sigma, sigma_block = reference_sigmas(population_99_1, n_realisations=5000, seed=ACC_SEED)
    return sigma, sigma_block


def _gammas(population, sigma, sigma_block):
    out = []
    for j, pf in enumerate(population.portfolios):
        g = sigma[pf.independent_ids].sum()
        if len(pf.dependent_ids):
            g += math.sqrt(len(pf.dependent_ids)) * sigma_block[j]
        out.append(float(g))
    return np.array(out)


def test_criterion_1_interval_coverage_and_width(capsys):
    """95% intervals cover the realised total within 2pp at three population
    sizes, with relative uncertainty near its references and decreasing in N."""
    targets = {100: 0.124, 250: 0.062, 1000: 0.034}
    results = {}
    for n in (100, 250, 1000):
        cfg = ExperimentConfig(
            name=f"acc1-n{n}", n_accounts=n, repetitions=COVERAGE_REPS, seed=ACC_SEED
        )
        results[n] = coverage_study(cfg)
    cov_ok = all(abs(results[n]["coverage"] - 0.95) <= 0.02 for n in results)
    rel = {n: results[n]["relative_uncertainty"] for n in results}
    rel_ok = all(abs(rel[n] / targets[n] - 1.0) <= 0.25 for n in results)
    dec_ok = rel[100] > rel[250] > rel[1000]
    detail = ", ".join(
        f"N={n}: cov={results[n]['coverage']:.3f} rel={rel[n]:.4f} (target {targets[n]})"
        for n in results
    )
    ok = cov_ok and rel_ok and dec_ok
    _report(capsys, f"ACCEPTANCE 1 interval coverage: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert cov_ok, detail
    assert rel_ok, detail
    assert dec_ok, detail


def test_criterion_2_variance_reduction(capsys, population_99_1, reference):
    """The optimal plan reduces estimator variance by 20-45% versus the equal
    plan at N=1000, using reference sigmas from 5000-realisation pilots."""
    pop = population_99_1
    sigma, sigma_block = reference
    budget = 25.0 * pop.n
    var_eq = float((sigma**2).sum()) / 25.0 + float(np.nansum(sigma_block**2)) / 25.0
    var_opt = float(_gammas(pop, sigma, sigma_block).sum()) ** 2 / budget
    reduction = 1.0 - var_opt / var_eq
    ok = 0.20 <= reduction <= 0.45
    _report(
        capsys,
        f"ACCEPTANCE 2 variance reduction: {'PASS' if ok else 'FAIL'} "
        f"[reduction={100 * reduction:.1f}%, equal={var_eq:.3e}, optimal={var_opt:.3e}]",
    )
    assert ok, reduction


def test_criterion_3_active_set_against_oracle(capsys):
    """On 200 random instances with 2-6 portfolios the active-set solver
    matches brute-force enumeration, satisfies the KKT conditions and its
    interior multiplier decreases strictly across passes."""
    g = stream(ACC_SEED, "acceptance-oracle")
    worst_obj, worst_kkt, min_delta = 0.0, 0.0, 0.0
    alpha_ok = True
    for k in range(200):
        problem = _random_problem(g, int(g.integers(2, 7)))
        solution = active_set_solve(problem)
        oracle = brute_force_oracle(problem)
        assert oracle is not None, k
        _, o_obj, _ = oracle
        worst_obj = max(worst_obj, abs(solution.plan.objective(problem) - o_obj) / abs(o_obj))
        report = kkt_report(problem, solution)
        worst_kkt = max(
            worst_kkt,
            report["stationarity_residual"],
            report["primal_cost_residual"],
            report["max_cap_violation"],
            report["max_complementary_slackness"],
        )
        min_delta = min(min_delta, report["min_delta"])
        at = solution.alpha_trace
        alpha_ok = alpha_ok and all(b < a for a, b in zip(at, at[1:]))
    ok = worst_obj <= 1e-8 and worst_kkt < 1e-8 and min_delta >= -1e-12 and alpha_ok
    _report(
        capsys,
        f"ACCEPTANCE 3 active-set vs oracle: {'PASS' if ok else 'FAIL'} "
        f"[max objective err={worst_obj:.2e}, max KKT residual={worst_kkt:.2e}, "
        f"min delta={min_delta:.2e}, alpha decreasing={alpha_ok}]",
    )
    assert ok


def test_criterion_4_portfolio_protection(capsys, population_99_1, reference):
    """With caps (1000^2, 50^2) on a 99/1 split the real-valued plan meets the
    caps exactly, the rounded plan stays within 1.1x, and the protected small
    portfolio receives at least twice the mean realisations of the large one."""
    pop = population_99_1
    sigma, sigma_block = reference
    caps = (1000.0**2, 50.0**2)
    problem = constrained_problem_for_population(pop, sigma, sigma_block, caps, budget=25.0 * pop.n)
    solution = active_set_solve(problem)
    real_plan = constrained_plan_for_population(pop, solution.plan)
    int_plan = round_plan(real_plan, pop)
    inputs = VarianceInputs(
        sigma2_independent=sigma**2,
        sigma2_block=np.asarray(sigma_block) ** 2,
        source=VarianceSource.REFERENCE,
    )
    var_real, _ = estimator_variance(inputs, real_plan, pop)
    var_int, _ = estimator_variance(inputs, int_plan, pop)
    caps_arr = np.array(caps)
    real_ok = bool(np.all(var_real <= caps_arr * (1 + 1e-9)))
    int_ok = bool(np.all(var_int <= 1.1 * caps_arr))
    mean_r = [float(int_plan.counts[pop.portfolio == j].mean()) for j in (0, 1)]
    ratio_ok = mean_r[1] >= 2.0 * mean_r[0]
    ok = real_ok and int_ok and ratio_ok
    _report(
        capsys,
        f"ACCEPTANCE 4 portfolio protection: {'PASS' if ok else 'FAIL'} "
        f"[active={sorted(solution.active)}, sd real=({math.sqrt(var_real[0]):.1f}, {math.sqrt(var_real[1]):.2f}), "
        f"sd rounded=({math.sqrt(var_int[0]):.1f}, {math.sqrt(var_int[1]):.2f}), "
        f"mean realisations=({mean_r[0]:.1f}, {mean_r[1]:.1f})]",
    )
    assert real_ok, var_real
    assert int_ok, var_int
    assert ratio_ok, mean_r


def test_criterion_5_closed_form_optimality(capsys):
    """On 100 random 5-account problems the closed-form allocation (the
    stationary plan with no caps) beats 10^4 random budget splits and
    equalizes sigma_i^2 / R_i^2 across accounts."""
    g = stream(ACC_SEED, "acceptance-allocation")
    worst_margin = np.inf
    worst_ratio_spread = 0.0
    for _ in range(100):
        sigma = g.uniform(1.0, 100.0, size=5)
        budget = float(g.uniform(50.0, 500.0))
        problem = ConstrainedProblem(
            (PortfolioInputs(sigma_independent=sigma),), caps=np.array([np.inf]), budget=budget
        )
        r = stationarity_solution(problem, frozenset()).r_independent[0]
        v_opt = float((sigma**2 / r).sum())
        w = g.dirichlet(np.ones(5), size=10000)
        v_rand = (sigma**2 / (budget * w)).sum(axis=1)
        worst_margin = min(worst_margin, float(v_rand.min() / v_opt))
        ratios = sigma**2 / r**2
        worst_ratio_spread = max(worst_ratio_spread, float(np.ptp(ratios) / ratios[0]))
    beats_ok = worst_margin >= 1.0 - 1e-12
    ratio_ok = worst_ratio_spread < 1e-9
    ok = beats_ok and ratio_ok
    _report(
        capsys,
        f"ACCEPTANCE 5 closed-form optimality: {'PASS' if ok else 'FAIL'} "
        f"[min(random/optimal)={worst_margin:.6f}, max ratio spread={worst_ratio_spread:.2e}]",
    )
    assert beats_ok, worst_margin
    assert ratio_ok, worst_ratio_spread


def test_criterion_6_log_variance_noise_law(capsys):
    """The variance of the log sample variance matches (kappa - 1)/K within
    25% at five low-kurtosis design points (kappa from a 10^6-realisation
    reference, 500 replications of K=1000 each)."""
    points = [(1, 0, 0.6, 0.5), (1, 1, 0.7, 0.6), (2, 0, 0.6, 0.55), (2, 1, 0.8, 0.5), (2, 0, 0.9, 0.4)]
    k_real = 1000
    reps = 500
    ratios = []
    for s, y, b, c in points:
        ref = _simulate_point(b, c, s, y, 10**6, stream(ACC_SEED, "noise-ref", s, y))
        m2 = float(ref.var())
        m4 = float(np.mean((ref - ref.mean()) ** 4))
        kappa = m4 / m2**2
        predicted = (kappa - 1.0) / k_real
        g = stream(ACC_SEED, "noise-law", s, y)
        logs = np.empty(reps)
        for r in range(reps):
            logs[r] = np.log(_simulate_point(b, c, s, y, k_real, g).var(ddof=1))
        ratios.append(float(logs.var(ddof=1)) / predicted)
    ok = all(abs(r - 1.0) <= 0.25 for r in ratios)
    _report(
        capsys,
        f"ACCEPTANCE 6 log-variance noise law: {'PASS' if ok else 'FAIL'} "
        f"[observed/predicted per point: {', '.join(f'{r:.3f}' for r in ratios)}]",
    )
    assert ok, ratios


def test_criterion_7_emulator_quality(capsys):
    """The trained emulator predicts test-set standard deviations with pooled
    correlation >= 0.9, yields strictly positive variances, and its GP algebra
    reproduces an exact 3-point posterior to 1e-10."""
    cfg = ExperimentConfig(
        name="acc7", points_per_slice=100, train_realisations=1000, seed=ACC_SEED
    )
    emulator, metrics = train_emulator_experiment(cfg)
    corr = metrics["pooled"]["sd_correlation"]
    corr_ok = corr >= 0.9

    from collsim.emulator import sigma2_for_population

    pop = init_population(500, (1.0,), seed=ACC_SEED)
    positive_ok = bool(np.all(sigma2_for_population(emulator, pop) > 0.0))

    # exact 3-point posterior
    x = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [0.9, 0.7, 0.1]])
    y = np.array([1.0, -0.5, 2.0])
    noise = np.array([0.01, 0.02, 0.03])
    ell = np.array([0.4, 0.6, 0.8])
    tau2, beta = 1.5, 0.7
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

    def kfun(a, b):
        r = math.sqrt(float((((a - b) / ell) ** 2).sum()))
        return tau2 * (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)

    big_k = np.array([[kfun(x[i], x[j]) for j in range(3)] for i in range(3)]) + np.diag(noise + 1e-8)
    k_star = np.array([kfun(xs[0], x[i]) for i in range(3)])
    exact_mean = beta + k_star @ np.linalg.solve(big_k, y - beta)
    exact_var = tau2 - k_star @ np.linalg.solve(big_k, k_star)
    algebra_ok = abs(float(mean[0]) - exact_mean) < 1e-10 and abs(float(var[0]) - exact_var) < 1e-10

    ok = corr_ok and positive_ok and algebra_ok
    _report(
        capsys,
        f"ACCEPTANCE 7 emulator quality: {'PASS' if ok else 'FAIL'} "
        f"[pooled sd correlation={corr:.4f}, positive={positive_ok}, exact algebra={algebra_ok}]",
    )
    assert corr_ok, corr
    assert positive_ok
    assert algebra_ok


def test_criterion_8_determinism_across_workers(capsys):
    """A plan run is bitwise identical with 1 and 8 worker processes."""
    pop = init_population(1000, (0.99, 0.01), seed=2)
    plan = RealisationPlan.equal(1000, 5)
    o1 = run_plan(pop, plan, seed=ACC_SEED, n_workers=1, store_monthly=True)
    o8 = run_plan(pop, plan, seed=ACC_SEED, n_workers=8, store_monthly=True)
    totals_ok = all(np.array_equal(a, b) for a, b in zip(o1.totals, o8.totals))
    monthly_ok = np.array_equal(o1.monthly_sum, o8.monthly_sum) and np.array_equal(
        o1.monthly_sumsq, o8.monthly_sumsq
    )
    blocks_ok = all(np.array_equal(o1.block_totals[j], o8.block_totals[j]) for j in o1.block_totals)
    ok = totals_ok and monthly_ok and blocks_ok
    _report(
        capsys,
        f"ACCEPTANCE 8 worker determinism: {'PASS' if ok else 'FAIL'} "
        f"[totals={totals_ok}, monthly={monthly_ok}, blocks={blocks_ok}]",
    )
    assert ok

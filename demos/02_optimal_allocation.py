"""Spend a fixed simulation budget where it reduces variance the most.

Trains a small variance emulator, predicts each account's collection
variance, and compares the estimator variance of the equal plan against the
sigma-proportional optimal plan at the same total cost.
"""

import numpy as np

from collsim import (
    RealisationPlan,
    VarianceInputs,
    estimator_variance,
    fit_gp,
    generate_training_data,
    init_population,
    pilot_block_variance,
    plan_for_population,
    round_plan,
    sigma2_for_population,
    sliced_lhd,
)

print("training a small variance emulator (30 design points per slice) ...")
design = sliced_lhd(30, seed=3)
observations = generate_training_data(design, n_realisations=400, seed=4)
emulator = fit_gp(observations)

pop = init_population(400, portfolio_probs=(1.0,), seed=5)
sigma2 = sigma2_for_population(emulator, pop)
sigma2_block = np.full(1, np.nan)
if len(pop.portfolios[0].dependent_ids):
    sigma2_block[0] = pilot_block_variance(pop, 0, n_pilot=50, seed=6)
inputs = VarianceInputs(sigma2_independent=sigma2, sigma2_block=sigma2_block)

budget = 25.0 * pop.n
_, _, real_plan = plan_for_population(pop, inputs, budget)
plan = round_plan(real_plan)

_, var_opt = estimator_variance(inputs, real_plan, pop)
_, var_eq = estimator_variance(inputs, RealisationPlan.equal(pop.n, 25), pop)

print(f"\nbudget: {budget:,.0f} realisations across {pop.n} accounts")
print(f"equal plan variance:     {var_eq:,.0f}")
print(f"optimal plan variance:   {var_opt:,.0f}")
print(f"variance reduction:      {1 - var_opt / var_eq:.1%}")

counts = plan.counts[pop.independent_ids].astype(int)
print(f"\nrealisation counts range from {counts.min()} to {counts.max()} "
      f"(median {int(np.median(counts))}): noisy accounts get simulated more")

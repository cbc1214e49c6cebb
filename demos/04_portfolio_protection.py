"""Guarantee per-portfolio precision with variance caps.

A small portfolio mixed into a large one would receive almost no simulation
effort under the unconstrained optimal plan.  Capping its estimator variance
redirects budget: the active-set solver meets every cap exactly and spends
the remainder optimally.
"""

import numpy as np

from collsim import VarianceInputs, check_slater, plan_for_population, round_plan
from collsim.experiments import reference_sigmas
from collsim.population import init_population

pop = init_population(500, portfolio_probs=(0.98, 0.02), seed=2)
n_small = int((pop.portfolio == 1).sum())
print(f"{pop.n} accounts; the protected portfolio holds only {n_small} of them")

print("estimating per-unit standard deviations from pilot runs ...")
sigma, sigma_block = reference_sigmas(pop, n_realisations=500, seed=3)

inputs = VarianceInputs(sigma2_independent=sigma**2, sigma2_block=sigma_block**2)

caps = (1500.0**2, 60.0**2)
budget = 25.0 * pop.n
problem, solution, real_plan = plan_for_population(pop, inputs, budget, caps)
plan = round_plan(real_plan)
holds, margin = check_slater(problem)
print(f"strict feasibility holds with budget margin {margin:,.0f}")

variances = solution.plan.portfolio_variances(problem)
print(f"\nactive caps: {sorted(solution.active) or 'none'}")
for j in range(2):
    mean_r = plan.counts[pop.portfolio == j].mean()
    print(
        f"  portfolio {j}: sd {np.sqrt(variances[j]):>8,.1f} "
        f"(cap {np.sqrt(caps[j]):>7,.1f}), mean realisations {mean_r:.1f}"
    )
print(f"\nplan cost {plan.cost:,.0f} of budget {budget:,.0f}")

"""Simulate repayment on a synthetic portfolio and summarize collections.

Generates 500 accounts, runs 25 realisations of every account over the
84-month horizon and prints the estimated collections curve by quarter.
"""

import numpy as np

from collsim import RealisationPlan, estimate_mu, init_population, run_plan

pop = init_population(500, portfolio_probs=(0.9, 0.1), seed=7)
print(f"population: {pop.n} accounts in {pop.n_portfolios} portfolios")
for j, pf in enumerate(pop.portfolios):
    print(
        f"  portfolio {j}: {len(pf.independent_ids)} independent accounts, "
        f"{len(pf.dependent_ids)} in the dependent block"
    )

plan = RealisationPlan.equal(pop.n, 25)
output = run_plan(pop, plan, seed=11, store_monthly=True)
mu = estimate_mu(output, pop)

print(f"\nexpected total collections: {mu.total:,.2f}")
print(f"per portfolio: {', '.join(f'{v:,.2f}' for v in mu.per_portfolio)}")

print("\nexpected collections by quarter:")
quarters = mu.per_month.reshape(28, 3).sum(axis=1)
for q in range(0, 28, 4):
    bar = "#" * int(quarters[q] / quarters.max() * 40)
    print(f"  Q{q + 1:>2}: {quarters[q]:>10,.0f}  {bar}")

outstanding = pop.balance.sum()
print(f"\ninitial balances total {outstanding:,.0f}; "
      f"projected recovery rate {mu.total / outstanding:.1%}")

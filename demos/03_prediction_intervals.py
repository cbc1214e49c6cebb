"""Calibrated prediction intervals for realised total collections.

Builds a 95% interval from one simulation run, then repeats the whole
exercise 100 times against independently simulated truths to check the
empirical coverage.
"""

from collsim import (
    RealisationPlan,
    estimate_mu,
    init_population,
    prediction_interval,
    run_plan,
    variance_inputs_from_samples,
)
from collsim.rng import derive_seed

N, R = 200, 25

pop = init_population(N, (1.0,), seed=1)
plan = RealisationPlan.equal(N, R)
output = run_plan(pop, plan, seed=derive_seed(1, "estimate"))
mu = estimate_mu(output, pop)
inputs = variance_inputs_from_samples(output, pop)
interval = prediction_interval(mu.total, inputs, plan, pop, p=0.95)

print(f"point estimate:     {mu.total:,.2f}")
print(f"95% interval:       [{interval.lower:,.2f}, {interval.upper:,.2f}]")
print(f"relative width:     {interval.relative_uncertainty:.1%}")

print("\nchecking calibration over 100 fresh populations ...")
hits = 0
for rep in range(100):
    pop = init_population(N, (1.0,), seed=derive_seed(2, "pop", rep))
    output = run_plan(pop, plan, seed=derive_seed(2, "estimate", rep))
    mu = estimate_mu(output, pop)
    inputs = variance_inputs_from_samples(output, pop)
    interval = prediction_interval(mu.total, inputs, plan, pop, p=0.95)
    truth = run_plan(pop, RealisationPlan.equal(N, 1), seed=derive_seed(2, "truth", rep))
    realised = sum(float(m) for m in truth.means)  # one realisation each: the mean is the total
    hits += interval.contains(realised)

print(f"empirical coverage: {hits}/100 at nominal 95%")

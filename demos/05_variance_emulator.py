"""Predict account-level collection variance without per-account pilots.

Runs a sliced computer experiment over the covariate square, fits one GP per
segment to the log sample variances, and validates the fit on fresh random
test points.
"""

import numpy as np

from collsim import (
    fit_gp,
    generate_training_data,
    init_population,
    random_design,
    sigma2_for_population,
    sliced_lhd,
    validate_emulator,
)

print("building a sliced Latin hypercube design (40 points per slice) ...")
design = sliced_lhd(40, seed=3)
observations = generate_training_data(design, n_realisations=500, seed=11)
print(f"simulated {len(observations)} usable design points")

emulator = fit_gp(observations)
for seg, model in sorted(emulator.models.items()):
    print(
        f"  segment {seg}: lengthscales {np.round(model.lengthscales, 2)}, "
        f"signal sd {np.sqrt(model.signal_variance):.2f}"
    )

print("\nvalidating on 30 random test points per slice ...")
metrics = validate_emulator(emulator, random_design(30, seed=5), n_realisations=500, seed=9)
pooled = metrics["pooled"]
print(f"  sd correlation:    {pooled['sd_correlation']:.3f}")
print(f"  log-scale RMSE:    {pooled['log_rmse']:.3f}")
print(f"  credible coverage: {pooled['credible_coverage']:.2f} (nominal 0.95)")

pop = init_population(5, (1.0,), seed=40)
sds = np.sqrt(sigma2_for_population(emulator, pop))
print("\npredictions for five sampled accounts:")
for balance, score, segment, sd in zip(pop.balance.tolist(), pop.credit_score.tolist(), pop.segment.tolist(), sds):
    print(f"  balance {balance:>8,.0f}, score {score:>6.2f}, segment {segment}: predicted sd {sd:>8,.1f}")

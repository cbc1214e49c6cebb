"""Correctness checks on collsim's outputs.

Each check takes plain numbers or arrays, so the tests can hand it a
deliberately wrong output and see it rejected.  No check compares against a
stored copy of an earlier output: each compares against the exact reference
in ``exact.py`` or tests a property the method must have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Two-sided z bound for the statistical checks: a correct program fails one
# of them with probability about 6e-7.
Z_MAX = 5.0
# Nominal coverage of collsim's prediction intervals, and the false-alarm
# rate of the binomial acceptance region for the count that cover the truth.
NOMINAL_COVERAGE = 0.95
COVERAGE_ALPHA = 1e-4
# Mean relative uncertainty may differ from its target by this share.
RELATIVE_UNCERTAINTY_TOL = 0.25
# Least correlation of the allocated counts with the exact standard deviations.
MIN_CORRELATION = 0.9
# A rounded plan's portfolio variance may exceed its cap by this factor.
CAP_FACTOR = 1.1
# Largest KKT residual of the constrained solution.
KKT_TOL = 1e-8
# Relative tolerance of sums that must agree up to floating-point rounding.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def exact_mean(means_hat, mean, var, counts) -> Check:
    """Sum of Monte Carlo account means against the sum of exact means."""
    se = math.sqrt(float(np.sum(np.asarray(var) / np.asarray(counts))))
    diff = float(np.sum(means_hat) - np.sum(mean))
    z = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
    return Check("exact_mean_sum", abs(z) <= Z_MAX, f"z={z:+.3f} (|z| <= {Z_MAX})")


def variance_sum(sample_var, var, sd_of_sample_var) -> Check:
    """Sum of per-account sample variances (method M1) against the exact sum.

    The paper's claim: summing coarse unbiased per-account variances gives
    the population variance.  ``sd_of_sample_var`` is each account's exact
    standard deviation of its sample variance.
    """
    total = float(np.sum(var))
    se = math.sqrt(float(np.sum(np.asarray(sd_of_sample_var) ** 2)))
    ratio = float(np.sum(sample_var)) / total
    z = (float(np.sum(sample_var)) - total) / se
    bound = Z_MAX * se / total
    return Check(
        "m1_variance_sum",
        abs(z) <= Z_MAX,
        f"ratio={ratio:.4f} (within 1 +- {bound:.4f}), z={z:+.3f}",
    )


def means_within_balance(means, balance) -> Check:
    means, balance = np.asarray(means), np.asarray(balance)
    tol = REL_TOL * balance
    bad = int(np.sum((means < -tol) | (means > balance + tol)))
    return Check("account_means_in_range", bad == 0, f"{bad} accounts outside [0, balance]")


def close(name, got, expected, abs_tol=0.0) -> Check:
    ok = math.isclose(float(got), float(expected), rel_tol=REL_TOL, abs_tol=abs_tol)
    return Check(name, ok, f"{float(got):.6f} vs {float(expected):.6f}")


def brackets(name, lower, center, upper) -> Check:
    return Check(name, lower < center < upper, f"[{lower:.2f}, {upper:.2f}] around {center:.2f}")


def coverage_region(n):
    """Acceptance region [lo, hi] for a Binomial(n, NOMINAL_COVERAGE) count.

    Each tail outside the region has probability at most ``COVERAGE_ALPHA / 2``.
    """
    p = NOMINAL_COVERAGE
    pmf = [
        math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        for k in range(n + 1)
    ]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= COVERAGE_ALPHA / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = n, 0.0
    while tail + pmf[hi] <= COVERAGE_ALPHA / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


def coverage_count(contained, n) -> Check:
    lo, hi = coverage_region(n)
    return Check(
        "coverage_count",
        lo <= contained <= hi,
        f"{contained}/{n} contained, region [{lo}, {hi}] at nominal {NOMINAL_COVERAGE}, false-alarm {COVERAGE_ALPHA:g}",
    )


def relative_uncertainty(mean_ru, target) -> Check:
    return Check(
        "relative_uncertainty",
        abs(mean_ru / target - 1.0) <= RELATIVE_UNCERTAINTY_TOL,
        f"{mean_ru:.4f} vs {target} +- {100 * RELATIVE_UNCERTAINTY_TOL:.0f}%",
    )


def correlation(x, y) -> Check:
    r = float(np.corrcoef(x, y)[0, 1])
    return Check("counts_vs_exact_sd_correlation", r >= MIN_CORRELATION, f"r={r:.4f} (>= {MIN_CORRELATION})")


def variance_reduction(var, counts_optimized, counts_equal) -> Check:
    """Estimator variance sum(var/R) of the optimized plan against the equal plan."""
    v_opt = float(np.sum(np.asarray(var) / np.asarray(counts_optimized)))
    v_eq = float(np.sum(np.asarray(var) / np.asarray(counts_equal)))
    red = 1.0 - v_opt / v_eq
    return Check("exact_variance_reduction", red > 0.0, f"{100 * red:.1f}% (> 0)")


def within_caps(variances, caps) -> Check:
    variances, caps = np.asarray(variances, dtype=float), np.asarray(caps, dtype=float)
    worst = float(np.max(variances / caps))
    return Check("rounded_plan_within_caps", worst <= CAP_FACTOR, f"max variance/cap={worst:.4f} (<= {CAP_FACTOR})")


KKT_RESIDUALS = (
    "stationarity_residual",
    "primal_cost_residual",
    "max_cap_violation",
    "max_complementary_slackness",
)


def kkt(report) -> Check:
    worst = max(abs(float(report[k])) for k in KKT_RESIDUALS)
    return Check("kkt_residuals", worst <= KKT_TOL, f"max residual={worst:.3g} (<= {KKT_TOL:g})")


def cap_active(active_set, j) -> Check:
    return Check("tight_cap_active", j in active_set, f"active set {sorted(active_set)} contains {j}")

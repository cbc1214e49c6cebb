"""Every realised total of a plan run, for tests that check totals rather than moments.

``run_plan`` keeps only each account's mean, variance and kurtosis.
:func:`raw_totals` maps the same chunk and block items as ``run_plan`` (same
seed, stream keys, counts and horizon) through the engine's own functions and
keeps every total.  :func:`assert_near_fsum` checks moments against sums
taken with ``math.fsum``.
"""

import math

import numpy as np

from collsim import simulator
from collsim.simulator import HORIZON


def raw_totals(population, plan, seed=0, horizon=HORIZON, n_workers=1):
    """Account ``i``'s realised totals under ``run_plan(population, plan, seed, horizon)``, at index ``i``."""
    counts = plan.counts.astype(int)
    totals = [None] * population.n
    chunks = simulator._chunks(seed, ("sim",), simulator._independent_units(population, counts), horizon)
    for chunk, (tot, _) in zip(chunks, simulator._pool_map(simulator._chunk_paths, chunks, n_workers)):
        ids, r = chunk[2], chunk[3]
        for i, row in zip(ids.tolist(), np.split(tot, np.cumsum(r)[:-1])):
            totals[i] = row
    for j, pf in enumerate(population.portfolios):
        dep = pf.dependent_ids
        if len(dep):
            items = simulator._block_items(population, dep, seed, ("sim", "block", j), counts[dep[0]], horizon)
            results = simulator._pool_map(simulator._simulate_block_item, items, n_workers)
            block = np.concatenate([tot for tot, _ in results])  # (r_j, |D|)
            for pos, i in enumerate(dep.tolist()):
                totals[i] = block[:, pos].copy()
    return totals


def moments_of(totals):
    """The (3, N) mean, unbiased variance and kurtosis of each account's totals, one account at a time."""
    return np.array([[float(v[0]) for v in simulator._segment_moments(np.asarray(t, dtype=float), np.full(1, len(t)))] for t in totals]).T


def output_moments(out):
    """A run's (3, N) per-account means, variances and kurtoses."""
    return np.stack([out.means, out.variances, out.kurtoses])


FSUM_ULPS = 8  # numpy's pairwise sums of up to 300 values measured at most 6 ulps from math.fsum


def assert_near_fsum(mean, variance, kurtosis, sample):
    """``sample``'s moments within a few ulps of the same formulas summed with ``math.fsum``.

    A mean off by ``delta`` moves the sum of squared deviations by ``n delta**2``
    as well, so the variance may also be off by ``(FSUM_ULPS ulp(mean))**2``:
    rounding jitter that a constant sample shows as a tiny positive variance.
    The kurtosis is checked where both sides have one.
    """
    x = [float(v) for v in sample]
    n = len(x)
    m = math.fsum(x) / n
    assert abs(mean - m) <= FSUM_ULPS * math.ulp(m), (mean, m)
    if n < 2:
        assert math.isnan(variance)
        return
    d2 = [(v - m) * (v - m) for v in x]
    ss = math.fsum(d2)
    v = ss / (n - 1)
    assert abs(variance - v) <= FSUM_ULPS * math.ulp(v) + (FSUM_ULPS * math.ulp(m)) ** 2, (variance, v)
    if n >= 4 and not math.isnan(kurtosis) and v > (FSUM_ULPS * math.ulp(m)) ** 2:
        k = n * math.fsum(q * q for q in d2) / (ss * ss)
        assert abs(kurtosis - k) <= 1e-13 * k, (kurtosis, k)

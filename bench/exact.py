"""Exact collection moments for independent accounts.

The account model, restated from collsim's documented model with no call into
collsim: in each of 84 months an account pays with probability

    p = expit(a[s] + b[s] * credit + 2 * paid_last_month),
    (a, b) = (-1, 0.1), (0, 0.4), (-4, 0.2) for segments 1, 2, 3,

and a payment is the lower of 50 and the remaining balance.  An independent
account never changes segment, so its months form a two-state Markov chain
in the "paid last month" indicator.  Once the balance is exhausted no more
money moves, so the account's total is min(50 * K, balance), where K is the
number of payment months of the chain *without* absorption.  A dynamic
program over (month, payment count, last-month state) gives the exact law of
K, and with it every moment of the total.
"""

from __future__ import annotations

import numpy as np

HORIZON = 84
PAYMENT_CAP = 50.0
INTERCEPTS = np.array([-1.0, 0.0, -4.0])
SLOPES = np.array([0.1, 0.4, 0.2])
PAID_LAST_MONTH_BOOST = 2.0


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def payment_probabilities(credit, segment):
    """(p0, p1): payment probability after a month without / with a payment."""
    seg = np.asarray(segment, dtype=int)
    if np.any((seg < 1) | (seg > 3)):
        raise ValueError("segment must be in {1, 2, 3}")
    eta = INTERCEPTS[seg - 1] + SLOPES[seg - 1] * np.asarray(credit, dtype=float)
    return _expit(eta), _expit(eta + PAID_LAST_MONTH_BOOST)


def payment_count_pmf(p0, p1, paid0, horizon: int = HORIZON) -> np.ndarray:
    """P(K = k) for k = 0..horizon, one row per account.

    ``p0``/``p1`` are per-account payment probabilities after a month
    without / with a payment, ``paid0`` the indicator for the month before
    the start.
    """
    p0 = np.asarray(p0, dtype=float)[:, None]
    p1 = np.asarray(p1, dtype=float)[:, None]
    paid0 = np.asarray(paid0, dtype=bool)
    n = len(paid0)
    # f0[:, k] / f1[:, k]: probability of k payments so far with the last
    # month unpaid / paid.  After month t only k <= t is reachable.
    f0 = np.zeros((n, horizon + 1))
    f1 = np.zeros((n, horizon + 1))
    f0[~paid0, 0] = 1.0
    f1[paid0, 0] = 1.0
    for t in range(horizon):
        a0, a1 = f0[:, : t + 1], f1[:, : t + 1]
        pay = a0 * p0 + a1 * p1
        f0[:, : t + 1] = a0 + a1 - pay
        f1[:, 1 : t + 2] = pay
        f1[:, 0] = 0.0
    return f0 + f1


def total_moments(credit, segment, paid0, balance, horizon: int = HORIZON, chunk: int = 4096):
    """Exact mean, variance and fourth central moment of each account's total.

    Returns three arrays aligned with the inputs.  Accounts are processed in
    chunks so memory stays at a few megabytes whatever the population size.
    """
    credit = np.asarray(credit, dtype=float)
    balance = np.asarray(balance, dtype=float)
    paid0 = np.asarray(paid0, dtype=bool)
    p0, p1 = payment_probabilities(credit, segment)
    n = len(credit)
    mean, var, m4 = np.empty(n), np.empty(n), np.empty(n)
    k = np.arange(horizon + 1, dtype=float)
    for lo in range(0, n, chunk):
        sl = slice(lo, min(lo + chunk, n))
        pmf = payment_count_pmf(p0[sl], p1[sl], paid0[sl], horizon)
        x = np.minimum(PAYMENT_CAP * k[None, :], balance[sl, None])
        mu = (pmf * x).sum(axis=1)
        d = x - mu[:, None]
        mean[sl] = mu
        var[sl] = (pmf * d**2).sum(axis=1)
        m4[sl] = (pmf * d**4).sum(axis=1)
    return mean, var, m4


def sample_variance_sd(var, m4, r):
    """Standard deviation of the unbiased sample variance of ``r`` draws.

    Var(s^2) = (mu4 - sigma^4 (r - 3) / (r - 1)) / r for i.i.d. draws.
    """
    r = np.asarray(r, dtype=float)
    return np.sqrt(np.maximum(m4 - var**2 * (r - 3.0) / (r - 1.0), 0.0) / r)

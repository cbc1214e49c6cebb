"""The standard normal quantile and the logistic function, bit for bit as ``scipy.special``'s.

The simulation path needs only ``ndtri`` and ``expit`` of ``scipy.special``,
whose import costs about 25 MiB and 0.3 s.  These ports evaluate the same
formulas in the same order: ``ndtri`` is Moshier's Cephes algorithm, with
its coefficient tables, and ``expit(x)`` is ``1 / (1 + exp(-x))``.

Logs and exponentials go through ``math.log`` and ``math.exp``, one value at
a time.  They call the C library's ``log`` and ``exp``, as scipy's compiled
code does.  numpy's vectorised ``np.log`` and ``np.exp`` do not: on an
AVX-512 build they differ from the C library in the last bit on 721 and
9,316 of 200k random inputs, which would change outputs.  Additions,
products, quotients and square roots are exactly rounded in numpy, so those
are vectorised.  Both functions work ``_PIECE`` values at a time, which keeps
their temporaries and Python lists small whatever the input size.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtri", "expit"]

_PIECE = 4096

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): the central branch covers (exp(-2), 1 - exp(-2)]

# approximation for 0 <= |y - 0.5| <= 3/8
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# approximation for interval z = sqrt(-2 log y) between 2 and 8
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# approximation for interval z = sqrt(-2 log y) between 8 and 64
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _ratio(z, p, q):
    """Cephes' ``z * polevl(z, p) / p1evl(z, q)``, operation for operation.

    ``polevl`` is Horner's rule from ``p[0]``, the highest power; ``p1evl``
    is the same with an implicit leading coefficient of 1.
    """
    num = p[0] * z
    num += p[1]
    for c in p[2:]:
        num *= z
        num += c
    den = z + q[0]
    for c in q[1:]:
        den *= z
        den += c
    num *= z
    num /= den
    return num


def _log(x):
    """The C library's ``log`` of each value of the 1-D array ``x``."""
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=len(x))


def _exp_or_inf(v):
    try:
        return math.exp(v)
    except OverflowError:  # above about 709.78, where the C library's exp returns inf
        return math.inf


def _ndtri_piece(y0):
    out = np.empty_like(y0)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXP_M2
    tail = ~central & (y > 0.0)  # leaves out 0, 1, NaN and values outside [0, 1]
    rest = ~(central | tail)

    if central.any():
        yc = y[central] - 0.5
        out[central] = (yc + yc * _ratio(yc * yc, _P0, _Q0)) * _S2PI
    if tail.any():
        x = np.sqrt(-2.0 * _log(y[tail]))
        x0 = x - _log(x) / x
        z = 1.0 / x
        near = x < 8.0
        x1 = np.empty_like(x)
        for sel, p, q in ((near, _P1, _Q1), (~near, _P2, _Q2)):
            if sel.any():
                x1[sel] = _ratio(z[sel], p, q)
        x = x0 - x1
        out[tail] = np.where(upper[tail], x, -x)
    if rest.any():
        out[rest] = np.where(y0[rest] == 0.0, -np.inf, np.where(y0[rest] == 1.0, np.inf, np.nan))
    return out


def _expit_piece(x):
    neg = (-x).tolist()
    try:
        e = np.fromiter(map(math.exp, neg), dtype=float, count=len(neg))
    except OverflowError:
        e = np.fromiter(map(_exp_or_inf, neg), dtype=float, count=len(neg))
    return 1.0 / (1.0 + e)


def _piecewise(f, x):
    """``f`` applied to ``_PIECE`` values of ``x`` (as float64) at a time; a 0-d input gives a scalar."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape)
    for start in range(0, len(flat), _PIECE):
        out[start : start + _PIECE] = f(flat[start : start + _PIECE])
    return out.reshape(x.shape)[()]


def ndtri(y):
    """Quantile of the standard normal distribution, as ``scipy.special.ndtri``.

    Gives -inf at 0, inf at 1 and NaN outside [0, 1] and at NaN.
    """
    return _piecewise(_ndtri_piece, y)


def expit(x):
    """Logistic function ``1 / (1 + exp(-x))``, as ``scipy.special.expit`` on float64."""
    return _piecewise(_expit_piece, x)

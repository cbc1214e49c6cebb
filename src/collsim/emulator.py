"""Gaussian-process emulation of account-level collection variance.

A computer experiment places design points on the unit square of transformed
covariates (balance and credit score through their CDFs), sliced by the six
combinations of segment and prior-payment indicator.  Each design point is
simulated many times to obtain a sample variance of the total collections; the
log of that variance is the GP response, observed with heteroscedastic noise
(kappa - 1)/K fixed from the sample kurtosis.

The emulator fits one GP per segment with a Matern-5/2 kernel over
three features: transformed balance, transformed credit score and the standard
deviation sqrt(p1 (1 - p1)) of the first-month payment indicator.

Predictions are exp(posterior mean of the log variance) - the posterior median
under log-normality - so they are strictly positive by construction.

The GP code imports ``scipy.linalg`` and ``scipy.optimize`` where it uses them,
and the covariate transforms ``scipy.special.ndtr``, so runs that never touch
the emulator load no scipy at all (about 49 MiB and 0.55 s of imports).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constrained import _read_json_object
from .estimators import normal_quantile
from .population import balance_cdf, balance_cdf_inv, credit_cdf, credit_cdf_inv
from .rng import stream
from .simulator import _chunks, _pool_map, _simulate_chunk, payment_probability

logger = logging.getLogger(__name__)

__all__ = [
    "SLICES",
    "TrainingObservation",
    "SegmentGP",
    "GpEmulator",
    "sliced_lhd",
    "random_design",
    "generate_training_data",
    "matern52",
    "fit_gp",
    "validate_emulator",
]

SLICES = tuple((s, y) for s in (1, 2, 3) for y in (0, 1))

_JITTER = 1e-8
# Size of the per-block difference tensor when predictions build k_star.
_KERNEL_BLOCK_BYTES = 1 << 20
_FORMAT_VERSION = 1
# Written to and required in every stored emulator: one GP per segment,
# predicting the posterior median.
_STORED_SETTINGS = {"mode": "segment", "prediction": "median"}


# --------------------------------------------------------------------------
# Experimental design


def _dist2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every row of ``a`` and every row of ``b``."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)


def sliced_lhd(points_per_slice: int, seed: int = 0, exchange_iters: int = 2000, n_workers: int = 1) -> dict:
    """Latin hypercube design per (segment, prior-payment) slice.

    Each slice gets a 2-D Latin hypercube on the transformed-covariate square,
    improved by maximin point exchange: random within-column swaps are kept
    only when they increase the minimum inter-point distance.  A swap moves
    two points, so only their rows and columns of the slice's squared-distance
    matrix are recomputed, and restored when the swap is undone.  Each slice
    draws from its own stream, so the slices run on ``n_workers`` processes.
    """
    if points_per_slice < 2:
        raise ValueError("need at least 2 points per slice")

    def design_slice(key):
        return _maximin_lhd(points_per_slice, stream(seed, "design", *key), exchange_iters)

    return dict(zip(SLICES, _pool_map(design_slice, SLICES, n_workers)))


def _maximin_lhd(n: int, g, exchange_iters: int) -> np.ndarray:
    """One slice of :func:`sliced_lhd`: ``n`` points drawn and exchanged with the generator ``g``."""
    pts = np.empty((n, 2))
    for d in range(2):
        pts[:, d] = (g.permutation(n) + g.random(n)) / n
    dist2 = _dist2(pts, pts)
    np.fill_diagonal(dist2, np.inf)
    best = dist2.min()
    for _ in range(exchange_iters):
        d = int(g.integers(2))
        i, k = g.integers(n, size=2).tolist()
        if i == k:
            continue
        saved_i, saved_k = dist2[i].copy(), dist2[k].copy()
        pts[i, d], pts[k, d] = pts[k, d], pts[i, d]
        for m in (i, k):
            row = _dist2(pts[m : m + 1], pts)[0]
            row[m] = np.inf
            dist2[m] = dist2[:, m] = row
        cand = dist2.min()
        if cand > best:
            best = cand
        else:
            pts[i, d], pts[k, d] = pts[k, d], pts[i, d]
            dist2[i] = dist2[:, i] = saved_i
            dist2[k] = dist2[:, k] = saved_k
    return pts


def random_design(points_per_slice: int, seed: int = 0) -> dict:
    """Uniform random points per slice, for test sets."""
    return {
        (s, y): stream(seed, "test-design", s, y).random((points_per_slice, 2))
        for s, y in SLICES
    }


# --------------------------------------------------------------------------
# Training data


@dataclass(frozen=True)
class TrainingObservation:
    b_tilde: float
    c_tilde: float
    credit_score: float  # the score whose credit CDF is c_tilde
    segment: int
    y0: int
    log_variance: float
    noise_variance: float  # (kappa - 1) / K, clamped to be non-negative
    kurtosis: float


def _design_moments(design: dict, n_real, seed, domain, n_workers=1):
    """Yield ``((s, y), points)`` per slice, ``points`` the ``(b_tilde, c_tilde, credit, variance, kurtosis)`` of its design points.

    Point ``l`` of slice ``(s, y)`` is unit ``l`` of the
    :func:`collsim.simulator._chunks` with the prefix ``(domain, s, y)``: it
    draws from the stream ``(seed, domain, s, y, l)``.  The chunks of every
    slice go through one :func:`collsim.simulator._pool_map` over
    ``n_workers`` processes.  ``credit`` is the credit score whose CDF is
    ``c_tilde``, inverted once here so that callers can pass it on as the
    ``credit`` of :func:`_features`.  The moments are those of
    :func:`collsim.simulator._segment_moments`, which each chunk takes on its
    points' totals, bitwise those of each point's totals on their own.
    Points whose sample variance is zero up to floating-point noise are left
    out: paths that always collect the full balance produce identical totals,
    and the computed variance is then rounding jitter around zero, not a
    response.  Fewer than 4 realisations per point, with no kurtosis, are
    rejected before any point runs.
    """
    if n_real < 4:
        raise ValueError(f"n_realisations must be at least 4 (a kurtosis per design point), got {n_real}")
    slices = []
    for (s, y), pts in design.items():
        pts = np.asarray(pts, dtype=float)
        n = len(pts)
        credit = credit_cdf_inv(pts[:, 1])
        units = (
            np.arange(n),
            np.full(n, n_real),
            credit,
            np.full(n, s),
            balance_cdf_inv(pts[:, 0]),
            np.full(n, bool(y)),
        )
        slices.append(((s, y), design[(s, y)], credit, _chunks(seed, (domain, s, y), units)))
    results = _pool_map(_simulate_chunk, [chunk for *_, chunks in slices for chunk in chunks], n_workers)
    for key, design_slice, credit, chunks in slices:
        per_point = np.hstack([next(results)[0] for _ in chunks])  # the chunks hold points 0, 1, ... in order
        moments = zip(design_slice, credit.tolist(), *per_point.tolist())
        yield key, [
            (b_t, c_t, cr, v, kurt) for (b_t, c_t), cr, mean, v, kurt in moments if v > 1e-12 * max(mean**2, 1.0)
        ]


def generate_training_data(design: dict, n_realisations: int = 1000, seed: int = 0, n_workers: int = 1) -> list:
    """Simulate every design point and build the GP training observations.

    Points whose realised sample variance is zero are excluded (their error is
    large but unquantifiable); the number dropped is logged.  A slice that
    loses all of its points raises, as no model can be fitted there.  The
    design points run on ``n_workers`` processes.
    """
    observations = []
    dropped = 0
    for (s, y), kept in _design_moments(design, n_realisations, seed, "train", n_workers):
        for b_t, c_t, credit, v, kurt in kept:
            observations.append(
                TrainingObservation(
                    b_tilde=float(b_t),
                    c_tilde=float(c_t),
                    credit_score=credit,
                    segment=int(s),
                    y0=int(y),
                    log_variance=float(np.log(v)),
                    noise_variance=max((kurt - 1.0) / n_realisations, 0.0),
                    kurtosis=kurt,
                )
            )
        dropped += len(design[(s, y)]) - len(kept)
        if not kept:
            raise ValueError(f"all design points in slice (segment={s}, y0={y}) were zero-variance")
    if dropped:
        logger.info("excluded %d zero-variance design points from the training set", dropped)
    return observations


def training_data_to_csv(observations, path) -> None:
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["b_tilde", "c_tilde", "segment", "y0", "log_var", "kurtosis", "noise_var"])
        for o in observations:
            w.writerow(
                [repr(o.b_tilde), repr(o.c_tilde), o.segment, o.y0, repr(o.log_variance), repr(o.kurtosis), repr(o.noise_variance)]
            )


# --------------------------------------------------------------------------
# Gaussian process core


_SQRT5 = np.sqrt(5.0)


def _matern52_parts(a, b, lengthscales, signal_variance):
    """Matern-5/2 cross-kernel of the rows of ``a`` and ``b``, with its pieces.

    Returns ``(k, r, d2)``: the kernel matrix, the scaled distances ``r`` and
    the per-dimension scaled squared differences ``d2[i, j, d] = (delta_d /
    ell_d) ** 2``, which the likelihood gradient needs.

    The squared distance adds the dimensions one after another, in place:
    below 8 dimensions that is bitwise ``d2.sum(axis=-1)`` (numpy's pairwise
    sum starts splitting at 8), without its slow reduction over a short axis.
    """
    d2 = ((a[:, None, :] - b[None, :, :]) / lengthscales) ** 2
    r = d2[..., 0].copy()
    for j in range(1, d2.shape[-1]):
        r += d2[..., j]
    np.sqrt(r, out=r)
    k = signal_variance * (1.0 + _SQRT5 * r + 5.0 * r**2 / 3.0) * np.exp(-_SQRT5 * r)
    return k, r, d2


def matern52(x, x_prime, lengthscales, signal_variance):
    """Matern-5/2 kernel with per-dimension lengthscales.

    Accepts single vectors or stacked rows; returns the full cross-kernel
    matrix for 2-D inputs.
    """
    a = np.atleast_2d(np.asarray(x, dtype=float))
    b = np.atleast_2d(np.asarray(x_prime, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError("input dimensions disagree")
    k, _, _ = _matern52_parts(a, b, np.asarray(lengthscales, dtype=float), signal_variance)
    if np.ndim(x) == 1 and np.ndim(x_prime) == 1:
        return float(k[0, 0])
    return k


def _features(b_tilde, c_tilde, segment, y0, credit):
    """The 3 features of the per-segment GPs; ``credit`` is the credit score whose CDF is ``c_tilde``."""
    p1 = payment_probability(credit, segment, np.asarray(y0, dtype=bool))
    sd1 = np.sqrt(p1 * (1.0 - p1))
    return np.column_stack([np.atleast_1d(b_tilde), np.atleast_1d(c_tilde), np.atleast_1d(sd1)])


@dataclass
class SegmentGP:
    """One fitted GP: Matern-5/2 kernel, constant mean, fixed per-point noise."""

    x_train: np.ndarray
    y_train: np.ndarray
    noise: np.ndarray
    lengthscales: np.ndarray
    signal_variance: float
    beta: float
    log_marginal_likelihood: float
    _chol: tuple = field(default=None, repr=False)

    def _factor(self):
        from scipy.linalg import cho_factor

        if self._chol is None:
            a = matern52(self.x_train, self.x_train, self.lengthscales, self.signal_variance)
            a = a + np.diag(self.noise + _JITTER)
            self._chol = cho_factor(a, lower=True)
        return self._chol

    def _mean(self, x):
        """Posterior mean at ``x`` and the cross-covariances ``k_star`` it was made from.

        ``k_star`` (n, m) is filled a block of rows at a time, so the (rows,
        m, d) difference tensor behind each block stays near
        ``_KERNEL_BLOCK_BYTES`` instead of growing with n.  Kernel entries
        are elementwise in their inputs, so the blocks give the bits of one
        whole-matrix call.  The product with the weights is still taken once
        on the whole matrix: BLAS may sum a blocked product in another order.
        """
        from scipy.linalg import cho_solve

        x = np.atleast_2d(np.asarray(x, dtype=float))
        m, d = self.x_train.shape
        rows = max(1, _KERNEL_BLOCK_BYTES // (m * d * 8))
        k_star = np.empty((len(x), m))
        for i in range(0, len(x), rows):
            k_star[i : i + rows] = matern52(x[i : i + rows], self.x_train, self.lengthscales, self.signal_variance)
        return self.beta + k_star @ cho_solve(self._factor(), self.y_train - self.beta), k_star

    def predict_mean(self, x):
        """Posterior mean of the log-variance surface at ``x``, without the variance's O(m n^2) solve."""
        return self._mean(x)[0]

    def predict(self, x):
        """Posterior mean and variance of the log-variance surface at ``x``."""
        from scipy.linalg import cho_solve

        mean, k_star = self._mean(x)
        var = self.signal_variance - np.einsum("ij,ji->i", k_star, cho_solve(self._factor(), k_star.T))
        return mean, np.maximum(var, 0.0)


def _nll_grad_beta(theta, x, y, noise):
    """Negative log marginal likelihood, its gradient in ``theta`` and the profiled mean.

    ``theta`` is ``(log ell_1, ..., log ell_D, log tau^2)``.  The gradient is
    1/2 tr((A^-1 - alpha alpha^T) dA/dtheta) with ``alpha = A^-1 (y - beta)``
    (Rasmussen & Williams 2006, eq. 5.9); profiling out the constant mean
    ``beta`` leaves it unchanged, because ``beta`` minimizes the NLL.  Where
    the kernel matrix is not positive definite the NLL is ``inf``, with a
    zero gradient so the optimizer stops there.
    """
    from scipy.linalg import cho_solve, cholesky

    ell = np.exp(theta[:-1])
    tau2 = np.exp(theta[-1])
    k, r, d2 = _matern52_parts(x, x, ell, tau2)
    a = k + np.diag(noise + _JITTER)
    try:
        low = cholesky(a, lower=True)
    except np.linalg.LinAlgError:
        return np.inf, np.zeros_like(theta), 0.0
    c = (low, True)
    ones = np.ones(len(y))
    ainv_y = cho_solve(c, y)
    ainv_1 = cho_solve(c, ones)
    beta = float(ones @ ainv_y) / float(ones @ ainv_1)
    resid = y - beta
    alpha = cho_solve(c, resid)
    nll = 0.5 * float(resid @ alpha)
    nll += float(np.log(np.diag(low)).sum())
    nll += 0.5 * len(y) * np.log(2.0 * np.pi)

    w = cho_solve(c, np.eye(len(y))) - np.outer(alpha, alpha)
    # dk/dlog ell_d = tau^2 (5/3) (1 + sqrt5 r) exp(-sqrt5 r) d2[..., d];  dk/dlog tau^2 = k
    w_ell = w * (tau2 * (5.0 / 3.0) * (1.0 + _SQRT5 * r) * np.exp(-_SQRT5 * r))
    grad = np.append(0.5 * np.einsum("ij,ijd->d", w_ell, d2), 0.5 * float(np.sum(w * k)))
    return nll, grad, beta


def _fit_single(x, y, noise) -> SegmentGP:
    from scipy.optimize import minimize

    dim = x.shape[1]
    var_y = max(float(np.var(y)), 1e-6)
    # space-filling grid of starting points over (lengthscale, signal variance)
    ell_grid = [0.1, 0.3, 0.8, 2.0]
    tau_grid = [var_y, 4.0 * var_y]
    starts = [
        np.array([np.log(ell)] * dim + [np.log(tau)])
        for tau in tau_grid
        for ell in ell_grid
    ]
    bounds = [(np.log(1e-2), np.log(1e2))] * dim + [(np.log(var_y * 1e-4), np.log(var_y * 1e4))]

    best = None
    for theta0 in starts:
        res = minimize(
            lambda th: _nll_grad_beta(th, x, y, noise)[:2],
            theta0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-8, "gtol": 1e-10, "maxiter": 500},
        )
        if best is None or res.fun < best.fun:
            best = res
    if not np.isfinite(best.fun):
        raise ValueError("GP fit failed: kernel matrix indefinite at every start")
    nll, _, beta = _nll_grad_beta(best.x, x, y, noise)
    return SegmentGP(
        x_train=x,
        y_train=y,
        noise=noise,
        lengthscales=np.exp(best.x[:-1]),
        signal_variance=float(np.exp(best.x[-1])),
        beta=beta,
        log_marginal_likelihood=-nll,
    )


# --------------------------------------------------------------------------
# Emulator


@dataclass
class GpEmulator:
    """Per-segment GP models of log account variance."""

    models: dict  # segment -> SegmentGP

    def _model(self, segment: int) -> SegmentGP:
        if segment not in self.models:
            raise ValueError(f"no fitted model for {segment!r}")
        return self.models[segment]

    def predict_log(self, b_tilde, c_tilde, segment: int, y0, credit):
        """Log-scale posterior mean and variance for points in one segment."""
        return self._model(segment).predict(_features(b_tilde, c_tilde, segment, y0, credit=credit))

    def predict_sigma2(self, b_tilde, c_tilde, segment: int, y0, credit):
        """Posterior median of the variance: exp of the log-scale posterior mean."""
        model = self._model(segment)
        return np.exp(model.predict_mean(_features(b_tilde, c_tilde, segment, y0, credit=credit)))

    # -------------------------------------------------------------- storage

    def to_json(self, path) -> dict:
        """Write the emulator to the JSON file at ``path``, the format :meth:`from_json` reads; returns the document."""
        def pack(m: SegmentGP):
            return {
                "x_train": m.x_train.tolist(),
                "y_train": m.y_train.tolist(),
                "noise": m.noise.tolist(),
                "lengthscales": m.lengthscales.tolist(),
                "signal_variance": m.signal_variance,
                "beta": m.beta,
                "log_marginal_likelihood": m.log_marginal_likelihood,
            }

        doc = {
            "format_version": _FORMAT_VERSION,
            **_STORED_SETTINGS,
            "models": {str(k): pack(m) for k, m in self.models.items()},
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return doc

    @classmethod
    def from_json(cls, path) -> "GpEmulator":
        """Load an emulator file written by :meth:`to_json`.

        Every model is checked as it is read: ``x_train`` (m, 3), ``y_train``
        and ``noise`` (m,), ``lengthscales`` (3,), every value a finite
        number, lengthscales and signal variance positive and noise
        non-negative.  A bad document raises one ``ValueError`` naming the
        file, the segment and the field.
        """
        doc, where = _read_json_object(path, "emulator"), str(path)
        if doc.get("format_version") != _FORMAT_VERSION:
            raise ValueError(f"{where}: unsupported emulator format: {doc.get('format_version')}")
        for name, value in _STORED_SETTINGS.items():
            if doc.get(name) != value:
                raise ValueError(f"{where}: unsupported emulator {name}: {doc.get(name)!r}, expected {value!r}")
        if "models" not in doc:
            raise ValueError(f"{where}: missing field 'models'")
        if not isinstance(doc["models"], dict):
            raise ValueError(f"{where}: field 'models' must be an object of segment models")
        models = {}
        for key, m in doc["models"].items():
            if key not in ("1", "2", "3"):
                raise ValueError(f"{where}: field 'models' has segment {key!r}, expected 1, 2 or 3")
            models[int(key)] = _stored_model(m, f"{where}, segment {key}")
        return cls(models=models)


def _stored_model(m, context) -> SegmentGP:
    """One stored :class:`SegmentGP`, checked field by field; ``context`` names it in errors."""
    if not isinstance(m, dict):
        raise ValueError(f"{context}: expected a JSON object")

    def number_field(key, shape=()):
        if key not in m:
            raise ValueError(f"{context}: missing field {key!r}")
        try:
            a = np.asarray(m[key])  # a ragged list raises here
            if a.dtype.kind not in "iuf":
                raise ValueError
        except ValueError:
            raise ValueError(f"{context}: field {key!r} must hold numbers only") from None
        if shape is not None and a.shape != shape:
            raise ValueError(f"{context}: field {key!r} must have shape {shape}, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{context}: field {key!r} must be finite")
        return a.astype(float)

    x = number_field("x_train", None)
    if x.ndim != 2 or x.shape[1] != 3 or len(x) == 0:
        raise ValueError(f"{context}: field 'x_train' must have shape (m, 3) with m >= 1, got {x.shape}")
    gp = SegmentGP(
        x_train=x,
        y_train=number_field("y_train", (len(x),)),
        noise=number_field("noise", (len(x),)),
        lengthscales=number_field("lengthscales", (3,)),
        signal_variance=float(number_field("signal_variance")),
        beta=float(number_field("beta")),
        log_marginal_likelihood=float(number_field("log_marginal_likelihood")),
    )
    for key, ok, what in (
        ("lengthscales", np.all(gp.lengthscales > 0), "positive"),
        ("signal_variance", gp.signal_variance > 0, "positive"),
        ("noise", np.all(gp.noise >= 0), "non-negative"),
    ):
        if not ok:
            raise ValueError(f"{context}: field {key!r} must be {what}")
    return gp


def fit_gp(observations) -> GpEmulator:
    """Fit the emulator from training observations.

    Hyperparameters maximize the log marginal likelihood (multi-start local
    search with the constant mean profiled out); per-point noise variances are
    fixed from the kurtosis law and never re-estimated.
    """
    groups: dict = {}
    for o in observations:
        groups.setdefault(o.segment, []).append(o)
    models = {}
    for seg, obs in sorted(groups.items()):
        if len(obs) < 5:
            raise ValueError(f"segment group {seg!r} has only {len(obs)} observations; need >= 5")
        b = np.array([o.b_tilde for o in obs])
        c = np.array([o.c_tilde for o in obs])
        credit = np.array([o.credit_score for o in obs])
        y0 = np.array([o.y0 for o in obs])
        y = np.array([o.log_variance for o in obs])
        noise = np.array([o.noise_variance for o in obs])
        models[seg] = _fit_single(_features(b, c, seg, y0, credit=credit), y, noise)
    return GpEmulator(models=models)


def sigma2_for_population(emulator: GpEmulator, population) -> np.ndarray:
    """Vectorized variance predictions for every account in a population.

    Entries for dependent accounts are filled too (the caller decides which
    to use); predictions group by (segment, y0) for efficiency.  Each group's
    cross-kernel is built a block of rows at a time (see ``SegmentGP._mean``),
    so beyond the (n, m) kernel itself memory does not grow with the group.
    """
    b_t = balance_cdf(population.balance)
    c_t = np.asarray(credit_cdf(population.credit_score))
    out = np.empty(population.n)
    for s in (1, 2, 3):
        for y in (0, 1):
            mask = (population.segment == s) & (population.paid_last_month == bool(y))
            if mask.any():
                out[mask] = emulator.predict_sigma2(
                    b_t[mask], c_t[mask], s, np.full(mask.sum(), y), credit=population.credit_score[mask]
                )
    return out


def validate_emulator(
    emulator: GpEmulator, test_design: dict, n_realisations: int = 1000, seed: int = 0, n_workers: int = 1
):
    """Test-set metrics: log-RMSE, sd correlation, 95% credible coverage.

    Each test point is simulated afresh (disjoint seed domain from training),
    on ``n_workers`` processes; credible intervals use posterior variance
    plus the point's estimated noise variance.
    """
    per_segment: dict = {s: {"log_err": [], "pred_sd": [], "samp_sd": [], "covered": []} for s in (1, 2, 3)}
    z975 = normal_quantile(0.975)
    for (s, y), kept in _design_moments(test_design, n_realisations, seed, "validate", n_workers):
        if not kept:
            continue
        b_t, c_t, credit, v, kurt = (np.array(col) for col in zip(*kept))
        mean, var = emulator.predict_log(b_t, c_t, s, np.full(len(kept), y), credit=credit)
        noise = np.maximum((kurt - 1.0) / n_realisations, 0.0)
        log_v = np.log(v)
        rec = per_segment[s]
        rec["log_err"].extend((mean - log_v).tolist())
        rec["pred_sd"].extend(np.sqrt(np.exp(mean)).tolist())
        rec["samp_sd"].extend(np.sqrt(v).tolist())
        rec["covered"].extend((np.abs(log_v - mean) <= z975 * np.sqrt(var + noise)).tolist())

    def summarize(rec):
        if not rec["log_err"]:
            return None
        pred, samp = np.asarray(rec["pred_sd"]), np.asarray(rec["samp_sd"])
        return {
            "n": len(pred),
            "log_rmse": float(np.sqrt(np.mean(np.asarray(rec["log_err"]) ** 2))),
            "sd_correlation": float(np.corrcoef(pred, samp)[0, 1]),
            "credible_coverage": float(np.mean(rec["covered"])),
        }

    pooled = {k: sum((per_segment[s][k] for s in (1, 2, 3)), []) for k in per_segment[1]}
    return {
        "per_segment": {s: summarize(per_segment[s]) for s in (1, 2, 3)},
        "pooled": summarize(pooled),
    }

"""Polychoric/tetrachoric correlation via the two-step estimator.

Step one fixes the thresholds of each ordinal margin from its cumulative
proportions through the inverse standard-normal CDF. Step two maximizes the
bivariate-normal cell likelihood over the latent correlation with a bracketed
scalar search. Each cell probability is the double difference of the standard
bivariate-normal CDF at the cell's corners, and the CDF at a finite corner is
Owen's (1956) closed form in Owen's T function, exact to double precision.
"""
from __future__ import annotations

import logging

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, ndtri, owens_t

logger = logging.getLogger(__name__)

_RHO_BOUND = 0.999
_ZERO_SHIFT = 1e-100  # a zero threshold moves here: Owen's form divides by it


def _bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) of a standard bivariate normal on the finite grid
    h (column) x k (row), from Owen's T."""
    h = np.where(h == 0.0, _ZERO_SHIFT, h)[:, None]
    k = np.where(k == 0.0, _ZERO_SHIFT, k)[None, :]
    root = np.sqrt(1.0 - rho * rho)
    return (0.5 * (ndtr(h) + ndtr(k))
            - owens_t(h, (k - rho * h) / (h * root))
            - owens_t(k, (h - rho * k) / (k * root))
            - 0.5 * (h * k < 0.0))


def bvn_cell_probs(thresholds_x, thresholds_y, rho):
    """Standard-bivariate-normal probabilities of every threshold rectangle.

    Threshold vectors include the infinite endpoints; the result has shape
    (len(tx)-1, len(ty)-1) and sums to 1.
    """
    tx = np.asarray(thresholds_x, dtype=float)
    ty = np.asarray(thresholds_y, dtype=float)
    cdf = np.zeros((len(tx), len(ty)))  # the -inf row and column stay 0
    cdf[1:-1, 1:-1] = _bvn_cdf(tx[1:-1], ty[1:-1], rho)
    cdf[-1, 1:] = ndtr(ty[1:])
    cdf[1:, -1] = ndtr(tx[1:])
    return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]


def thresholds_from_counts(counts):
    """Latent thresholds from marginal counts, with +-inf endpoints."""
    n = counts.sum()
    cum = np.cumsum(counts)[:-1] / n
    inner = ndtri(cum)
    return np.concatenate(([-np.inf], inner, [np.inf]))


def polychoric_pair(x, y):
    """Two-step polychoric estimate for two integer-coded ordinal samples.

    Returns (rho, warnings). Categories are taken from the observed values;
    declared-but-absent levels therefore collapse away (a note is emitted).
    Estimates ending on the clamp boundary carry a boundary warning.
    """
    warnings = []
    x = np.asarray(x)
    y = np.asarray(y)
    ux, xi = np.unique(x, return_inverse=True)
    uy, yi = np.unique(y, return_inverse=True)
    if len(ux) < 2 or len(uy) < 2:
        warnings.append("constant margin; correlation set to 0")
        return 0.0, warnings
    table = np.zeros((len(ux), len(uy)))
    np.add.at(table, (xi, yi), 1.0)
    if (table == 0).any():
        warnings.append("contingency table has empty cells")
    tx = thresholds_from_counts(table.sum(axis=1))
    ty = thresholds_from_counts(table.sum(axis=0))

    def negll(rho):
        probs = np.clip(bvn_cell_probs(tx, ty, rho), 1e-300, None)
        return -float((table * np.log(probs)).sum())

    res = minimize_scalar(
        negll, bounds=(-_RHO_BOUND, _RHO_BOUND), method="bounded",
        options={"xatol": 1e-7},
    )
    rho = float(np.clip(res.x, -_RHO_BOUND, _RHO_BOUND))
    if abs(rho) >= _RHO_BOUND - 1e-3:
        rho = float(np.sign(rho) * _RHO_BOUND)
        warnings.append(f"boundary estimate clamped to {rho:+.3f}")
    for w in warnings:
        logger.warning("polychoric: %s", w)
    return rho, warnings

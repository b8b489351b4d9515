"""DirectLiNGAM: causal ordering for linear models with non-Gaussian noise.

At each step the most exogenous remaining variable is placed, scored by the
pairwise dependence between each variable and the residuals of regressing
the others on it (maximum-entropy approximation with log-cosh and
Gaussian-moment contrasts; Hyvarinen & Smith 2013). One kernel scores all
remaining variables, building the residuals in blocks of `_BLOCK_BYTES`. A
variable waits until every variable of an earlier tier and its required
parents are placed, and data of deficient rank is refused. Coefficients are
then fitted by least squares along the order and pruned at a fixed magnitude
threshold.
"""
from __future__ import annotations

import time

import numpy as np

from ..data import Dataset
from ..graph import MixedGraph, _bk
from .common import DiscoveryConfig, DiscoveryError, finish_record

_K1 = 79.047
_K2 = 7.4129
_GAMMA = 0.37457
_BLOCK_BYTES = 1 << 20  # size of one block of pairwise residuals


def _entropy(u):
    """Differential entropy of each standardized column (axis 0) of u,
    maximum-entropy approximation."""
    return (1.0 + np.log(2.0 * np.pi)) / 2.0 \
        - _K1 * (np.mean(np.log(np.cosh(u)), axis=0) - _GAMMA) ** 2 \
        - _K2 * np.mean(u * np.exp(-(u ** 2) / 2.0), axis=0) ** 2


def _standardize(x):
    """Center and scale each column (axis 0); a zero column stays zero."""
    sd = x.std(axis=0)
    x = x - x.mean(axis=0)
    return np.divide(x, sd, out=x, where=sd > 0)


def _exogeneity(w):
    """Score of every column of the (n, r) matrix w; the lowest is the most
    exogenous.

    Column i scores sum_j min(0, m_ij)^2 with m_ij = H(z_j) + H(r_i|j) -
    H(z_i) - H(r_j|i), where z are the standardized columns and r_i|j the
    standardized residual of z_i regressed on z_j; m_ij < 0 favors z_j as
    the cause of z_i. Residuals are built for blocks of rows i at a time.
    """
    n, r = w.shape
    z = _standardize(w)
    zc = z - z.mean(axis=0)
    cov = zc.T @ zc / n
    coef = cov / np.diag(cov)  # coef[i, j]: slope of z_i on z_j
    h = _entropy(z)
    h_res = np.empty((r, r))
    step = max(1, _BLOCK_BYTES // (8 * n * r))
    for i in range(0, r, step):
        res = z[:, i:i + step, None] - z[:, None, :] * coef[i:i + step]
        h_res[i:i + step] = _entropy(_standardize(res))  # r_i|i is a zero column
    m = (h[None, :] + h_res) - (h[:, None] + h_res.T)
    np.fill_diagonal(m, 0.0)
    return (np.minimum(0.0, m) ** 2).sum(axis=1)


def direct_lingam(dataset, cfg=None, bk=None, record=None):
    """Run DirectLiNGAM on a dataset; returns a weighted DAG.

    Ties in the independence measure break lexicographically, so the output
    is deterministic. Background knowledge restricts the candidate exogenous
    set (a variable waits until every variable of an earlier tier and its
    required parents are placed) and forbidden directions are excluded from
    the coefficient regressions.
    Data whose centered columns are not linearly independent (a constant or
    collinear column, or n <= p) raise `DiscoveryError`.
    """
    if not isinstance(dataset, Dataset):
        raise DiscoveryError("direct_lingam needs a Dataset (raw columns, not correlations)")
    cfg = cfg or DiscoveryConfig()
    bk = _bk(bk)
    started = time.perf_counter()

    names = sorted(dataset.names)
    p = len(names)
    n = dataset.n
    col = {v: dataset.column(v) - dataset.column(v).mean() for v in names}
    work = np.column_stack([col[v] for v in names])
    rank = np.linalg.matrix_rank(work)
    if rank < p:
        raise DiscoveryError(f"centered data has rank {rank} < p = {p} (n = {n}): "
                             "a constant or collinear column, or too few rows")

    order = []
    remaining = list(names)
    while remaining:
        # a variable outside every tier waits only for its required parents
        cands = [v for v in remaining
                 if not any(bk._violates_tiers(v, u) or bk.is_required(u, v)
                            for u in remaining)] or remaining
        if len(cands) == 1:
            m = cands[0]
        else:
            score = dict(zip(remaining, _exogeneity(work)))
            m = min(cands, key=lambda v: (score[v], v))
        k = remaining.index(m)
        order.append(m)
        del remaining[k]
        xm = work[:, k]
        work = np.delete(work, k, axis=1)
        slope = (work - work.mean(axis=0)).T @ (xm - xm.mean()) / n / np.var(xm)
        work -= np.outer(xm, slope)

    g = MixedGraph(names, "weighted-dag")
    pruned = 0
    for pos, v in enumerate(order):
        preds = [u for u in order[:pos] if not bk.is_forbidden(u, v)]
        if not preds:
            continue
        a = np.column_stack([col[u] for u in preds])
        b = np.linalg.lstsq(a, col[v], rcond=None)[0]
        for u, w in zip(preds, b):
            if abs(w) >= cfg.prune_threshold or bk.is_required(u, v):
                g.add_directed(u, v, weight=float(w))
            else:
                pruned += 1
    g.validate()

    finish_record(record, "lingam", cfg, bk, g, started,
                  causal_order=order, pruned_coefficients=pruned)
    return g

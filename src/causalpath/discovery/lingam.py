"""DirectLiNGAM: causal ordering for linear models with non-Gaussian noise.

At each step the most exogenous candidate is placed, scored by the pairwise
dependence between each variable and the residuals of regressing the others
on it (maximum-entropy approximation with log-cosh and Gaussian-moment
contrasts; Hyvarinen & Smith 2013). A variable is a candidate once every
variable of an earlier tier and its required parents are placed, and only
the candidates' scores are computed: one kernel builds the residual of each
ordered pair with a candidate at either end, standardized in closed form
from the covariance matrix, in one reused buffer of `_BLOCK_BYTES`. Data of
deficient rank is refused. Coefficients are then fitted by least squares
along the order and pruned at a fixed magnitude threshold.
"""
from __future__ import annotations

import time

import numpy as np

from ..data import Dataset
from ..graph import MixedGraph
from .common import DiscoveryConfig, DiscoveryError, checked_knowledge, finish_record

_K1 = 79.047
_K2 = 7.4129
_GAMMA = 0.37457
_BLOCK_BYTES = 1 << 20  # the kernel's buffer: a block of residuals and its scratch


def _entropy(u, scratch=None):
    """Differential entropy of each standardized row of u (reduced over the
    last axis), maximum-entropy approximation. A scratch array of u's shape,
    when given, holds the intermediates; u is left as it was."""
    t = np.empty_like(u) if scratch is None else scratch
    np.cosh(u, out=t)
    np.log(t, out=t)
    log_cosh = t.mean(axis=-1)
    np.square(u, out=t)
    t *= -0.5
    np.exp(t, out=t)
    t *= u
    gauss = t.mean(axis=-1)
    return (1.0 + np.log(2.0 * np.pi)) / 2.0 \
        - _K1 * (log_cosh - _GAMMA) ** 2 - _K2 * gauss ** 2


def _standardize(x):
    """Center and scale each column (axis 0); a zero column stays zero."""
    sd = x.std(axis=0)
    x = x - x.mean(axis=0)
    return np.divide(x, sd, out=x, where=sd > 0)


def _exogeneity(w, cands=None):
    """Score of each candidate column (indices `cands`, default all) of the
    (n, r) matrix w; the lowest is the most exogenous.

    Column i scores sum_j min(0, m_ij)^2 with m_ij = H(z_j) + H(r_i|j) -
    H(z_i) - H(r_j|i), where z are the standardized columns and r_i|j the
    standardized residual of z_i regressed on z_j; m_ij < 0 favors z_j as
    the cause of z_i. Only the ordered pairs with a candidate at either end
    are built, c(2r - c - 1) of them for c candidates, and never a pair
    (i, i). With cov the covariance and mu the means of z, r_i|j is
    (z_i - b_ij z_j - mu_i + b_ij mu_j) / sd_ij with b_ij = cov_ij / cov_jj
    and sd_ij^2 = cov_ii - b_ij cov_ij, so standardizing it takes no pass
    over the rows; a residual variance <= 0 raises `DiscoveryError`.
    """
    n, r = w.shape
    z = _standardize(w)
    mu = z.mean(axis=0)
    zc = z - mu
    cov = zc.T @ zc / n
    cands = np.arange(r) if cands is None else np.asarray(cands)
    scored = np.zeros(r, dtype=bool)
    scored[cands] = True
    pair = scored[:, None] | scored[None, :]
    np.fill_diagonal(pair, False)
    a, b = np.nonzero(pair)  # pair k is r_a|b
    slope = cov[a, b] / cov[b, b]
    var = cov[a, a] - slope * cov[a, b]
    if not np.all(var > 0):
        raise DiscoveryError("a pairwise residual has variance <= 0: collinear columns")
    shift = (mu[a] - slope * mu[b])[:, None]
    scale = (1.0 / np.sqrt(var))[:, None]
    slope = slope[:, None]
    zt = np.ascontiguousarray(z.T)
    step = max(1, _BLOCK_BYTES // (2 * 8 * n))  # a block and its scratch
    block, scratch = np.empty((2, min(step, len(a)), n))
    h_res = np.zeros((r, r))  # the diagonal stays 0, so m_ii is 0
    for s in range(0, len(a), step):
        k = slice(s, s + step)
        res, tmp = block[:len(a[k])], scratch[:len(a[k])]
        # mode "clip" lets take write into out directly ("raise" buffers)
        np.take(zt, b[k], axis=0, out=res, mode="clip")
        res *= -slope[k]
        np.take(zt, a[k], axis=0, out=tmp, mode="clip")
        res += tmp
        res -= shift[k]
        res *= scale[k]
        h_res[a[k], b[k]] = _entropy(res, tmp)
    h = _entropy(zt)
    m = (h[None, :] + h_res[cands]) - (h[cands, None] + h_res[:, cands].T)
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
    bk = checked_knowledge(bk, dataset.names)
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

    # a variable outside every tier waits only for its required parents
    waits = {v: {u for u in names if bk._violates_tiers(v, u) or bk.is_required(u, v)}
             for v in names}
    order = []
    remaining = list(names)
    columns = 0  # residuals whose entropy was computed
    while remaining:
        cands = [v for v in remaining if waits[v].isdisjoint(remaining)] or remaining
        if len(cands) == 1:
            m = cands[0]
        else:
            r, c = len(remaining), len(cands)
            idx = [remaining.index(v) for v in cands]
            score = dict(zip(cands, _exogeneity(work, idx)))
            columns += c * (2 * r - c - 1)
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
                  causal_order=order, pruned_coefficients=pruned,
                  exogeneity_columns=columns)
    return g

"""Polychoric/tetrachoric correlation via the two-step estimator.

Step one fixes the thresholds of each ordinal margin from its cumulative
proportions through the inverse standard-normal CDF. Step two maximizes the
bivariate-normal cell likelihood over the latent correlation of every column
pair at once. Each cell probability is the double difference of the standard
bivariate-normal CDF Phi2 at the cell's corners, and Phi2 at a finite corner
is Owen's (1956) closed form in Owen's T function, exact to double precision.
Its derivative in rho is the bivariate-normal density phi2 at the corner, so
the score and the observed information are sums over the non-empty cells.

The likelihood is maximized by one safeguarded Newton iteration over all
pairs. Each pair owns one flat grid of its threshold corners, +-inf edges
included, sized by its own two columns, and each sweep evaluates Phi2, phi2
and d(phi2)/d(rho) at the finite corners of the pairs still active, then
sums the cell terms to a score and a curvature per pair with `np.bincount`.
That sum runs over one pair's cells in a fixed order, so an estimate
depends on its own two columns only, bit for bit.
Each pair starts at rho = 0 inside the bracket [-0.999, 0.999], which the
sign of the score narrows. A Newton step is replaced by bisection when the
curvature is not negative, when the step leaves the bracket, or when it is
more than half the step before last (Newton crawling along a flat
likelihood, as when the maximum lies on the boundary). A pair stops when its
step or bracket is shorter than _TOL, or when its bracket lies inside the
clamp zone |rho| >= 0.998.
"""
from __future__ import annotations

import logging

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

logger = logging.getLogger(__name__)

_RHO_BOUND = 0.999
_CLAMP = _RHO_BOUND - 1e-3  # estimates this far out are clamped to the bound
_ZERO_SHIFT = 1e-100  # a zero threshold moves here: Owen's form divides by it
_TOL = 1e-10  # a pair converges when its step or its bracket is shorter
_MAX_SWEEPS = 50  # past this a pair keeps its last iterate, with a warning


def _bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) of a standard bivariate normal at finite corners
    (h, k), elementwise, from Owen's T."""
    h = np.where(h == 0.0, _ZERO_SHIFT, h)
    k = np.where(k == 0.0, _ZERO_SHIFT, k)
    root = np.sqrt(1.0 - rho * rho)
    return (0.5 * (ndtr(h) + ndtr(k))
            - owens_t(h, (k - rho * h) / (h * root))
            - owens_t(k, (h - rho * k) / (k * root))
            - 0.5 * (h * k < 0.0))


def _bvn_pdf(h, k, rho):
    """The standard bivariate-normal density phi2 at (h, k), which is
    d(Phi2)/d(rho), and its own derivative in rho, elementwise."""
    s = 1.0 - rho * rho
    q = h * h - 2.0 * rho * h * k + k * k
    pdf = np.exp(-0.5 * q / s) / (2.0 * np.pi * np.sqrt(s))
    return pdf, pdf * (rho / s + (h * k * s - rho * q) / (s * s))


def thresholds_from_counts(counts):
    """Latent thresholds from marginal counts, with +-inf endpoints."""
    n = counts.sum()
    cum = np.cumsum(counts)[:-1] / n
    inner = ndtri(cum)
    return np.concatenate(([-np.inf], inner, [np.inf]))


class _Layout:
    """Every fitted pair's (lx + 1) x (ly + 1) threshold corners as one flat
    grid, edges included, and its non-empty cells. Cell (a, b) is kept at its
    corner (a, b), so its four corners sit at the offsets 0, 1, ly + 1 and
    ly + 2. Phi2 on an edge is the univariate CDF of the smaller threshold
    (0 on a -inf edge), and phi2 is 0 there."""

    def __init__(self, codes, levels, thresholds, pi, pj):
        lx, side = levels[pi], levels[pj] + 1
        grid_off = np.concatenate(([0], np.cumsum((lx + 1) * side)))
        pair = np.repeat(np.arange(len(pi)), np.diff(grid_off))
        a, b = np.divmod(np.arange(grid_off[-1]) - grid_off[pair], side[pair])
        t_off = np.concatenate(([0], np.cumsum(levels + 1)))
        t_all = np.concatenate(thresholds)
        h, k = t_all[t_off[pi][pair] + a], t_all[t_off[pj][pair] + b]
        self.cdf = ndtr(np.minimum(h, k))
        self.pdf = np.zeros_like(self.cdf)
        self.dpdf = np.zeros_like(self.cdf)
        self.fin = np.flatnonzero(np.isfinite(h) & np.isfinite(k))
        self.corner_pair, self.h, self.k = pair[self.fin], h[self.fin], k[self.fin]

        # contingency tables, one bincount per first column; pairs come in
        # triu order, so the pairs of one first column are contiguous
        table = np.zeros(grid_off[-1], dtype=np.int64)
        for i in np.unique(pi):
            sel = np.flatnonzero(pi == i)
            lo, hi = grid_off[sel[0]], grid_off[sel[-1] + 1]
            keys = (grid_off[sel] - lo + codes[:, [i]] * side[sel]) + codes[:, pj[sel]]
            table[lo:hi] = np.bincount(keys.ravel(), minlength=hi - lo)
        q = np.flatnonzero(table)
        self.cell_pair, self.count = pair[q], table[q].astype(float)
        self.empty = np.bincount(self.cell_pair, minlength=len(pi)) < lx * (side - 1)
        s = side[self.cell_pair]
        # the order of the double difference: (a+1, b+1) - (a, b+1) - (a+1, b) + (a, b)
        self.corners = (q + s + 1, q + 1, q + s, q)

    def sweep(self, rho, active):
        """Score and curvature of the log likelihood at `rho`, for the pairs
        flagged in `active`, in their order."""
        c = np.flatnonzero(active[self.corner_pair])
        h, k, r, f = self.h[c], self.k[c], rho[self.corner_pair[c]], self.fin[c]
        self.cdf[f] = _bvn_cdf(h, k, r)
        self.pdf[f], self.dpdf[f] = _bvn_pdf(h, k, r)
        e = np.flatnonzero(active[self.cell_pair])
        q11, q01, q10, q00 = (q[e] for q in self.corners)
        prob, dprob, ddprob = (v[q11] - v[q01] - v[q10] + v[q00]
                               for v in (self.cdf, self.pdf, self.dpdf))
        ok = prob > 0.0  # rounding can leave a far tail cell at or below 0
        ratio = np.divide(dprob, prob, out=np.zeros_like(prob), where=ok)
        curv = np.divide(ddprob, prob, out=np.zeros_like(prob), where=ok) - ratio * ratio
        pair, n, npair = self.cell_pair[e], self.count[e], len(active)
        score = np.bincount(pair, weights=n * ratio, minlength=npair)
        hess = np.bincount(pair, weights=n * curv, minlength=npair)
        return score[active], hess[active]


def polychoric_correlations(columns):
    """Two-step polychoric correlations of every column pair of an n x p
    matrix of integer-coded ordinal samples. Returns (matrix, warnings,
    levels), where warnings[(i, j)] lists pair i < j's warnings (see
    polychoric_pair) and levels[j] counts the values column j shows."""
    columns = np.asarray(columns)
    p = columns.shape[1]
    codes, levels, thresholds = [], [], []
    for x in columns.T:
        _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
        codes.append(inverse.ravel())
        levels.append(len(counts))
        thresholds.append(thresholds_from_counts(counts))
    codes, levels = np.column_stack(codes), np.array(levels)
    pi, pj = np.triu_indices(p, 1)
    pairs = list(zip(pi.tolist(), pj.tolist()))
    warnings = [[] for _ in pairs]
    rho_all = np.zeros(len(pairs))
    fit = np.flatnonzero((levels[pi] > 1) & (levels[pj] > 1))
    for k in np.setdiff1d(np.arange(len(pairs)), fit):
        warnings[k].append("constant margin; correlation set to 0")

    lay = _Layout(codes, levels, thresholds, pi[fit], pj[fit])
    rho = np.zeros(len(fit))
    lo = np.full(len(fit), -_RHO_BOUND)
    hi = np.full(len(fit), _RHO_BOUND)
    steps = np.full((2, len(fit)), 2.0 * _RHO_BOUND)  # each pair's last two step lengths
    active = np.ones(len(fit), dtype=bool)
    for _ in range(_MAX_SWEEPS):
        act = np.flatnonzero(active)
        if not act.size:
            break
        score, hess = lay.sweep(rho, active)
        r = rho[act]
        lo[act] = np.where(score > 0.0, r, lo[act])
        hi[act] = np.where(score < 0.0, r, hi[act])
        b_lo, b_hi = lo[act], hi[act]
        newton = r - np.divide(score, hess, out=np.full_like(r, np.inf), where=hess < 0.0)
        fast = 2.0 * np.abs(newton - r) <= steps[0, act]
        new = np.where((newton >= b_lo) & (newton <= b_hi) & fast, newton, 0.5 * (b_lo + b_hi))
        new = np.where(score == 0.0, r, new)
        rho[act] = new
        steps[:, act] = steps[1, act], np.abs(new - r)
        active[act[(score == 0.0) | (np.abs(new - r) < _TOL) | (b_hi - b_lo < _TOL)
                   | (b_lo >= _CLAMP) | (b_hi <= -_CLAMP)]] = False

    for k, r, stuck, empty in zip(fit, rho, active, lay.empty):
        if empty:
            warnings[k].append("contingency table has empty cells")
        if stuck:
            warnings[k].append(f"no convergence after {_MAX_SWEEPS} sweeps")
        if abs(r) >= _CLAMP:
            r = np.sign(r) * _RHO_BOUND
            warnings[k].append(f"boundary estimate clamped to {r:+.3f}")
        rho_all[k] = r
    for w in (w for ws in warnings for w in ws):
        logger.warning("polychoric: %s", w)
    m = np.eye(p)
    m[pi, pj] = m[pj, pi] = rho_all
    return m, dict(zip(pairs, warnings)), levels


def polychoric_pair(x, y):
    """Two-step polychoric estimate for two integer-coded ordinal samples.

    Returns (rho, warnings). Categories are taken from the observed values,
    so a level that never occurs collapses away; only `polychoric_matrix`,
    which knows the declared levels, notes that. Estimates ending on the
    clamp boundary carry a boundary warning, and an iteration stopped by the
    sweep cap carries a no-convergence warning.
    """
    m, warnings, _ = polychoric_correlations(np.column_stack([np.asarray(x), np.asarray(y)]))
    return float(m[0, 1]), warnings[0, 1]

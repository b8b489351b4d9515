"""Conditional-independence testing backends for constraint-based discovery.

All testers share one calling convention: `tester(x, y, z) -> CiTestResult`
with `tester.nodes` listing the variables it knows about. Results are pure
functions of the inputs, symmetric in (x, y), and therefore safe to evaluate
concurrently.

The built-in testers answer each distinct query once. A query is keyed on
its unordered pair and its conditioning set, and its answer is kept on the
tester instance: `calls` counts every query and `evaluations` every one
actually computed. A tester's alpha and data are fixed when it is built, so
a kept answer always equals its recomputation. Passing one tester to both
`pc` and `fci` therefore shares its answers between the two searches.
`note_counts` counts the evaluated answers by note.

Fisher-z takes its partial correlation from `CorrelationMatrix.partial_cholesky`,
a plain-Python Cholesky factorization of the (*z, x, y) block that certifies
the block's condition number, with no LAPACK call. A block it declines
(indefinite, near-singular or ill-conditioned) goes to
`CorrelationMatrix.precision`, whose eigendecomposition decides as before
when a conditioning set is near-singular; a certified block is one that rule
accepts too. P-values come straight from the `scipy.special` ufuncs `ndtr`
and `chdtrc`.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .data import SingularConditioningError  # re-exported

logger = logging.getLogger(__name__)

class IndependenceError(ValueError):
    pass


@dataclass
class CiTestResult:
    statistic: float
    p_value: float
    dof_or_condsize: int
    independent: bool
    note: str = ""


def partial_correlation(c, x, y, z=()):
    """Partial correlation of x and y given z in the correlation matrix c:
    from `c.partial_cholesky` when it certifies the block, otherwise from the
    precision of the (x, y, *z) block; NaN when that block is indefinite and
    gives x or y a negative residual variance."""
    z = list(z)
    if x in z or y in z or x == y:
        raise IndependenceError("x, y must be distinct and disjoint from z")
    tail = c.partial_cholesky(x, y, z)
    if tail is not None:
        l21, l22 = tail
        return l21 / math.sqrt(l21 * l21 + l22 * l22)
    prec = c.precision([x, y, *z])
    scale = prec[0, 0] * prec[1, 1]
    if scale <= 0.0:
        return float("nan")
    return float(-prec[0, 1] / np.sqrt(scale))


class MemoizedTester:
    """Base of the built-in testers: answers each distinct query once.

    A query is keyed on (min(x, y), max(x, y), *sorted(z)), and `_test` gets
    it in that order, so an answer does not depend on the order in which x, y
    and z were given. Entries are plain tuples; a hit rebuilds the result.
    """

    def __init__(self, nodes, alpha):
        self.nodes = list(nodes)
        self.alpha = alpha
        self.calls = 0
        self.evaluations = 0
        self.note_counts = Counter()  # note -> evaluated answers with it
        self._memo: dict[tuple, tuple] = {}

    def __call__(self, x, y, z=()):
        self.calls += 1
        if y < x:
            x, y = y, x
        z = sorted(z)
        key = (x, y, *z)
        hit = self._memo.get(key)
        if hit is not None:
            return CiTestResult(*hit)
        self.evaluations += 1
        res = self._test(x, y, z)
        if res.note:
            self.note_counts[res.note] += 1
        self._memo[key] = (res.statistic, res.p_value, res.dof_or_condsize,
                           res.independent, res.note)
        return res

    def _test(self, x, y, z):
        raise NotImplementedError


class FisherZTest(MemoizedTester):
    """Gaussian CI test: z = sqrt(n - |Z| - 3) * atanh(partial correlation)."""

    def __init__(self, corr, alpha=0.05):
        super().__init__(corr.names, alpha)
        self.corr = corr

    def _test(self, x, y, z):
        n = self.corr.n
        if n <= len(z) + 3:
            raise IndependenceError(f"need n > |Z| + 3 (n={n}, |Z|={len(z)})")
        try:
            r = partial_correlation(self.corr, x, y, z)
        except SingularConditioningError:
            # near-singular conditioning: treat as dependent, keep searching
            logger.warning("fisher-z: near-singular conditioning set %s for (%s, %s); "
                           "treated as dependent", z, x, y)
            return CiTestResult(np.inf, 0.0, len(z), False, note="near-singular")
        if math.isnan(r):
            logger.warning("fisher-z: indefinite correlation submatrix for (%s, %s | %s); "
                           "treated as dependent", x, y, z)
            return CiTestResult(np.nan, np.nan, len(z), False, note="indefinite")
        if abs(r) >= 1.0:
            return CiTestResult(np.inf, 0.0, len(z), False, note="saturated")
        stat = math.sqrt(n - len(z) - 3) * math.atanh(r)
        p = float(2.0 * ndtr(-abs(stat)))
        return CiTestResult(stat, p, len(z), p > self.alpha)


class GSquaredTest(MemoizedTester):
    """Likelihood-ratio test on contingency tables for discrete columns.

    The strata of each conditioning set are computed once and kept until a
    query asks for a set of another size, so PC-stable and FCI's skeleton,
    which go depth by depth, hold one depth level's strata at a time.
    """

    def __init__(self, dataset, alpha=0.05):
        for v in dataset.schema:
            if v.kind == "continuous":
                raise IndependenceError(f"G^2 needs binary/ordinal columns; "
                                        f"{v.name} is continuous")
        super().__init__(dataset.names, alpha)
        self.dataset = dataset
        self._codes, self._levels = {}, {}
        for name in self.nodes:
            uniq, self._codes[name] = np.unique(dataset.column(name), return_inverse=True)
            self._levels[name] = len(uniq)
        self._strata: dict[tuple, tuple] = {}  # conditioning set -> (count, stratum)
        self._strata_size = 0

    def _stratify(self, z):
        """How many strata of z occur, and each row's stratum index."""
        if len(z) != self._strata_size:
            self._strata.clear()
            self._strata_size = len(z)
        key = tuple(z)
        hit = self._strata.get(key)
        if hit is None:
            joint = (np.ravel_multi_index([self._codes[v] for v in z],
                                          [self._levels[v] for v in z])
                     if z else np.zeros(self.dataset.n, dtype=np.intp))
            seen, stratum = np.unique(joint, return_inverse=True)
            self._strata[key] = hit = (len(seen), stratum)
        return hit

    def _test(self, x, y, z):
        """Sum of the per-stratum G^2 over the strata of Z that occur. Each
        stratum adds (x levels seen - 1)(y levels seen - 1) degrees of freedom."""
        xc, yc = self._codes[x], self._codes[y]
        lx, ly = self._levels[x], self._levels[y]
        strata, stratum = self._stratify(z)
        cube = np.bincount((stratum * lx + xc) * ly + yc,
                           minlength=strata * lx * ly).reshape(strata, lx, ly)
        rows, cols = cube.sum(axis=2), cube.sum(axis=1)
        expected = rows[:, :, None] * cols[:, None, :] / rows.sum(axis=1)[:, None, None]
        obs = cube > 0
        g2 = 2.0 * float((cube[obs] * np.log(cube[obs] / expected[obs])).sum())
        dof = int((((rows > 0).sum(axis=1) - 1) * ((cols > 0).sum(axis=1) - 1)).sum())
        if dof <= 0:
            return CiTestResult(0.0, 1.0, 0, True, note="degenerate")
        p = float(chdtrc(dof, g2))
        return CiTestResult(g2, p, dof, bool(p > self.alpha))

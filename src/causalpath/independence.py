"""Conditional-independence testing backends for constraint-based discovery.

All testers share one calling convention: `tester(x, y, z) -> CiTestResult`
with `tester.nodes` listing the variables it knows about. Results are pure
functions of the inputs and symmetric in (x, y). A tester instance is not
thread-safe: each call updates its counters and its kept answers, and G^2
also its cached strata.

The built-in testers answer each distinct query once. A query is keyed on
its unordered pair and its conditioning set, and its answer is kept on the
tester instance: `calls` counts every query and `evaluations` every one
actually computed. A tester's alpha and data are fixed when it is built, so
a kept answer always equals its recomputation. Passing one tester to both
`pc` and `fci` therefore shares its answers between the two searches.
`note_counts` counts the evaluated answers by note.

Fisher-z takes each partial correlation from `CorrelationMatrix` and treats
a near-singular, indefinite or saturated block as dependent, with a note.
P-values come straight from the `scipy.special` ufuncs `ndtr` and `chdtrc`.

G^2 reads each query off cached margins: the strata of a conditioning set
are ranked one variable at a time, each (variable, set) margin keeps its
sum of N log N and the levels it sees per stratum, and k log k comes from a
table over 0..n. A query then costs one `bincount` over its cells.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
from scipy.special import chdtrc, ndtr

from .data import SingularConditioningError  # re-exported

logger = logging.getLogger(__name__)

class IndependenceError(ValueError):
    pass


class CiTestResult(NamedTuple):
    statistic: float
    p_value: float
    dof_or_condsize: int
    independent: bool
    note: str = ""


class MemoizedTester:
    """Base of the built-in testers: answers each distinct query once.

    A query is keyed on (min(x, y), max(x, y), *sorted(z)), and `_test` gets
    it in that order, so an answer does not depend on the order in which x, y
    and z were given. Results are immutable, so a hit returns the kept one.
    """

    def __init__(self, nodes, alpha):
        self.nodes = list(nodes)
        self.alpha = alpha
        self.calls = 0
        self.evaluations = 0
        self.note_counts = Counter()  # note -> evaluated answers with it
        self._memo: dict[tuple, CiTestResult] = {}

    def __call__(self, x, y, z=()):
        self.calls += 1
        if y < x:
            x, y = y, x
        z = sorted(z)
        key = (x, y, *z)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        res = self._test(x, y, z)
        if res.note:
            self.note_counts[res.note] += 1
        self._memo[key] = res
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
            r = self.corr.partial_correlation(x, y, z)
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

    G^2 = 2[sum f(N_xyz) - sum f(N_xz) - sum f(N_yz) + sum f(N_z)] over the
    cells that occur, with f(k) = k log k read from a table over 0..n. Each
    stratum of z adds (x levels seen - 1)(y levels seen - 1) degrees of
    freedom. The strata of a conditioning set, and each (variable, set)
    margin's sum f and levels seen per stratum, are computed once and kept
    until a query asks for a set of another size, so PC-stable and FCI's
    skeleton, which go depth by depth, hold one depth level's sets at a
    time. A query then costs one `bincount` over the (x, y, z) cells.
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
        k = np.arange(dataset.n + 1, dtype=float)
        self._klogk = k * np.log(np.maximum(k, 1.0))
        # conditioning set -> (count, stratum, sum f(N_z), {v: margin of v and z})
        self._strata: dict[tuple, tuple] = {}
        self._strata_size = 0

    def _stratify(self, z):
        """The strata of z that occur: their count, each row's stratum index
        (the rank of its z-tuple among those that occur, in lexicographic
        order), sum f over the stratum sizes, and the set's margin cache.

        Strata are ranked one variable at a time, so no index ever exceeds
        (strata so far) x (levels of the next variable) <= n^2, however
        many levels the whole set has."""
        if len(z) != self._strata_size:
            self._strata.clear()
            self._strata_size = len(z)
        key = tuple(z)
        hit = self._strata.get(key)
        if hit is None:
            n = self.dataset.n
            count, stratum = min(n, 1), np.zeros(n, dtype=np.intp)
            for v in z:
                joint = stratum * self._levels[v] + self._codes[v]
                seen = np.bincount(joint) > 0
                rank = np.cumsum(seen) - 1
                count, stratum = int(np.count_nonzero(seen)), rank[joint]
            f_z = float(self._klogk[np.bincount(stratum, minlength=count)].sum())
            self._strata[key] = hit = (count, stratum, f_z, {})
        return hit

    def _margin(self, v, strata):
        """Sum f over the (v, z) cells, and the levels of v seen in each
        stratum of z minus one."""
        count, stratum, _, margins = strata
        hit = margins.get(v)
        if hit is None:
            lv = self._levels[v]
            cells = np.bincount(stratum * lv + self._codes[v], minlength=count * lv)
            free = (cells.reshape(count, lv) > 0).sum(axis=1) - 1
            margins[v] = hit = (float(self._klogk[cells].sum()), free)
        return hit

    def _test(self, x, y, z):
        """Sum of the per-stratum G^2 over the strata of Z that occur."""
        strata = self._stratify(z)
        f_xz, free_x = self._margin(x, strata)
        f_yz, free_y = self._margin(y, strata)
        dof = int(free_x @ free_y)
        if dof <= 0:
            return CiTestResult(0.0, 1.0, 0, True, note="degenerate")
        _, stratum, f_z, _ = strata
        ly = self._levels[y]
        cells = np.bincount(stratum * (self._levels[x] * ly) + self._codes[x] * ly
                            + self._codes[y])
        g2 = max(0.0, 2.0 * (float(self._klogk[cells].sum()) - f_xz - f_yz + f_z))
        p = float(chdtrc(dof, g2))
        return CiTestResult(g2, p, dof, bool(p > self.alpha))

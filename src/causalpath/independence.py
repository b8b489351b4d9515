"""Conditional-independence testing backends for constraint-based discovery.

All testers share one calling convention: `tester(x, y, z) -> CiTestResult`
with `tester.nodes` listing the variables it knows about. Results are pure
functions of the inputs, symmetric in (x, y), and therefore safe to evaluate
concurrently. A session log can wrap any tester to record every executed
query for later audit of edge deletions.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2, norm

from .graph import d_separated

logger = logging.getLogger(__name__)

_COND_LIMIT = 1e10  # condition number beyond which a conditioning set is unusable


class IndependenceError(ValueError):
    pass


class SingularConditioningError(IndependenceError):
    """The conditioning submatrix could not be inverted."""

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, tuple(z)
        super().__init__(f"singular conditioning submatrix for ({x}, {y} | {sorted(z)})")


def _finite_or_none(v):
    """JSON has no NaN or infinity: such a value is written as null."""
    v = float(v)
    return v if np.isfinite(v) else None


@dataclass
class CiTestResult:
    statistic: float
    p_value: float
    dof_or_condsize: int
    independent: bool
    note: str = ""

    def to_json_dict(self):
        return {
            "statistic": _finite_or_none(self.statistic),
            "p_value": _finite_or_none(self.p_value),
            "dof_or_condsize": int(self.dof_or_condsize),
            "independent": bool(self.independent),
            "note": self.note,
        }


def partial_correlation(c, x, y, z=()):
    """Partial correlation of x and y given z via the precision matrix of the
    (z + {x, y}) submatrix of the correlation matrix c; NaN when that
    submatrix is indefinite and gives x or y a negative residual variance."""
    z = list(z)
    if x in z or y in z or x == y:
        raise IndependenceError("x, y must be distinct and disjoint from z")
    idx = [c.index(x), c.index(y)] + [c.index(v) for v in z]
    sub = c.matrix[np.ix_(idx, idx)]
    if np.linalg.cond(sub) > _COND_LIMIT:
        raise SingularConditioningError(x, y, z)
    try:
        prec = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        raise SingularConditioningError(x, y, z) from None
    scale = prec[0, 0] * prec[1, 1]
    if scale <= 0.0:
        return float("nan")
    return float(-prec[0, 1] / np.sqrt(scale))


class FisherZTest:
    """Gaussian CI test: z = sqrt(n - |Z| - 3) * atanh(partial correlation)."""

    def __init__(self, corr, alpha=0.05):
        self.corr = corr
        self.alpha = alpha
        self.nodes = list(corr.names)
        self.calls = 0

    def __call__(self, x, y, z=()):
        self.calls += 1
        z = list(z)
        n = self.corr.n
        if n <= len(z) + 3:
            raise IndependenceError(f"need n > |Z| + 3 (n={n}, |Z|={len(z)})")
        try:
            r = partial_correlation(self.corr, x, y, z)
        except SingularConditioningError:
            # near-singular conditioning: treat as dependent, keep searching
            logger.warning("fisher-z: near-singular conditioning set %s for (%s, %s); "
                           "treated as dependent", sorted(z), x, y)
            return CiTestResult(np.inf, 0.0, len(z), False, note="near-singular")
        if np.isnan(r):
            logger.warning("fisher-z: indefinite correlation submatrix for (%s, %s | %s); "
                           "treated as dependent", x, y, sorted(z))
            return CiTestResult(np.nan, np.nan, len(z), False, note="indefinite")
        if abs(r) >= 1.0:
            return CiTestResult(np.inf, 0.0, len(z), False, note="saturated")
        stat = np.sqrt(n - len(z) - 3) * np.arctanh(r)
        p = 2.0 * norm.sf(abs(stat))
        return CiTestResult(float(stat), float(p), len(z), bool(p > self.alpha))


class GSquaredTest:
    """Likelihood-ratio test on contingency tables for discrete columns."""

    def __init__(self, dataset, alpha=0.05):
        for v in dataset.schema:
            if v.kind == "continuous":
                raise IndependenceError(f"G^2 needs binary/ordinal columns; "
                                        f"{v.name} is continuous")
        self.dataset = dataset
        self.alpha = alpha
        self.nodes = list(dataset.names)
        self.calls = 0
        self._codes, self._levels = {}, {}
        for name in self.nodes:
            uniq, self._codes[name] = np.unique(dataset.column(name), return_inverse=True)
            self._levels[name] = len(uniq)

    def __call__(self, x, y, z=()):
        """Sum of the per-stratum G^2 over the strata of Z that occur. Each
        stratum adds (x levels seen - 1)(y levels seen - 1) degrees of freedom."""
        self.calls += 1
        z = list(z)
        xc, yc = self._codes[x], self._codes[y]
        lx, ly = self._levels[x], self._levels[y]
        joint = (np.ravel_multi_index([self._codes[v] for v in z], [self._levels[v] for v in z])
                 if z else np.zeros(len(xc), dtype=np.intp))
        seen, stratum = np.unique(joint, return_inverse=True)
        cube = np.bincount((stratum * lx + xc) * ly + yc,
                           minlength=len(seen) * lx * ly).reshape(len(seen), lx, ly)
        rows, cols = cube.sum(axis=2), cube.sum(axis=1)
        expected = rows[:, :, None] * cols[:, None, :] / rows.sum(axis=1)[:, None, None]
        obs = cube > 0
        g2 = 2.0 * float((cube[obs] * np.log(cube[obs] / expected[obs])).sum())
        dof = int((((rows > 0).sum(axis=1) - 1) * ((cols > 0).sum(axis=1) - 1)).sum())
        if dof <= 0:
            return CiTestResult(0.0, 1.0, 0, True, note="degenerate")
        p = float(chi2.sf(g2, dof))
        return CiTestResult(g2, p, dof, bool(p > self.alpha))


class OracleCI:
    """Exact CI oracle reading independence off a DAG by d-separation."""

    def __init__(self, dag, alpha=0.05):
        self.dag = dag
        self.alpha = alpha
        self.nodes = sorted(dag.nodes)
        self.calls = 0

    def __call__(self, x, y, z=()):
        self.calls += 1
        sep = d_separated(self.dag, x, y, z)
        return CiTestResult(0.0, 1.0 if sep else 0.0, len(tuple(z)), sep)


def oracle_ci(dag, alpha=0.05):
    """CI-test function whose `independent` flag equals d-separation in dag."""
    return OracleCI(dag, alpha)


class SessionLog:
    """Wrap a tester, recording every executed query as a JSON-ready dict."""

    def __init__(self, tester, path=None):
        self.tester = tester
        self.nodes = tester.nodes
        self.alpha = getattr(tester, "alpha", None)
        self.records = []
        self.path = path

    @property
    def calls(self):
        return getattr(self.tester, "calls", len(self.records))

    def __call__(self, x, y, z=()):
        res = self.tester(x, y, z)
        rec = {"x": x, "y": y, "z": sorted(z)}
        rec.update(res.to_json_dict())
        self.records.append(rec)
        return res

    def write(self, path=None):
        path = path or self.path
        if path is None:
            raise IndependenceError("no path for session log")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return path

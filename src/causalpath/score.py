"""Decomposable Gaussian BIC over a correlation matrix.

The local score of a node given a parent set is twice the profiled Gaussian
log-likelihood of its linear regression minus a penalty-discounted BIC term.
Scores are memoized per (node, parent-set); a cached value always equals its
recomputation.
"""
from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


class ScoreError(ValueError):
    pass


class BicScorer:
    def __init__(self, corr, penalty_discount=1.0):
        if penalty_discount <= 0:
            raise ScoreError("penalty_discount must be positive")
        self.corr = corr
        self.S = corr.matrix
        self.n = corr.n
        self.penalty_discount = penalty_discount
        self.names = list(corr.names)
        self._idx = {nm: i for i, nm in enumerate(self.names)}
        self.cache: dict[tuple, float] = {}
        self.evaluations = 0

    def local_score(self, node, parents=()):
        key = (node, frozenset(parents))
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        i = self._idx[node]
        pidx = sorted(self._idx[p] for p in key[1])
        if pidx:
            spp = self.S[np.ix_(pidx, pidx)]
            spv = self.S[pidx, i]
            try:
                beta = np.linalg.solve(spp, spv)
            except np.linalg.LinAlgError:
                raise ScoreError(f"singular regression of {node} on {sorted(key[1])}") from None
            sigma2 = float(self.S[i, i] - spv @ beta)
        else:
            sigma2 = float(self.S[i, i])
        if sigma2 <= 0.0:
            raise ScoreError(f"residual variance {sigma2:.3g} <= 0 for {node} on "
                             f"{sorted(key[1])}: the correlation matrix is indefinite")
        n = self.n
        loglik = -0.5 * n * (LOG_2PI + np.log(sigma2) + 1.0)
        score = 2.0 * loglik - self.penalty_discount * (len(pidx) + 1) * np.log(n)
        self.cache[key] = score
        return score

    def score_dag(self, g):
        """Total score of a DAG: sum of local scores."""
        return sum(self.local_score(v, g.parents(v)) for v in g.nodes)

    def score_class(self, g):
        """Score of an equivalence class via any consistent extension."""
        from .graph import consistent_extension, is_dag

        dag = g if is_dag(g) else consistent_extension(g)
        return self.score_dag(dag)

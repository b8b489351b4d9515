"""Decomposable Gaussian BIC over a correlation matrix.

The local score of a node given a parent set is twice the profiled Gaussian
log-likelihood of its linear regression, with the residual variance from
`CorrelationMatrix.residual_variance`, minus a penalty-discounted BIC term;
a near-singular or indefinite regression raises ScoreError. Scores and
refusals are memoized per (node, parent-set): a cached value equals its
recomputation, and asking again for a refused one raises a new ScoreError
with the same message, so `evaluations` counts each (node, parent-set) once.
"""
from __future__ import annotations

import numpy as np

from .data import SingularConditioningError

LOG_2PI = float(np.log(2.0 * np.pi))


class ScoreError(ValueError):
    pass


class BicScorer:
    def __init__(self, corr, penalty_discount=1.0):
        if not 0.0 < penalty_discount < np.inf:
            raise ScoreError("penalty_discount must be positive and finite")
        self.corr = corr
        self.n = corr.n
        self.penalty_discount = penalty_discount
        self.names = list(corr.names)
        self.cache: dict[tuple, float] = {}
        self.refused: dict[tuple, str] = {}  # key -> the ScoreError message
        self.evaluations = 0

    def local_score(self, node, parents=()):
        key = (node, frozenset(parents))
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if key in self.refused:
            raise ScoreError(self.refused[key])
        self.evaluations += 1
        try:
            self.cache[key] = score = self._score(node, sorted(key[1]))
        except ScoreError as err:
            self.refused[key] = str(err)
            raise
        return score

    def _score(self, node, parents):
        try:
            sigma2 = self.corr.residual_variance(node, parents)
        except SingularConditioningError as err:
            raise ScoreError(f"singular regression of {node} on {parents}: {err}") from None
        if sigma2 <= 0.0:
            raise ScoreError(f"residual variance {sigma2:.3g} <= 0 for {node} on "
                             f"{parents}: the correlation matrix is indefinite")
        n = self.n
        loglik = -0.5 * n * (LOG_2PI + np.log(sigma2) + 1.0)
        return 2.0 * loglik - self.penalty_discount * (len(parents) + 1) * np.log(n)

    def score_dag(self, g):
        """Total score of a DAG: sum of local scores."""
        return sum(self.local_score(v, g.parents(v)) for v in g.nodes)

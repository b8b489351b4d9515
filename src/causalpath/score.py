"""Decomposable Gaussian BIC over a correlation matrix.

The local score of a node given a parent set is twice the profiled Gaussian
log-likelihood of its linear regression minus a penalty-discounted BIC term.
Scores are memoized per (node, parent-set); a cached value always equals its
recomputation. The residual variance is 1 / precision[0, 0] of the
node-plus-parents block (`CorrelationMatrix.precision`), so a near-singular
regression is refused by the rule Fisher-z uses.
"""
from __future__ import annotations

import numpy as np

from .data import SingularConditioningError

LOG_2PI = float(np.log(2.0 * np.pi))


class ScoreError(ValueError):
    pass


class BicScorer:
    def __init__(self, corr, penalty_discount=1.0):
        if penalty_discount <= 0:
            raise ScoreError("penalty_discount must be positive")
        self.corr = corr
        self.n = corr.n
        self.penalty_discount = penalty_discount
        self.names = list(corr.names)
        self.cache: dict[tuple, float] = {}
        self.evaluations = 0

    def local_score(self, node, parents=()):
        key = (node, frozenset(parents))
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        try:
            p00 = float(self.corr.precision([node, *sorted(key[1])])[0, 0])
        except SingularConditioningError as err:
            raise ScoreError(f"singular regression of {node} on {sorted(key[1])}: "
                             f"{err}") from None
        if p00 <= 0.0:
            raise ScoreError(f"residual variance 1/{p00:.3g} <= 0 for {node} on "
                             f"{sorted(key[1])}: the correlation matrix is indefinite")
        sigma2 = 1.0 / p00
        n = self.n
        loglik = -0.5 * n * (LOG_2PI + np.log(sigma2) + 1.0)
        score = 2.0 * loglik - self.penalty_discount * (len(key[1]) + 1) * np.log(n)
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

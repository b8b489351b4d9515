"""Shared machinery for the discovery algorithms: configuration, input
normalization and the per-run JSON record."""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

from ..data import CorrelationMatrix, Dataset, pearson_matrix
from ..graph import _bk
from ..independence import FisherZTest
from ..score import BicScorer


class DiscoveryError(ValueError):
    pass


@dataclass
class DiscoveryConfig:
    alpha: float = 0.05
    max_cond_size: int | None = None
    penalty_discount: float = 1.0
    prune_threshold: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DiscoveryError("alpha must lie in (0, 1)")
        depth = self.max_cond_size
        if depth is not None and (type(depth) is not int or depth < 0):
            raise DiscoveryError(f"max_cond_size {depth!r} must be None or an int >= 0")
        if not 0.0 < self.penalty_discount < math.inf:
            raise DiscoveryError("penalty_discount must be positive and finite")
        if not 0.0 <= self.prune_threshold < math.inf:
            raise DiscoveryError("prune_threshold must be finite and >= 0")

    def to_json_dict(self):
        return asdict(self)


def checked_knowledge(bk, nodes):
    """The knowledge (empty when None), refused when it names a variable not
    in `nodes`: a misspelled name would silently disable its constraint."""
    bk = _bk(bk)
    unknown = set().union(*bk.tiers, *bk.forbidden, *bk.required) - set(nodes)
    if unknown:
        raise DiscoveryError(f"knowledge names unknown variables: {sorted(unknown)}")
    return bk


def _correlations(source, what):
    """Pearson correlations of a dataset; a correlation matrix passes through."""
    if isinstance(source, Dataset):
        return pearson_matrix(source)
    if isinstance(source, CorrelationMatrix):
        return source
    raise DiscoveryError(f"cannot build {what} from {type(source).__name__}")


def as_citester(source, cfg):
    """Normalize a CI-test source: a tester passes through, a correlation
    matrix gets Fisher-z, a dataset gets Fisher-z on Pearson correlations."""
    if callable(source) and hasattr(source, "nodes"):
        alpha = getattr(source, "alpha", cfg.alpha)
        if alpha != cfg.alpha:
            raise DiscoveryError(f"tester alpha {alpha} differs from config alpha {cfg.alpha}")
        return source
    return FisherZTest(_correlations(source, "a CI test"), cfg.alpha)


def as_scorer(source, cfg):
    if isinstance(source, BicScorer):
        if source.penalty_discount != cfg.penalty_discount:
            raise DiscoveryError(f"scorer penalty_discount {source.penalty_discount} differs "
                                 f"from config penalty_discount {cfg.penalty_discount}")
        return source
    return BicScorer(_correlations(source, "a scorer"), cfg.penalty_discount)


def finish_record(record, algorithm, cfg, bk, graph, started, sepsets=None, **extra):
    """Fill the per-run JSON record in place (config, knowledge digest, edge
    list, separating sets keyed "a,b" when given, counters, wall time)."""
    if record is None:
        return None
    if sepsets is not None:
        extra["sepsets"] = {",".join(sorted(k)): sorted(v) for k, v in sepsets.items()}
    record.update({
        "algorithm": algorithm,
        "config": cfg.to_json_dict(),
        "knowledge": bk.digest(),
        "nodes": list(graph.nodes),
        "edges": graph.to_json_dict()["edges"],
        "n_edges": graph.edge_count,
        "wall_time_ms": round((time.perf_counter() - started) * 1000.0, 3),
    })
    record.update(extra)
    return record

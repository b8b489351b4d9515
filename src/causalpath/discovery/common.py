"""Shared machinery for the discovery algorithms: configuration, input
normalization, the order-independent skeleton phase and collider triples.
Orientation lives in `graph.close_pattern`."""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import combinations

from ..data import CorrelationMatrix, Dataset, pearson_matrix
from ..graph import MixedGraph
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
        if self.penalty_discount <= 0:
            raise DiscoveryError("penalty_discount must be positive")

    def to_json_dict(self):
        return asdict(self)


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
        return source
    return FisherZTest(_correlations(source, "a CI test"), cfg.alpha)


def as_scorer(source, cfg):
    if isinstance(source, BicScorer):
        return source
    return BicScorer(_correlations(source, "a scorer"), cfg.penalty_discount)


def stable_skeleton(tester, cfg, bk):
    """Order-independent skeleton search (deletions within a depth level use
    the level-start adjacency sets). Returns the undirected graph and the
    recorded separating sets keyed by frozen node pairs.

    Knowledge: pairs required in either direction are never tested away;
    forbidden pairs are NOT pre-removed (only tests delete edges).
    """
    nodes = sorted(tester.nodes)
    g = MixedGraph(nodes, "cpdag")
    for a, b in combinations(nodes, 2):
        g.add_undirected(a, b)
    sepsets: dict[frozenset, set] = {}
    depth = 0
    while True:
        frozen = {v: set(g.adjacent(v)) for v in nodes}
        enough = False
        for x in nodes:
            for y in sorted(frozen[x]):
                if not g.has_edge(x, y):
                    continue
                if bk.is_required(x, y) or bk.is_required(y, x):
                    continue
                candidates = sorted(frozen[x] - {y})
                if len(candidates) < depth:
                    continue
                enough = True
                separate(g, tester, x, y, combinations(candidates, depth), sepsets)
        depth += 1
        if not enough:
            break
        if cfg.max_cond_size is not None and depth > cfg.max_cond_size:
            break
    return g, sepsets


def separate(g, tester, x, y, sets, sepsets):
    """Remove the edge x-y at the first conditioning set in `sets` that makes
    x and y independent, and record that set; True iff one did."""
    for zs in sets:
        if tester(x, y, zs).independent:
            g.remove_edge(x, y)
            sepsets[frozenset((x, y))] = set(zs)
            return True
    return False


def collider_triples(g, sepsets):
    """Unshielded triples (x, z, y), x - z - y with x and y nonadjacent, whose
    recorded separating set of x and y leaves out z."""
    for z in sorted(g.nodes):
        for x, y in combinations(g.adjacent(z), 2):
            key = frozenset((x, y))
            if not g.has_edge(x, y) and key in sepsets and z not in sepsets[key]:
                yield x, z, y


def ci_counters(tester):
    """A run record's CI counters: queries, evaluated queries and the
    evaluated answers by note (None where the tester keeps no such count)."""
    notes = getattr(tester, "note_counts", None)
    return {"ci_tests": getattr(tester, "calls", None),
            "ci_evaluations": getattr(tester, "evaluations", None),
            "ci_notes": None if notes is None else dict(sorted(notes.items()))}


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

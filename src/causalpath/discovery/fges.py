"""Greedy equivalence search over CPDAGs with a decomposable BIC score.

Forward phase: repeatedly apply the best score-improving Insert operator;
backward phase: the best Delete operator; both to a local maximum. After
every accepted operator the graph is rebuilt as a pattern (consistent
extension -> CPDAG -> knowledge orientation -> Meek closure), which reduces
to the textbook rebuild when no knowledge is given.

Knowledge enters as hard operator admissibility: forbidden directions are
never inserted, required edges seed the initial graph and are never deleted.
"""
from __future__ import annotations

import logging
import time
from itertools import combinations

from ..graph import (MixedGraph, NoExtensionError, _bk, apply_meek_rules,
                     consistent_extension, cpdag_of)
from ..score import ScoreError
from .common import DiscoveryConfig, as_scorer, finish_record, orient_by_knowledge

logger = logging.getLogger(__name__)

_TIE_RTOL = 1e-12


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def _is_clique(g, nodes):
    return all(g.has_edge(a, b) for a, b in combinations(sorted(nodes), 2))


def _semidirected_reachable(g, frm, to, blocked):
    """Is there a semi-directed path frm -> ... -> to avoiding `blocked`?"""
    seen = {frm}
    stack = [frm]
    while stack:
        v = stack.pop()
        if v == to:
            return True
        for w in g.undirected_neighbors(v) + g.children(v):
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return False


def _better(delta, key, best):
    """Does an operator beat best = (delta, x, y, set)? The higher delta
    wins; deltas within a relative _TIE_RTOL tie, and a tie goes to the
    smaller (x, y, set), so last-bit rounding cannot pick the operator."""
    if best is None:
        return True
    if abs(delta - best[0]) <= _TIE_RTOL * max(abs(delta), abs(best[0])):
        return key < best[1:]
    return delta > best[0]


def _rebuild(g, bk, conflicts):
    dag = consistent_extension(g)
    c = cpdag_of(dag)
    if not bk.is_empty():
        orient_by_knowledge(c, bk, conflicts)
        c = apply_meek_rules(c, bk, conflicts)
    return c


def _best_insert(g, scorer, bk, skip):
    best = None
    nodes = sorted(g.nodes)
    for y in nodes:
        pa_y = set(g.parents(y))
        nb_y = g.undirected_neighbors(y)
        for x in nodes:
            if x == y or g.has_edge(x, y) or bk.is_forbidden(x, y):
                continue
            na = {t for t in nb_y if g.has_edge(t, x)}
            t0 = [t for t in nb_y if not g.has_edge(t, x)]
            for T in _subsets(t0):
                if ("insert", x, y, T) in skip:
                    continue
                if any(bk.is_forbidden(t, y) for t in T):
                    continue
                nat = na | set(T)
                if not _is_clique(g, nat):
                    continue
                if _semidirected_reachable(g, y, x, nat):
                    continue
                base = frozenset(nat | pa_y)
                try:
                    delta = scorer.local_score(y, base | {x}) - scorer.local_score(y, base)
                except ScoreError as err:
                    logger.warning("fges insert %s->%s skipped: %s", x, y, err)
                    continue
                if _better(delta, (x, y, T), best):
                    best = (delta, x, y, T)
    return best


def _apply_insert(g, x, y, T):
    out = g.copy()
    out.add_directed(x, y)
    for t in T:
        out.orient(t, y)
    return out


def _best_delete(g, scorer, bk, skip):
    best = None
    nodes = sorted(g.nodes)
    for y in nodes:
        for x in nodes:
            if x == y:
                continue
            if not (g.is_directed(x, y) or (x < y and g.is_undirected(x, y))):
                continue
            if bk.is_required(x, y) or bk.is_required(y, x):
                continue
            h0 = [t for t in g.undirected_neighbors(y) if g.has_edge(t, x)]
            pa_y = set(g.parents(y))
            for H in _subsets(h0):
                if ("delete", x, y, H) in skip:
                    continue
                if any(bk.is_forbidden(y, h) for h in H):
                    continue
                if any(g.is_undirected(x, h) and bk.is_forbidden(x, h) for h in H):
                    continue
                rest = set(h0) - set(H)
                if not _is_clique(g, rest):
                    continue
                base = frozenset(rest | (pa_y - {x}))
                try:
                    delta = scorer.local_score(y, base) - scorer.local_score(y, base | {x})
                except ScoreError as err:
                    logger.warning("fges delete %s-%s skipped: %s", x, y, err)
                    continue
                if _better(delta, (x, y, H), best):
                    best = (delta, x, y, H)
    return best


def _apply_delete(g, x, y, H):
    out = g.copy()
    out.remove_edge(x, y)
    for h in H:
        if out.is_undirected(y, h):
            out.orient(y, h)
        if out.has_edge(x, h) and out.is_undirected(x, h):
            out.orient(x, h)
    return out


def fges(source, cfg=None, bk=None, record=None):
    """Run greedy equivalence search; returns a CPDAG.

    The run record carries the total score, the empty-graph score, and the
    per-operator trace.
    """
    cfg = cfg or DiscoveryConfig()
    bk = _bk(bk)
    started = time.perf_counter()
    scorer = as_scorer(source, cfg)
    nodes = sorted(scorer.names)
    conflicts = []

    g = MixedGraph(nodes, "cpdag")
    for a, b in sorted(bk.required):
        g.add_directed(a, b)
    if bk.required:
        g = _rebuild(g, bk, conflicts)

    empty_score = sum(scorer.local_score(v, ()) for v in nodes)
    trace = []

    for phase, finder, applier in (
        ("insert", _best_insert, _apply_insert),
        ("delete", _best_delete, _apply_delete),
    ):
        skip = set()
        while True:
            best = finder(g, scorer, bk, skip)
            if best is None or best[0] <= 1e-9:
                break
            delta, x, y, extra = best
            try:
                g = _rebuild(applier(g, x, y, extra), bk, conflicts)
            except NoExtensionError as err:
                logger.warning("fges %s(%s, %s, %s) produced an inextensible pattern: %s",
                               phase, x, y, extra, err)
                skip.add((phase, x, y, extra))
                continue
            skip.clear()
            trace.append({"op": phase, "x": x, "y": y, "set": list(extra),
                          "delta": float(delta)})

    total = scorer.score_class(g)
    finish_record(record, "fges", cfg, bk, g, started,
                  total_score=float(total),
                  empty_score=float(empty_score),
                  score_evaluations=scorer.evaluations,
                  trace=trace,
                  conflicts=conflicts)
    return g

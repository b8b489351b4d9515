"""Greedy equivalence search over CPDAGs with a decomposable BIC score.

Forward phase: repeatedly apply the best score-improving Insert operator;
backward phase: the best Delete operator; both to a local maximum. After
every accepted operator the graph is rebuilt as `cpdag_of(g, bk, conflicts)`
on the operator's PDAG, whose v-structures each consistent extension keeps
(Chickering 2002); knowledge is applied as in PC, by `close_pattern`, before
the v-structures and a single Meek closure.

The forward phase keeps its operators between steps (Ramsey et al. 2017).
The gain of Insert(x, y, T) depends only on the local state of the pair:
whether x and y are adjacent, pa(y), the undirected neighbours of y, and
which of those x is adjacent to. `_InsertCache` keeps, for each pair, every
T that knowledge admits and that gains more than the phase's stop, and
recomputes a pair only when its local state changed, which it reads only
for a pair whose y's (pa, neighbours) or x's adjacency moved. The two validity
checks (NaT is a clique; no semi-directed path from y to x avoids NaT)
depend on the whole graph, so they are never cached. The search walks the
cached operators in the order a full scan visits them, under the same
tie rule, and runs the checks only for an operator that would beat the best
so far. An operator that would not win leaves a full scan's answer as it
is, valid or not, and one at or below the stop cannot beat one above it, so
the cached search picks the operator, with the delta, that a scan of every
pair and subset picks.

Knowledge enters as hard operator admissibility: forbidden directions are
never inserted, required edges seed the initial graph and are never deleted.
An operator whose regression the scorer refuses is skipped, and logged once
per operator and parent set; one whose result has no consistent extension
is skipped at that graph. The run record counts both.
"""
from __future__ import annotations

import logging
import time
from functools import partial
from itertools import combinations

from ..graph import MixedGraph, NoExtensionError, consistent_extension, cpdag_of
from ..score import ScoreError
from .common import DiscoveryConfig, as_scorer, checked_knowledge, finish_record

logger = logging.getLogger(__name__)

_TIE_RTOL = 1e-12
_MIN_GAIN = 1e-9  # a phase stops when no operator gains more


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


def _gain(scorer, op, x, y, extra, base, refused):
    """Score change of y when x joins the parent set `base`, or None when the
    scorer refuses either regression. A refusal is logged once per
    (operator, base) and kept in `refused`."""
    try:
        return scorer.local_score(y, base | {x}) - scorer.local_score(y, base)
    except ScoreError as err:
        key = (op, x, y, extra, base)
        if key not in refused:
            refused.add(key)
            logger.warning("fges %s(%s, %s, %s) skipped: %s", op, x, y, extra, err)
        return None


class _InsertCache:
    """The forward phase's insert operators, kept per pair across steps."""

    def __init__(self, scorer, bk, refused):
        self.scorer = scorer
        self.bk = bk
        self.refused = refused
        self.nodes = sorted(scorer.names)
        self.adj, self.local = {}, {}  # node -> adjacency, (pa, nb) at the last refresh
        self.state = {}  # (y, x) -> the local state its operators were computed in
        self.ops = {}    # (y, x) -> [(delta, T, NaT)] in subset order

    def refresh(self, g):
        """Recompute each pair (x, y) whose local state changed: x adjacent
        to y, pa(y), the undirected neighbours of y, and which of those x is
        adjacent to. Only y's (pa, neighbours) or x's adjacency can move it."""
        adj = {v: frozenset(g.adjacent(v)) for v in self.nodes}
        local = {v: (frozenset(g.parents(v)), frozenset(g.undirected_neighbors(v)))
                 for v in self.nodes}
        moved = [v for v in self.nodes if self.adj.get(v) != adj[v]]
        for y in self.nodes:
            pa_y, nb_y = local[y]
            for x in self.nodes if self.local.get(y) != local[y] else moved:
                if x == y:
                    continue
                state = (y in adj[x], pa_y, nb_y, nb_y & adj[x])
                if self.state.get((y, x)) != state:
                    self.state[y, x] = state
                    self.ops[y, x] = self._pair_ops(x, y, *state)
        self.adj, self.local = adj, local

    def _pair_ops(self, x, y, adjacent, pa_y, nb_y, na):
        """The operators of pair (x, y), a function of its local state only."""
        if adjacent or self.bk.is_forbidden(x, y):
            return []
        ops = []
        for T in _subsets(nb_y - na):
            if any(self.bk.is_forbidden(t, y) for t in T):
                continue
            nat = na.union(T)
            delta = _gain(self.scorer, "insert", x, y, T, nat | pa_y, self.refused)
            if delta is not None and delta > _MIN_GAIN:
                ops.append((delta, T, nat))
        return ops

    def best(self, g, skip):
        """The best valid insert into g that is not in `skip`, as
        (delta, x, y, T), or None when none gains more than _MIN_GAIN."""
        self.refresh(g)
        best = None
        for y in self.nodes:
            for x in self.nodes:
                for delta, T, nat in self.ops.get((y, x), ()):
                    if (_better(delta, (x, y, T), best) and ("insert", x, y, T) not in skip
                            and _is_clique(g, nat)
                            and not _semidirected_reachable(g, y, x, nat)):
                        best = (delta, x, y, T)
        return best


def _apply_insert(g, x, y, T):
    out = g.copy()
    out.add_directed(x, y)
    for t in T:
        out.orient(t, y)
    return out


def _best_delete(scorer, bk, refused, g, skip):
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
                gain = _gain(scorer, "delete", x, y, H, frozenset(rest | (pa_y - {x})), refused)
                if gain is not None and _better(-gain, (x, y, H), best):
                    best = (-gain, x, y, H)
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

    The run record carries the total score, the empty-graph score, the
    per-operator trace and the number of operators skipped because the
    scorer refused a regression or the result had no consistent extension.
    """
    cfg = cfg or DiscoveryConfig()
    started = time.perf_counter()
    scorer = as_scorer(source, cfg)
    bk = checked_knowledge(bk, scorer.names)
    nodes = sorted(scorer.names)
    conflicts = []

    g = MixedGraph(nodes, "cpdag")
    for a, b in sorted(bk.required):
        g.add_directed(a, b)
    if bk.required:
        g = cpdag_of(g, bk, conflicts)

    empty_score = sum(scorer.local_score(v, ()) for v in nodes)
    trace = []
    refused = set()
    inextensible = 0

    for phase, finder, applier in (
        ("insert", _InsertCache(scorer, bk, refused).best, _apply_insert),
        ("delete", partial(_best_delete, scorer, bk, refused), _apply_delete),
    ):
        skip = set()
        while True:
            best = finder(g, skip)
            if best is None or best[0] <= _MIN_GAIN:
                break
            delta, x, y, extra = best
            try:
                g = cpdag_of(applier(g, x, y, extra), bk, conflicts)
            except NoExtensionError as err:
                logger.warning("fges %s(%s, %s, %s) produced an inextensible pattern: %s",
                               phase, x, y, extra, err)
                inextensible += 1
                skip.add((phase, x, y, extra))
                continue
            skip.clear()
            trace.append({"op": phase, "x": x, "y": y, "set": list(extra),
                          "delta": float(delta)})

    total = scorer.score_dag(consistent_extension(g))
    finish_record(record, "fges", cfg, bk, g, started,
                  total_score=float(total),
                  empty_score=float(empty_score),
                  score_evaluations=scorer.evaluations,
                  skipped_score_error=len(refused),
                  skipped_inextensible=inextensible,
                  trace=trace,
                  conflicts=conflicts)
    return g

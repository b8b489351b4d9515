"""Constraint-based search: PC-stable for a CPDAG and FCI for a PAG.

Both share one skeleton phase, whose deletions within a depth level consult
the level-start adjacency sets, so the skeleton does not depend on variable
order. The separating sets, and so the colliders, still do: relabelling the
variables changes them (ROADMAP item 3). PC orients with
`graph.close_pattern`, the rule FGES uses too: knowledge, then the colliders
the separating sets imply, then Meek closure. Conflicting orientations are
skipped and reported in the run record.

FCI's possible-d-separation pass then removes edges that only a non-adjacent
conditioning set can separate. `_pattern` orients the skeleton before and
after that pass, and R1-R3 plus the discriminating-path rule then run to a
fixpoint. Completeness-grade augmentations (selection-bias and tail rules)
are out of scope and noted in run records. FCI keeps its own knowledge and
collider step: in a PAG a forbidden u->v sets only an arrowhead at u, and a
pair forbidden both ways becomes u<->v, where `close_pattern` reports a
conflict.
"""
from __future__ import annotations

import time
from itertools import chain, combinations

from ..graph import ARROW, CIRCLE, TAIL, MixedGraph, close_pattern, report
from .common import DiscoveryConfig, as_citester, checked_knowledge, finish_record


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


def pc(source, cfg=None, bk=None, record=None):
    """Run PC-stable on a correlation matrix, dataset, or CI tester.

    Returns a CPDAG over the tester's variables (lexicographic node order).
    """
    cfg = cfg or DiscoveryConfig()
    started = time.perf_counter()
    tester = as_citester(source, cfg)
    bk = checked_knowledge(bk, tester.nodes)

    g, sepsets = stable_skeleton(tester, cfg, bk)
    conflicts = []
    g = close_pattern(g, collider_triples(g, sepsets), bk, conflicts)

    finish_record(record, "pc", cfg, bk, g, started, sepsets,
                  **ci_counters(tester),
                  conflicts=conflicts)
    return g


def _set_mark(pag, node, other, mark, conflicts, reason):
    """Orient a circle endpoint; never overwrite a committed tail/arrow."""
    cur = pag.mark_at(node, other)
    if cur == mark:
        return False
    if cur != CIRCLE:
        report(conflicts, f"{reason}: endpoint {node} on {node}-{other} already {cur}; skipped")
        return False
    pag.set_mark(node, other, mark)
    return True


def _orient_directed(pag, a, b, conflicts, reason):
    """Set a tail at a and an arrowhead at b; True if either mark changed."""
    tail = _set_mark(pag, a, b, TAIL, conflicts, reason)
    arrow = _set_mark(pag, b, a, ARROW, conflicts, reason)
    return tail or arrow


def _pattern(skeleton, sepsets, bk, conflicts):
    """The skeleton's edges as o-o, then the marks the knowledge forces, then
    the arrowheads of the unshielded colliders."""
    pag = MixedGraph(skeleton.nodes, "pag")
    for a, b, _, _ in skeleton.edges():
        pag.add_edge(a, b, CIRCLE, CIRCLE)
        for u, v in ((a, b), (b, a)):
            if bk.is_required(u, v):
                _orient_directed(pag, u, v, conflicts, "knowledge-required")
        for u, v in ((a, b), (b, a)):
            # u may not cause v: arrowhead at u says u is no ancestor of v
            if bk.is_forbidden(u, v) and not bk.is_required(v, u):
                _set_mark(pag, u, v, ARROW, conflicts, "knowledge-forbidden")
    for x, z, y in collider_triples(pag, sepsets):
        _set_mark(pag, z, x, ARROW, conflicts, "collider")
        _set_mark(pag, z, y, ARROW, conflicts, "collider")
    return pag


def possible_d_sep(pag, x):
    """Nodes reachable from x along paths whose interior vertices are either
    colliders on the path or part of a triangle with their path neighbors."""
    out = set()
    seen = set()
    stack = [(x, nbr) for nbr in pag.adjacent(x)]
    while stack:
        prev, cur = stack.pop()
        if (prev, cur) in seen:
            continue
        seen.add((prev, cur))
        out.add(cur)
        for nxt in pag.adjacent(cur):
            if nxt in (prev, cur):
                continue
            collider = pag.mark_at(cur, prev) == ARROW and pag.mark_at(cur, nxt) == ARROW
            triangle = pag.has_edge(prev, nxt)
            if collider or triangle:
                stack.append((cur, nxt))
    out.discard(x)
    return out


def _pds_prune(pag, tester, cfg, bk, sepsets):
    """Second skeleton pass: try conditioning sets drawn from possible-d-sep.

    Each node's possible-d-sep set is computed once per skeleton state: this
    pass only removes edges and sets no mark, so the sets are kept until an
    edge goes."""
    removed = 0
    pds_of = {}
    for a, b, _, _ in list(pag.edges()):
        if not pag.has_edge(a, b):
            continue
        if bk.is_required(a, b) or bk.is_required(b, a):
            continue
        for x, y in ((a, b), (b, a)):
            if x not in pds_of:
                pds_of[x] = possible_d_sep(pag, x)
            pds = sorted(pds_of[x] - {x, y})
            limit = len(pds) if cfg.max_cond_size is None else min(len(pds), cfg.max_cond_size)
            sets = chain.from_iterable(combinations(pds, k) for k in range(1, limit + 1))
            if separate(pag, tester, x, y, sets, sepsets):
                removed += 1
                pds_of.clear()
                break
    return removed


def _rule1(pag, sepsets, conflicts):
    changed = False
    for b in sorted(pag.nodes):
        for a in pag.adjacent(b):
            if pag.mark_at(b, a) != ARROW:
                continue
            for c in pag.adjacent(b):
                if c == a or pag.has_edge(a, c):
                    continue
                if pag.mark_at(b, c) == CIRCLE:
                    changed |= _orient_directed(pag, b, c, conflicts, "rule1")
    return changed


def _rule2(pag, sepsets, conflicts):
    changed = False
    for a in sorted(pag.nodes):
        for c in pag.adjacent(a):
            if pag.mark_at(c, a) != CIRCLE:
                continue
            for b in pag.adjacent(a):
                if b == c or not pag.has_edge(b, c):
                    continue
                ab_dir = pag.is_directed(a, b)
                bc_dir = pag.is_directed(b, c)
                ab_arrow = pag.mark_at(b, a) == ARROW
                bc_arrow = pag.mark_at(c, b) == ARROW
                if (ab_dir and bc_arrow) or (ab_arrow and bc_dir):
                    changed |= _set_mark(pag, c, a, ARROW, conflicts, "rule2")
    return changed


def _rule3(pag, sepsets, conflicts):
    changed = False
    for b in sorted(pag.nodes):
        into_b = [u for u in pag.adjacent(b) if pag.mark_at(b, u) == ARROW]
        for a, c in combinations(sorted(into_b), 2):
            if pag.has_edge(a, c):
                continue
            for d in pag.adjacent(b):
                if d in (a, c) or not (pag.has_edge(a, d) and pag.has_edge(c, d)):
                    continue
                if pag.mark_at(d, a) != CIRCLE or pag.mark_at(d, c) != CIRCLE:
                    continue
                if pag.mark_at(b, d) == CIRCLE:
                    changed |= _set_mark(pag, b, d, ARROW, conflicts, "rule3")
    return changed


def _discriminating_tail(pag, a, b, c):
    """Find d starting a discriminating path <d, ..., a, b, c>, or None.

    Interior vertices must be colliders on the path and parents of c.
    """
    seen = set()
    stack = [(a, b)]
    while stack:
        t, succ = stack.pop()
        for w in sorted(pag.adjacent(t)):
            if w in (succ, b, c):
                continue
            if pag.mark_at(t, w) != ARROW:
                continue
            if not pag.has_edge(w, c):
                return w
            if pag.mark_at(w, t) == ARROW and pag.is_directed(w, c):
                if (w, t) not in seen:
                    seen.add((w, t))
                    stack.append((w, t))
    return None


def _rule4(pag, sepsets, conflicts):
    changed = False
    for c in sorted(pag.nodes):
        for b in pag.adjacent(c):
            if pag.mark_at(b, c) != CIRCLE:
                continue
            for a in pag.adjacent(b):
                if a == c or not pag.has_edge(a, c):
                    continue
                if not pag.is_directed(a, c):
                    continue
                if pag.mark_at(a, b) != ARROW:
                    continue
                d = _discriminating_tail(pag, a, b, c)
                if d is None:
                    continue
                key = frozenset((d, c))
                if b in sepsets.get(key, set()):
                    changed |= _orient_directed(pag, b, c, conflicts, "rule4")
                else:
                    ch1 = _set_mark(pag, b, a, ARROW, conflicts, "rule4")
                    ch2 = _set_mark(pag, b, c, ARROW, conflicts, "rule4")
                    ch3 = _set_mark(pag, c, b, ARROW, conflicts, "rule4")
                    changed |= ch1 or ch2 or ch3
    return changed


def fci(source, cfg=None, bk=None, record=None):
    """Run FCI; returns a PAG (kind="pag") over the tester's variables."""
    cfg = cfg or DiscoveryConfig()
    started = time.perf_counter()
    tester = as_citester(source, cfg)
    bk = checked_knowledge(bk, tester.nodes)
    conflicts = []

    skeleton, sepsets = stable_skeleton(tester, cfg, bk)
    pag = _pattern(skeleton, sepsets, bk, conflicts)
    pruned = _pds_prune(pag, tester, cfg, bk, sepsets)
    # reset to circles and re-orient against the final skeleton/sepsets
    pag = _pattern(pag, sepsets, bk, conflicts)
    changed = True
    while changed:  # every rule runs in every round
        changed = any([rule(pag, sepsets, conflicts) for rule in (_rule1, _rule2, _rule3, _rule4)])

    finish_record(record, "fci", cfg, bk, pag, started, sepsets,
                  **ci_counters(tester),
                  pds_removed=pruned,
                  conflicts=conflicts,
                  notes="final orientation rules R1-R4 (no completeness augmentations)")
    return pag

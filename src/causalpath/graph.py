"""Mixed causal graphs with endpoint marks.

A single graph class covers DAGs, CPDAGs (equivalence classes), PAGs and
weighted DAGs. A pair of nodes has at most one edge, with one mark ("tail",
"arrow" or "circle") at each endpoint:

    a -> b      tail at a, arrow at b
    a -- b      tail at both ends (undirected)
    a <-> b     arrow at both ends (bidirected)
    a o-> b     circle at a, arrow at b

No module-level public function changes a graph passed to it. The pattern
rule and the consistent-extension test run on one kernel of node sets.
"""
from __future__ import annotations

import heapq
import logging
from itertools import combinations

logger = logging.getLogger(__name__)

TAIL = "tail"
ARROW = "arrow"
CIRCLE = "circle"
MARKS = (TAIL, ARROW, CIRCLE)

GRAPH_KINDS = ("dag", "cpdag", "pag", "weighted-dag")


class GraphError(ValueError):
    """Structural error in a graph or graph operation."""


class NoExtensionError(GraphError):
    """A partially directed graph admits no consistent DAG extension."""

    def __init__(self, node, message=None):
        self.node = node
        super().__init__(message or f"no consistent extension; obstructed at node {node!r}")


def _pair(a, b):
    """Canonical (lexicographic) unordered pair key."""
    return (a, b) if a <= b else (b, a)


class MixedGraph:
    """Node set plus edges with endpoint marks; at most one edge per pair."""

    def __init__(self, nodes, kind="dag"):
        nodes = list(nodes)
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node names")
        if kind not in GRAPH_KINDS:
            raise GraphError(f"unknown graph kind {kind!r}")
        self.nodes = nodes
        self.kind = kind
        # _end[v][u]: the mark at v's end of the edge v-u
        self._end: dict[str, dict] = {v: {} for v in nodes}
        self._weights: dict[tuple, float] = {}

    # -- construction ---------------------------------------------------

    def _check_node(self, v):
        if v not in self._end:
            raise GraphError(f"unknown node {v!r}")

    def add_edge(self, a, b, mark_a=TAIL, mark_b=ARROW, weight=None):
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise GraphError(f"self loop at {a!r}")
        if mark_a not in MARKS or mark_b not in MARKS:
            raise GraphError(f"bad marks ({mark_a!r}, {mark_b!r})")
        if b in self._end[a]:
            raise GraphError(f"edge {a!r}-{b!r} already present")
        self._end[a][b] = mark_a
        self._end[b][a] = mark_b
        if weight is not None:
            self._weights[_pair(a, b)] = float(weight)

    def add_directed(self, a, b, weight=None):
        self.add_edge(a, b, TAIL, ARROW, weight)

    def add_undirected(self, a, b):
        self.add_edge(a, b, TAIL, TAIL)

    def add_bidirected(self, a, b):
        self.add_edge(a, b, ARROW, ARROW)

    def remove_edge(self, a, b):
        if not self.has_edge(a, b):
            raise GraphError(f"no edge {a!r}-{b!r}")
        del self._end[a][b]
        del self._end[b][a]
        self._weights.pop(_pair(a, b), None)

    # -- queries ---------------------------------------------------------

    def has_edge(self, a, b):
        return b in self._end.get(a, ())

    def mark_at(self, node, other):
        """Mark at `node`'s end of the edge between node and other."""
        try:
            return self._end[node][other]
        except KeyError:
            raise GraphError(f"no edge {node!r}-{other!r}") from None

    def set_mark(self, node, other, mark):
        if mark not in MARKS:
            raise GraphError(f"bad mark {mark!r}")
        if not self.has_edge(node, other):
            raise GraphError(f"no edge {node!r}-{other!r}")
        self._end[node][other] = mark

    def orient(self, a, b):
        """Turn the existing a-b edge into a -> b."""
        self.set_mark(a, b, TAIL)
        self.set_mark(b, a, ARROW)

    def _has_marks(self, a, b, mark_a, mark_b):
        return self._end.get(a, {}).get(b) == mark_a and self._end[b][a] == mark_b

    def is_directed(self, a, b):
        return self._has_marks(a, b, TAIL, ARROW)

    def is_undirected(self, a, b):
        return self._has_marks(a, b, TAIL, TAIL)

    def is_bidirected(self, a, b):
        return self._has_marks(a, b, ARROW, ARROW)

    def adjacent(self, v):
        self._check_node(v)
        return sorted(self._end[v])

    def _neighbors(self, v, mark_v, mark_u):
        """Sorted neighbors u of v with mark_v at v's end and mark_u at u's."""
        self._check_node(v)
        return sorted(u for u, m in self._end[v].items()
                      if m == mark_v and self._end[u][v] == mark_u)

    def parents(self, v):
        return self._neighbors(v, ARROW, TAIL)

    def children(self, v):
        return self._neighbors(v, TAIL, ARROW)

    def undirected_neighbors(self, v):
        return self._neighbors(v, TAIL, TAIL)

    def edges(self):
        """Sorted list of (a, b, mark_at_a, mark_at_b) with a < b."""
        return sorted((a, b, ma, self._end[b][a])
                      for a, ends in self._end.items() for b, ma in ends.items() if a < b)

    def directed_edges(self):
        out = []
        for a, b, ma, mb in self.edges():
            if ma == TAIL and mb == ARROW:
                out.append((a, b))
            elif ma == ARROW and mb == TAIL:
                out.append((b, a))
        return out

    @property
    def edge_count(self):
        return sum(map(len, self._end.values())) // 2

    def weight(self, a, b):
        key = _pair(a, b)
        if key not in self._weights:
            raise GraphError(f"no weight on edge {a!r}-{b!r}")
        return self._weights[key]

    def set_weight(self, a, b, w):
        if not self.has_edge(a, b):
            raise GraphError(f"no edge {a!r}-{b!r}")
        self._weights[_pair(a, b)] = float(w)

    # -- plumbing ----------------------------------------------------------

    def copy(self, kind=None):
        g = MixedGraph(self.nodes, kind or self.kind)
        g._end = {v: dict(ends) for v, ends in self._end.items()}
        g._weights = dict(self._weights)
        return g

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return self._end == other._end and self._weights == other._weights

    def __repr__(self):
        arrow = {(TAIL, ARROW): "->", (ARROW, TAIL): "<-", (TAIL, TAIL): "--",
                 (ARROW, ARROW): "<->", (CIRCLE, CIRCLE): "o-o", (CIRCLE, ARROW): "o->",
                 (ARROW, CIRCLE): "<-o", (TAIL, CIRCLE): "-o", (CIRCLE, TAIL): "o-"}
        es = ", ".join(f"{a}{arrow[(ma, mb)]}{b}" for a, b, ma, mb in self.edges())
        return f"MixedGraph({self.kind}, {len(self.nodes)} nodes, [{es}])"

    def to_json_dict(self):
        edges = []
        for a, b, ma, mb in self.edges():
            e = {"a": a, "b": b, "mark_a": ma, "mark_b": mb}
            key = _pair(a, b)
            if key in self._weights:
                e["weight"] = self._weights[key]
            edges.append(e)
        return {"kind": self.kind, "nodes": list(self.nodes), "edges": edges}

    def validate(self):
        """Check the invariants of the declared kind; raise GraphError on failure."""
        if self.kind in ("dag", "weighted-dag"):
            for a, b, ma, mb in self.edges():
                if {ma, mb} != {TAIL, ARROW}:
                    raise GraphError(f"{self.kind} edge {a}-{b} has marks ({ma},{mb})")
            if _has_directed_cycle(self):
                raise GraphError("directed cycle in DAG")
        elif self.kind == "cpdag":
            for a, b, ma, mb in self.edges():
                if CIRCLE in (ma, mb) or (ma, mb) == (ARROW, ARROW):
                    raise GraphError(f"cpdag edge {a}-{b} has marks ({ma},{mb})")
            if _has_directed_cycle(self):
                raise GraphError("directed cycle in CPDAG")
        return self


def _topological_order(g):
    """Kahn's sort over the directed edges, smallest ready node first. Nodes
    on or downstream of a directed cycle are left out."""
    indeg = {v: len(g.parents(v)) for v in g.nodes}
    ready = [v for v in g.nodes if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in g.children(v):
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    return order


def _has_directed_cycle(g):
    return len(_topological_order(g)) < len(g.nodes)


def is_dag(g):
    """True iff every edge is tail->arrow and the directed graph is acyclic."""
    for a, b, ma, mb in g.edges():
        if {ma, mb} != {TAIL, ARROW}:
            return False
    return not _has_directed_cycle(g)


class BackgroundKnowledge:
    """Tier ordering plus explicit forbidden/required directed pairs.

    Edges from a later tier into an earlier tier are forbidden. Explicit
    forbidden/required pairs are directed (cause, effect) tuples.
    """

    def __init__(self, tiers=(), forbidden=(), required=()):
        self.tiers = [frozenset(t) for t in tiers]
        self.forbidden = {tuple(p) for p in forbidden}
        self.required = {tuple(p) for p in required}
        self._tier_index = {}
        for i, tier in enumerate(self.tiers):
            for v in tier:
                if v in self._tier_index:
                    raise GraphError(f"node {v!r} appears in two tiers")
                self._tier_index[v] = i
        self.validate()

    def validate(self):
        bad = self.required & self.forbidden
        if bad:
            raise GraphError(f"edges both required and forbidden: {sorted(bad)}")
        for a, b in self.required:
            if self._violates_tiers(a, b):
                raise GraphError(f"required edge {a}->{b} contradicts tier order")
        # required edges must not force a directed cycle among themselves
        nodes = {v for p in self.required for v in p}
        g = MixedGraph(sorted(nodes))
        for a, b in self.required:
            g.add_directed(a, b)
        if _has_directed_cycle(g):
            raise GraphError("required edges form a directed cycle")
        return self

    def _violates_tiers(self, a, b):
        ta = self._tier_index.get(a)
        tb = self._tier_index.get(b)
        return ta is not None and tb is not None and ta > tb

    def is_forbidden(self, a, b):
        """True iff a directed edge a -> b is disallowed."""
        return (a, b) in self.forbidden or self._violates_tiers(a, b)

    def is_required(self, a, b):
        return (a, b) in self.required

    def is_empty(self):
        return not self.tiers and not self.forbidden and not self.required

    def digest(self):
        """Compact, reproducible summary for run records."""
        return {
            "tiers": [sorted(t) for t in self.tiers],
            "n_forbidden": len(self.forbidden),
            "n_required": len(self.required),
        }


_EMPTY_BK = BackgroundKnowledge()


def _bk(bk):
    return bk if bk is not None else _EMPTY_BK


def report(conflicts, msg):
    """Record a skipped orientation in `conflicts` (if a list) and the log,
    unless `conflicts` already holds it."""
    if conflicts is not None:
        if msg in conflicts:
            return
        conflicts.append(msg)
    logger.warning(msg)


class _Pattern:
    """The kernel the pattern rule runs on: the skeleton and the parent,
    child and undirected-neighbour sets of each node of a tail/arrow graph,
    read from a MixedGraph once and written back once by `write`."""

    def __init__(self, g):
        self.adj = {v: set(ends) for v, ends in g._end.items()}
        self.pa, self.ch, self.nb = ({v: set() for v in g.nodes} for _ in range(3))
        for a, ends in g._end.items():
            for b, ma in ends.items():
                marks = (ma, g._end[b][a])
                if marks == (TAIL, TAIL):
                    self.nb[a].add(b)
                elif marks == (TAIL, ARROW):
                    self.ch[a].add(b)
                    self.pa[b].add(a)
                elif marks != (ARROW, TAIL):
                    raise GraphError(f"{a}-{b} has marks {marks}; tail/arrow graphs only")

    def write(self, g):
        """Replace g's edges with the kernel's, keeping its weights; returns g."""
        g._end = {v: {} for v in g.nodes}
        for v in g.nodes:
            for u in self.nb[v]:
                g._end[v][u] = TAIL
            for c in self.ch[v]:
                g._end[v][c] = TAIL
                g._end[c][v] = ARROW
        return g

    def undirected(self):
        return sorted((a, b) for a, nb in self.nb.items() for b in nb if a < b)

    def orient(self, a, b):
        """Turn the undirected a - b into a -> b."""
        self.nb[a].remove(b)
        self.nb[b].remove(a)
        self.ch[a].add(b)
        self.pa[b].add(a)

    def peel(self):
        """The nodes in sink-peeling order; see `consistent_extension`. A sink
        has no child left, and each undirected neighbour left is adjacent to
        every other node left adjacent to it."""
        remaining = set(self.adj)
        order = []
        while remaining:
            for x in sorted(remaining, reverse=True):
                left = self.adj[x] & remaining
                if not self.ch[x] & remaining and all(
                        left - {u} <= self.adj[u] for u in self.nb[x] & remaining):
                    break
            else:
                raise NoExtensionError(min(remaining))
            order.append(x)
            remaining.remove(x)
        return order

    def close(self, colliders, bk, conflicts):
        """The pattern rule; see `close_pattern`. A pair forbidden both ways
        stays undirected and is reported."""
        for a, b in () if bk.is_empty() else self.undirected():
            req_ab, req_ba = bk.is_required(a, b), bk.is_required(b, a)
            forb_ab, forb_ba = bk.is_forbidden(a, b), bk.is_forbidden(b, a)
            if req_ab:
                self.orient(a, b)
            elif req_ba:
                self.orient(b, a)
            elif forb_ab and forb_ba:
                report(conflicts, f"edge {a}-{b} is forbidden in both directions "
                                  "but survived the tests")
            elif forb_ab:
                self.orient(b, a)
            elif forb_ba:
                self.orient(a, b)
        for x, z, y in colliders:
            for u in (x, y):
                if u in self.pa[z]:
                    continue
                if u in self.ch[z]:
                    report(conflicts, f"collider {x}->{z}<-{y}: conflicts with existing {z}->{u}")
                elif bk.is_forbidden(u, z):
                    report(conflicts, f"collider arrowhead {u}->{z} forbidden by knowledge; "
                                      "skipped")
                else:
                    self.orient(u, z)
        self.meek(bk, conflicts)

    def meek(self, bk, conflicts):
        """Meek closure; see `apply_meek_rules`. A sweep visits the undirected
        edges in sorted order."""
        arcs = [arc for a, b in self.undirected() for arc in ((a, b), (b, a))]
        changed = True
        while changed:
            changed = False
            arcs = [(u, v) for u, v in arcs if v in self.nb[u]]
            for u, v in arcs:
                if v not in self.nb[u] or not self._compelled(u, v):
                    continue
                if bk.is_forbidden(u, v):
                    report(conflicts, f"meek: orientation {u}->{v} forbidden by knowledge; skipped")
                elif self._descends(u, v):
                    report(conflicts, f"meek: orientation {u}->{v} would create a cycle; skipped")
                else:
                    self.orient(u, v)
                    changed = True

    def _compelled(self, a, b):
        """Do any of the four Meek rules compel a -> b for the undirected a - b?"""
        pa, nb, adj = self.pa, self.nb, self.adj
        # rule 1: c -> a with c and b nonadjacent; rule 2: a -> c -> b
        if not pa[a] <= adj[b] or self.ch[a] & pa[b]:
            return True
        # rule 3: a - c -> b and a - d -> b with c, d nonadjacent
        if any(d not in adj[c] for c, d in combinations(nb[a] & pa[b], 2)):
            return True
        # rule 4: d -> c -> b with a - d, a adjacent to c, d and b nonadjacent
        return any((pa[c] & nb[a]) - adj[b] for c in pa[b] & adj[a])

    def _descends(self, a, b):
        """Is a a descendant of b?"""
        seen, stack = set(), [b]
        while stack:
            new = self.ch[stack.pop()] - seen
            if a in new:
                return True
            seen |= new
            stack.extend(new)
        return False


def apply_meek_rules(g, bk=None, conflicts=None):
    """Close a partially directed graph under the four Meek orientation rules.

    Marks must be tail/arrow only; the edges are swept until none changes.
    Orientations forbidden by the knowledge are skipped and reported through
    `conflicts` (a list, if given) and the module logger. Returns a new graph;
    never removes an orientation.
    """
    k = _Pattern(g)
    k.meek(_bk(bk), conflicts)
    return k.write(g.copy())


def close_pattern(g, colliders, bk=None, conflicts=None):
    """The pattern rule of PC and FGES: orient what the knowledge forces, then
    each collider triple (x, z, y) as x -> z <- y one arrowhead at a time,
    skipping one that meets an existing z -> u or that the knowledge forbids,
    then close under Meek's rules. Knowledge goes first, so no later step
    directs an edge against it. Skips are reported as in `apply_meek_rules`.
    Returns a new graph."""
    k = _Pattern(g)
    k.close(colliders, _bk(bk), conflicts)
    return k.write(g.copy())


def cpdag_of(g, bk=None, conflicts=None):
    """The CPDAG (Markov equivalence class) of a DAG, or of the consistent
    extensions of a tail/arrow PDAG, which share its v-structures:
    `close_pattern` over its skeleton and v-structures. Raises
    NoExtensionError as `consistent_extension` does. Under knowledge `bk` the
    result directs no forbidden edge and every required edge of the skeleton,
    so it may differ from the class's own CPDAG; skips go to `conflicts`."""
    k = _Pattern(g)
    k.peel()
    colliders = [(x, v, y) for v in sorted(g.nodes)
                 for x, y in combinations(sorted(k.pa[v]), 2) if y not in k.adj[x]]
    k.nb = {v: set(adj) for v, adj in k.adj.items()}
    k.pa, k.ch = ({v: set() for v in g.nodes} for _ in range(2))
    k.close(colliders, _bk(bk), conflicts)
    return k.write(MixedGraph(g.nodes, "cpdag"))


def consistent_extension(g):
    """Orient a CPDAG/PDAG into a DAG with the same skeleton, preserving all
    directed edges and creating no new v-structures.

    Sinks are peeled repeatedly; among valid sinks the lexicographically
    largest node is taken first, which makes the result deterministic. Every
    edge then points from a later-peeled node to an earlier one: a DAG.
    Raises NoExtensionError naming an obstructing node if none exists.
    """
    k = _Pattern(g)
    rank = {v: i for i, v in enumerate(k.peel())}
    for a, b in k.undirected():
        k.orient(*((a, b) if rank[a] > rank[b] else (b, a)))
    return k.write(g.copy(kind="dag"))


def structural_hamming_distance(g1, g2):
    """Number of node pairs whose edge presence or endpoint marks differ."""
    if set(g1.nodes) != set(g2.nodes):
        raise GraphError("graphs have different node sets")

    def state(g, a, b):
        if not g.has_edge(a, b):
            return None
        return (g.mark_at(a, b), g.mark_at(b, a))

    count = 0
    for a, b in combinations(sorted(g1.nodes), 2):
        if state(g1, a, b) != state(g2, a, b):
            count += 1
    return count

"""Independent brute-force oracles used by the test suite.

Everything here deliberately takes the dumb route (path enumeration,
exhaustive DAG enumeration) so that the package's efficient implementations
are checked against a second, unrelated derivation.
"""
from __future__ import annotations

from itertools import combinations, product

import numpy as np

from causalpath.graph import ARROW, TAIL, MixedGraph, d_separated
from causalpath.independence import CiTestResult


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


def random_dag_edges(p, edge_prob, rng):
    """Random DAG as (nodes, directed edge list) via a random topological order."""
    nodes = [f"X{i:02d}" for i in range(p)]
    order = list(rng.permutation(nodes))
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < edge_prob:
                edges.append((order[i], order[j]))
    return nodes, edges


def build_dag(nodes, edges):
    g = MixedGraph(nodes, "dag")
    for a, b in edges:
        g.add_directed(a, b)
    return g


def has_cycle_dfs(nodes, edges):
    """Plain recursive-DFS cycle check over directed edges."""
    children = {v: [] for v in nodes}
    for a, b in edges:
        children[a].append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in nodes}

    def visit(v):
        color[v] = GREY
        for c in children[v]:
            if color[c] == GREY:
                return True
            if color[c] == WHITE and visit(c):
                return True
        color[v] = BLACK
        return False

    return any(color[v] == WHITE and visit(v) for v in nodes)


def all_undirected_paths(g, x, y):
    """All simple paths between x and y over the skeleton of g."""
    paths = []

    def extend(path):
        v = path[-1]
        if v == y:
            paths.append(list(path))
            return
        for u in g.adjacent(v):
            if u not in path:
                path.append(u)
                extend(path)
                path.pop()

    extend([x])
    return paths


def path_blocked(g, path, zset, desc_cache):
    """Blocking of one undirected path under the chain/fork/collider rules."""
    for i in range(1, len(path) - 1):
        a, v, b = path[i - 1], path[i], path[i + 1]
        collider = g.is_directed(a, v) and g.is_directed(b, v)
        if collider:
            if v not in desc_cache:
                desc_cache[v] = g.descendants(v) | {v}
            if not (desc_cache[v] & zset):
                return True
        else:
            if v in zset:
                return True
    return False


def d_separated_bruteforce(g, x, y, z=()):
    """d-separation by enumerating every simple path and testing blocking."""
    zset = set(z)
    desc_cache = {}
    for path in all_undirected_paths(g, x, y):
        if not path_blocked(g, path, zset, desc_cache):
            return False
    return True


def all_dsep_statements(g):
    """The full set of (x, y, Z) d-separation statements of a DAG."""
    nodes = sorted(g.nodes)
    out = set()
    for x, y in combinations(nodes, 2):
        rest = [v for v in nodes if v not in (x, y)]
        # reuse path enumeration over all conditioning sets for this pair
        paths = all_undirected_paths(g, x, y)
        desc_cache = {}
        for r in range(len(rest) + 1):
            for zs in combinations(rest, r):
                zset = set(zs)
                sep = all(path_blocked(g, p, zset, desc_cache) for p in paths)
                if sep:
                    out.add((x, y, zs))
    return out


def enumerate_dags(nodes):
    """Every labeled DAG on the node set (use for p <= 4 only)."""
    pairs = list(combinations(sorted(nodes), 2))
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (a, b), code in zip(pairs, assignment):
            if code == 1:
                edges.append((a, b))
            elif code == 2:
                edges.append((b, a))
        if not has_cycle_dfs(nodes, edges):
            yield edges


def exhaustive_best_dag(scorer, nodes):
    """Best-scoring DAG on the nodes, found by scoring every DAG (p <= 4).
    Ties go to fewer edges, then to the lexicographically smallest edge list."""
    nodes = sorted(nodes)
    best = min(enumerate_dags(nodes), key=lambda edges: (
        -scorer.score_dag(build_dag(nodes, edges)), len(edges), edges))
    return build_dag(nodes, best)


def skeleton_and_vstructures(nodes, edges):
    """Markov-equivalence signature: skeleton plus unshielded colliders."""
    skel = frozenset(frozenset(e) for e in edges)
    parents = {v: set() for v in nodes}
    for a, b in edges:
        parents[b].add(a)
    adj = {frozenset(e) for e in edges}
    vs = set()
    for v in nodes:
        for a, b in combinations(sorted(parents[v]), 2):
            if frozenset((a, b)) not in adj:
                vs.add((a, v, b))
    return (skel, frozenset(vs))


def cpdag_bruteforce(nodes, edges):
    """CPDAG of a DAG as the orientation-union of its equivalence class,
    with the class found by matching the (skeleton, v-structure) signature
    over every DAG on the node set."""
    sig = skeleton_and_vstructures(nodes, edges)
    members = [e for e in enumerate_dags(nodes) if skeleton_and_vstructures(nodes, e) == sig]
    g = MixedGraph(sorted(nodes), "cpdag")
    for pair in sig[0]:
        a, b = sorted(pair)
        forward = all((a, b) in m for m in members)
        backward = all((b, a) in m for m in members)
        if forward:
            g.add_directed(a, b)
        elif backward:
            g.add_directed(b, a)
        else:
            g.add_undirected(a, b)
    return g


def consistent_extensions_bruteforce(g):
    """All DAGs with g's skeleton that keep its directed edges and create no
    new v-structures (and lose none)."""
    nodes = sorted(g.nodes)
    directed = [(a, b) for a, b in g.directed_edges()]
    undirected = [(a, b) for a, b, ma, mb in g.edges() if (ma, mb) == (TAIL, TAIL)]
    gsig = _pdag_vstructures(g)
    out = []
    for assignment in product((0, 1), repeat=len(undirected)):
        edges = list(directed)
        for (a, b), code in zip(undirected, assignment):
            edges.append((a, b) if code == 0 else (b, a))
        if has_cycle_dfs(nodes, edges):
            continue
        sig = skeleton_and_vstructures(nodes, edges)
        if sig[1] == gsig:
            out.append(edges)
    return out


def _pdag_vstructures(g):
    """Unshielded colliders already fully oriented in a PDAG."""
    vs = set()
    nodes = sorted(g.nodes)
    for v in nodes:
        ps = [u for u in g.adjacent(v) if g.is_directed(u, v)]
        for a, b in combinations(sorted(ps), 2):
            if not g.has_edge(a, b):
                vs.add((a, v, b))
    return frozenset(vs)


def compelled_orientations(g):
    """Map pair -> orientation shared by ALL consistent extensions of the
    PDAG g (None when both orientations occur)."""
    exts = consistent_extensions_bruteforce(g)
    out = {}
    for a, b, ma, mb in g.edges():
        if (ma, mb) != (TAIL, TAIL):
            continue
        fwd = all((a, b) in e for e in exts)
        bwd = all((b, a) in e for e in exts)
        if fwd:
            out[(a, b)] = (a, b)
        elif bwd:
            out[(a, b)] = (b, a)
        else:
            out[(a, b)] = None
    return out


def spd_correlation(p, rng, extra=3):
    """Random symmetric positive-definite correlation matrix."""
    a = rng.standard_normal((p + extra, p))
    s = a.T @ a
    d = np.sqrt(np.diag(s))
    return s / np.outer(d, d)

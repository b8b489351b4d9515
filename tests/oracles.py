"""Independent oracles used by the test suite.

Most of these deliberately take the dumb route (path enumeration,
exhaustive DAG enumeration) so that the package's efficient implementations
are checked against a second, unrelated derivation. `OracleCI` is the
exception: it answers by networkx's d-separation, and `TestDSeparation`
cross-checks it against the path enumeration here.
"""
from __future__ import annotations

import csv
import logging
from itertools import combinations, product

import networkx as nx
import numpy as np
from scipy.special import ndtr

from causalpath.data import DataError, Dataset, MissingColumnError, UnmappableCellError
from causalpath.discovery.ges import _better, _is_clique, _semidirected_reachable, _subsets
from causalpath.graph import ARROW, TAIL, MixedGraph
from causalpath.independence import CiTestResult
from causalpath.polychoric import _bvn_cdf, thresholds_from_counts
from causalpath.score import ScoreError

logger = logging.getLogger(__name__)


class OracleCI:
    """Exact CI oracle reading independence off a DAG by networkx's
    d-separation; every node is added, so isolated nodes work."""

    def __init__(self, dag, alpha=0.05):
        self.graph = nx.DiGraph(dag.directed_edges())
        self.graph.add_nodes_from(dag.nodes)
        self.alpha = alpha
        self.nodes = sorted(dag.nodes)
        self.calls = 0

    def __call__(self, x, y, z=()):
        self.calls += 1
        sep = nx.is_d_separator(self.graph, {x}, {y}, set(z))
        return CiTestResult(0.0, 1.0 if sep else 0.0, len(tuple(z)), sep)


def oracle_ci(dag, alpha=0.05):
    """CI-test function whose `independent` flag equals d-separation in dag."""
    return OracleCI(dag, alpha)


def knowledge_violations(g, bk):
    """Post-hoc audit of a graph against background knowledge.

    Returns human-readable violation strings: definitely directed edges that
    are forbidden, and required edges that are missing or contradicted.
    """
    out = []
    for a, b in g.directed_edges():
        if bk.is_forbidden(a, b):
            out.append(f"forbidden edge {a}->{b} present")
    for a, b in sorted(bk.required):
        if a not in g.nodes or b not in g.nodes:
            continue
        if not g.has_edge(a, b):
            out.append(f"required edge {a}->{b} missing")
        elif g.mark_at(a, b) == ARROW or g.mark_at(b, a) == TAIL:
            out.append(f"required edge {a}->{b} misoriented")
    return out


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


def descendants(g, v):
    """Nodes reachable from v along directed edges."""
    seen = set()
    stack = g.children(v)
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(g.children(u))
    return seen


def path_blocked(g, path, zset, desc_cache):
    """Blocking of one undirected path under the chain/fork/collider rules."""
    for i in range(1, len(path) - 1):
        a, v, b = path[i - 1], path[i], path[i + 1]
        collider = g.is_directed(a, v) and g.is_directed(b, v)
        if collider:
            if v not in desc_cache:
                desc_cache[v] = descendants(g, v) | {v}
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
    over every acyclic orientation of its skeleton."""
    sig = skeleton_and_vstructures(nodes, edges)
    orientations = ([(a, b) if code else (b, a) for (a, b), code in zip(edges, codes)]
                    for codes in product((0, 1), repeat=len(edges)))
    members = [e for e in orientations
               if not has_cycle_dfs(nodes, e) and skeleton_and_vstructures(nodes, e) == sig]
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


# -- Fisher-z: the partial correlation from one eigendecomposition ----------

def eigh_partial_correlation(m, x, y, z=(), cond_limit=1e10):
    """Partial correlation of columns x and y given columns z of the
    correlation matrix m from the eigendecomposition of its (x, y, *z)
    block: None when max|eigenvalue| > cond_limit * min|eigenvalue|, NaN
    when the inverse gives x or y a nonpositive residual variance."""
    idx = [x, y, *z]
    lam, vec = np.linalg.eigh(m[np.ix_(idx, idx)])
    size = np.abs(lam)
    if size.max() > cond_limit * size.min():
        return None
    prec = (vec / lam) @ vec.T
    scale = prec[0, 0] * prec[1, 1]
    if scale <= 0.0:
        return float("nan")
    return float(-prec[0, 1] / np.sqrt(scale))


# -- G^2: the contingency cube with expected counts --------------------------

def unique_strata(n, codes, levels, z):
    """The strata of z that occur among n rows and each row's stratum,
    numbered by `np.unique` over the z-tuples' flat indices.
    `ravel_multi_index` raises ValueError when the product of z's levels
    overflows an index."""
    if not z:
        return min(n, 1), np.zeros(n, dtype=np.intp)
    flat = np.ravel_multi_index([codes[v] for v in z], [levels[v] for v in z])
    seen, stratum = np.unique(flat, return_inverse=True)
    return len(seen), stratum


def g2_oracle(data, x, y, z=()):
    """(G^2, dof) of x and y given z from the full (stratum, x, y) cube: the
    expected count of each cell from its stratum's margins, then
    2 sum N log(N/E) over the cells that occur. Each stratum adds
    (x levels seen - 1)(y levels seen - 1) degrees of freedom."""
    codes, levels = {}, {}
    for v in (x, y, *z):
        uniq, codes[v] = np.unique(data.column(v), return_inverse=True)
        levels[v] = len(uniq)
    strata, stratum = unique_strata(data.n, codes, levels, z)
    lx, ly = levels[x], levels[y]
    cube = np.bincount((stratum * lx + codes[x]) * ly + codes[y],
                       minlength=strata * lx * ly).reshape(strata, lx, ly)
    rows, cols = cube.sum(axis=2), cube.sum(axis=1)
    expected = rows[:, :, None] * cols[:, None, :] / rows.sum(axis=1)[:, None, None]
    obs = cube > 0
    g2 = 2.0 * float((cube[obs] * np.log(cube[obs] / expected[obs])).sum())
    dof = int((((rows > 0).sum(axis=1) - 1) * ((cols > 0).sum(axis=1) - 1)).sum())
    return g2, dof


# -- DirectLiNGAM: the scalar pairwise measure, one pair at a time -----------

def _lingam_entropy(u):
    """Maximum-entropy approximation of the differential entropy of a
    standardized 1-d sample (log-cosh and Gaussian-moment contrasts)."""
    return (1.0 + np.log(2.0 * np.pi)) / 2.0 \
        - 79.047 * (np.mean(np.log(np.cosh(u))) - 0.37457) ** 2 \
        - 7.4129 * np.mean(u * np.exp(-(u ** 2) / 2.0)) ** 2


def _lingam_standardize(x):
    sd = x.std()
    return (x - x.mean()) / sd if sd > 0 else x - x.mean()


def _lingam_residual(xi, xj):
    """Residual of regressing xi on xj."""
    var = np.var(xj)
    if var <= 0:
        return xi.copy()
    return xi - (np.cov(xi, xj, bias=True)[0, 1] / var) * xj


def _lingam_pairwise_measure(xi, xj):
    """Likelihood-ratio surrogate for xi -> xj against xj -> xi."""
    xi_s = _lingam_standardize(xi)
    xj_s = _lingam_standardize(xj)
    ri_j = _lingam_standardize(_lingam_residual(xi_s, xj_s))
    rj_i = _lingam_standardize(_lingam_residual(xj_s, xi_s))
    return (_lingam_entropy(xj_s) + _lingam_entropy(ri_j)) \
        - (_lingam_entropy(xi_s) + _lingam_entropy(rj_i))


def lingam_pairwise_scores(columns):
    """Exogeneity score of each column: the sum over the other columns j of
    min(0, measure(i, j))^2, one pair at a time."""
    scores = []
    for i, xi in enumerate(columns):
        total = 0.0
        for j, xj in enumerate(columns):
            if i != j:
                total += min(0.0, _lingam_pairwise_measure(xi, xj)) ** 2
        scores.append(total)
    return np.array(scores)


def lingam_order(dataset, bk):
    """DirectLiNGAM's causal order by the scalar measure. A variable is a
    candidate once no variable of a strictly earlier tier and none of its
    required ancestors (the transitive closure of the required edges) is
    left; ties go to the smaller name."""
    names = sorted(dataset.names)
    rank = {}
    for i, members in enumerate(bk.tiers):
        rank.update(dict.fromkeys(members, i))

    def earlier(u, v):
        return u in rank and v in rank and rank[u] < rank[v]

    anc = {v: set() for v in names}
    changed = True
    while changed:
        changed = False
        for a, b in bk.required:
            if a in anc and b in anc and (anc[a] | {a}) - anc[b]:
                anc[b] |= anc[a] | {a}
                changed = True
    work = {v: dataset.column(v) - dataset.column(v).mean() for v in names}
    order, remaining = [], list(names)
    while remaining:
        cands = [v for v in remaining if not anc[v] & set(remaining)
                 and not any(earlier(u, v) for u in remaining)] or remaining
        scores = dict(zip(remaining, lingam_pairwise_scores([work[v] for v in remaining])))
        m = min(cands, key=lambda v: (scores[v], v))
        order.append(m)
        remaining.remove(m)
        for v in remaining:
            work[v] = _lingam_residual(work[v], work[m])
    return order


# -- FGES: the forward step as a full scan of every pair and subset ----------

def fges_best_insert_scan(g, scorer, bk, skip):
    """The best valid Insert(x, y, T) into the CPDAG g as (delta, x, y, T),
    found by checking and scoring every pair and every subset T in
    (y, x, T) order; None when no operator is valid."""
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


def bvn_cell_probs(thresholds_x, thresholds_y, rho):
    """Standard-bivariate-normal probabilities of every threshold rectangle.

    Threshold vectors include the infinite endpoints; the result has shape
    (len(tx)-1, len(ty)-1) and sums to 1.
    """
    tx = np.asarray(thresholds_x, dtype=float)
    ty = np.asarray(thresholds_y, dtype=float)
    cdf = np.zeros((len(tx), len(ty)))  # the -inf row and column stay 0
    h, k = np.meshgrid(tx[1:-1], ty[1:-1], indexing="ij")
    cdf[1:-1, 1:-1] = _bvn_cdf(h, k, rho)
    cdf[-1, 1:] = ndtr(ty[1:])
    cdf[1:, -1] = ndtr(tx[1:])
    return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]


def polychoric_oracle(x, y):
    """Maximizer of the two-step polychoric log likelihood of two code
    columns, by a dense rho grid and then a bounded Brent search around the
    grid's best point (xatol 1e-12). Returns (rho, loglik), where loglik(r)
    sums count * log(probability) over the non-empty cells."""
    from scipy.optimize import minimize_scalar

    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    table = np.zeros((xi.max() + 1, yi.max() + 1))
    np.add.at(table, (xi, yi), 1.0)
    tx = thresholds_from_counts(table.sum(axis=1))
    ty = thresholds_from_counts(table.sum(axis=0))
    full = table > 0

    def loglik(r):
        probs = bvn_cell_probs(tx, ty, r)[full]
        return float((table[full] * np.log(np.maximum(probs, 1e-300))).sum())

    grid = np.linspace(-0.999, 0.999, 201)
    values = [loglik(r) for r in grid]
    i = int(np.argmax(values))
    res = minimize_scalar(lambda r: -loglik(r), method="bounded",
                          bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
                          options={"xatol": 1e-12})
    best = float(res.x) if -res.fun >= values[i] else float(grid[i])
    return best, loglik


def load_csv_oracle(path, variables):
    """`load_csv` as a per-cell loop: every row is checked for its field
    count and every schema cell is stripped, read by `float` or else through
    the level-label map, in row order. Blank lines are not skipped, and the
    provenance holds only the load and ignored-column lines."""
    names = [v.name for v in variables]

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)

    header = [h.strip() for h in header]
    dup = sorted({h for h in header if header.count(h) > 1})
    if dup:
        raise DataError(f"{path}: duplicated header names: {dup}")
    missing = [n for n in names if n not in header]
    if missing:
        raise MissingColumnError(f"{path}: columns missing from CSV: {missing}")
    extra = [h for h in header if h not in names]
    col_of = {n: header.index(n) for n in names}
    label_maps = {
        v.name: {lab: float(i) for i, lab in enumerate(v.level_labels)}
        for v in variables if v.level_labels
    }

    values = np.empty((len(rows), len(names)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} fields, "
                            f"expected {len(header)}")
        for c, name in enumerate(names):
            cell = row[col_of[name]].strip()
            try:
                values[r, c] = float(cell)
            except ValueError:
                mapped = label_maps.get(name, {}).get(cell)
                if mapped is None:
                    raise UnmappableCellError(
                        f"{path}: row {r + 2}, column {name!r}: "
                        f"unmappable value {cell!r}") from None
                values[r, c] = mapped

    d = Dataset(list(variables), values)
    d.log(f"loaded {d.n} rows x {d.p} columns from {path}")
    if extra:
        d.log(f"ignored columns not in schema: {sorted(extra)}")
    return d

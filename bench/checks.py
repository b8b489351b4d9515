"""Output checks, run outside the timed region.

Each check recomputes what it needs apart from the program (Fisher-z with
numpy ``inv`` and ``math.erfc``, a separately written G^2, a numpy BIC, a
bivariate-normal likelihood from Owen's T function, d-separation from
networkx), or tests a property every correct implementation must have.
None compares against the generating graph by score or structural Hamming
distance, and none against a stored copy of earlier output: GES may stop in
a local optimum and a later change may legitimately return another graph.

Every check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import math
import random
from itertools import combinations
from types import SimpleNamespace

import networkx as nx
import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr, ndtri, owens_t
from scipy.stats import chi2

from causalpath import ARROW, TAIL
from causalpath.discovery import pc
from causalpath.independence import GSquaredTest

P_TOL = 1e-9  # p-values this close to alpha are not judged
SCORE_RTOL = 1e-9
COEF_TOL = 1e-8
LOGLIK_TOL = 1e-4  # nats; a rho off by 1e-3 costs ~8e-4 at n = 2000
POLYCHORIC_SAMPLE = 6
RHO_BOUND = 0.999


# -- graph helpers ------------------------------------------------------------

def skeleton(g):
    return {frozenset((a, b)) for a, b, _, _ in g.edges()}


def v_structures(g):
    """Colliders a -> c <- b with a, b nonadjacent, over definite edges."""
    out = set()
    for c in g.nodes:
        for a, b in combinations(sorted(g.parents(c)), 2):
            if not g.has_edge(a, b):
                out.add((a, c, b))
    return out


def dag_extension(g):
    """A DAG with g's skeleton and directed edges and no new v-structures
    (Dor & Tarsi 1992); sinks are taken smallest-name first. Returns a
    parent map, or None if g has no extension."""
    parents = {v: set(g.parents(v)) for v in g.nodes}
    children = {v: set(g.children(v)) for v in g.nodes}
    undirected = {v: set(g.undirected_neighbors(v)) for v in g.nodes}
    adjacent = {v: set(g.adjacent(v)) for v in g.nodes}
    remaining = set(g.nodes)
    while remaining:
        for x in sorted(remaining):
            if children[x] & remaining:
                continue
            und = undirected[x] & remaining
            adj = adjacent[x] & remaining
            if all(adj - {u} <= adjacent[u] for u in und):
                break
        else:
            return None
        for u in und:
            parents[x].add(u)
        remaining.remove(x)
    return parents


def _is_acyclic(parents):
    dg = nx.DiGraph()
    dg.add_nodes_from(parents)
    dg.add_edges_from((u, v) for v, ps in parents.items() for u in ps)
    return nx.is_directed_acyclic_graph(dg)


# -- conditional-independence recomputation ----------------------------------

class FisherZ:
    """Fisher-z p-values from numpy `inv` and `math.erfc`, memoized."""

    def __init__(self, corr):
        self.S = corr.matrix
        self.n = corr.n
        self.idx = {v: i for i, v in enumerate(corr.names)}
        self.memo = {}

    def p_value(self, x, y, zs):
        key = (frozenset((x, y)), frozenset(zs))
        if key not in self.memo:
            ids = [self.idx[x], self.idx[y]] + [self.idx[v] for v in zs]
            prec = np.linalg.inv(self.S[np.ix_(ids, ids)])
            r = -prec[0, 1] / math.sqrt(prec[0, 0] * prec[1, 1])
            if abs(r) >= 1.0:
                self.memo[key] = 0.0
            else:
                z = math.sqrt(self.n - len(zs) - 3) * math.atanh(r)
                self.memo[key] = math.erfc(abs(z) / math.sqrt(2.0))
        return self.memo[key]


class GSquared:
    """G^2 from joint-code counts; the degrees of freedom come from the
    program's own test, so a later dof correction still passes, but they
    must stay within (lx-1)(ly-1) times the product of the Z levels."""

    def __init__(self, data, alpha):
        self.codes, self.levels = {}, {}
        for v in data.names:
            uniq, codes = np.unique(data.column(v), return_inverse=True)
            self.codes[v], self.levels[v] = codes, len(uniq)
        self.program = GSquaredTest(data, alpha)
        self.failures = []
        self.memo = {}

    def statistic(self, x, y, zs):
        lx, ly = self.levels[x], self.levels[y]
        stratum = np.zeros(len(self.codes[x]), dtype=np.int64)
        for v in zs:
            stratum = stratum * self.levels[v] + self.codes[v]
        _, stratum = np.unique(stratum, return_inverse=True)
        ns = int(stratum.max()) + 1
        joint = (stratum * lx + self.codes[x]) * ly + self.codes[y]
        table = np.bincount(joint, minlength=ns * lx * ly).reshape(ns, lx, ly).astype(float)
        expected = (table.sum(axis=2)[:, :, None] * table.sum(axis=1)[:, None, :]
                    / table.sum(axis=(1, 2))[:, None, None])
        seen = table > 0
        return 2.0 * float((table[seen] * np.log(table[seen] / expected[seen])).sum())

    def p_value(self, x, y, zs):
        key = (frozenset((x, y)), frozenset(zs))
        if key not in self.memo:
            dof = self.program(x, y, zs).dof_or_condsize
            bound = (self.levels[x] - 1) * (self.levels[y] - 1) * math.prod(
                self.levels[v] for v in zs)
            if not 0 < dof <= bound:
                self.failures.append(f"G2 dof {dof} for ({x}, {y} | {sorted(zs)}) "
                                     f"outside (0, {bound}]")
            self.memo[key] = float(chi2.sf(self.statistic(x, y, zs), max(dof, 1)))
        return self.memo[key]


def check_adjacencies(label, g, test, alpha, cap):
    """Every adjacent pair is dependent given every subset of either end's
    final neighbours up to the depth cap: PC-stable tested all of them."""
    bad = []
    for a, b, _, _ in g.edges():
        for x, y in ((a, b), (b, a)):
            nbrs = sorted(set(g.adjacent(x)) - {y})
            top = len(nbrs) if cap is None else min(len(nbrs), cap)
            for k in range(top + 1):
                for zs in combinations(nbrs, k):
                    p = test.p_value(x, y, zs)
                    if p > alpha + P_TOL:
                        bad.append(f"{label}: {x}-{y} adjacent but p={p:.4g} "
                                   f"given {list(zs)}")
    return bad


def check_sepsets(label, g, record, test, alpha):
    """Every pair PC removed is independent given its recorded sepset."""
    bad = []
    for key, sep in record["sepsets"].items():
        x, y = key.split(",")
        if g.has_edge(x, y):
            bad.append(f"{label}: {x}-{y} has a sepset but is adjacent")
            continue
        p = test.p_value(x, y, tuple(sep))
        if p < alpha - P_TOL:
            bad.append(f"{label}: {x}-{y} removed but p={p:.4g} given {sep}")
    for a, b in combinations(sorted(g.nodes), 2):
        if not g.has_edge(a, b) and f"{a},{b}" not in record["sepsets"]:
            bad.append(f"{label}: {a}-{b} removed without a sepset")
    return bad


# -- FGES ---------------------------------------------------------------------

def bic_local(S, n, i, pa, penalty_discount):
    if pa:
        s = S[pa, i]
        sigma2 = S[i, i] - s @ np.linalg.solve(S[np.ix_(pa, pa)], s)
    else:
        sigma2 = S[i, i]
    return (-n * (math.log(2.0 * math.pi) + math.log(sigma2) + 1.0)
            - penalty_discount * (len(pa) + 1) * math.log(n))


def check_fges(g, record, corr, cfg):
    bad = []
    ext = dag_extension(g)
    if ext is None:
        return ["fges: output has no consistent DAG extension"]
    ext_edges = {frozenset((u, v)) for v, ps in ext.items() for u in ps}
    if ext_edges != skeleton(g):
        bad.append("fges: extension changed the skeleton")
    if not _is_acyclic(ext):
        bad.append("fges: extension is cyclic")
    directed = set(g.directed_edges())
    if not directed <= {(u, v) for v, ps in ext.items() for u in ps}:
        bad.append("fges: extension reversed a directed edge")
    ext_v = {(a, c, b) for c, ps in ext.items() for a, b in combinations(sorted(ps), 2)
             if frozenset((a, b)) not in ext_edges}
    if ext_v != v_structures(g):
        bad.append("fges: extension and output differ in v-structures")

    S, n, idx = corr.matrix, corr.n, {v: i for i, v in enumerate(corr.names)}
    local = {v: bic_local(S, n, idx[v], sorted(idx[u] for u in ps), cfg.penalty_discount)
             for v, ps in ext.items()}
    total = sum(local.values())
    scale = SCORE_RTOL * max(1.0, abs(total))
    if abs(total - record["total_score"]) > scale:
        bad.append(f"fges: total_score {record['total_score']:.6f} != numpy BIC {total:.6f}")
    if record["total_score"] < record["empty_score"]:
        bad.append("fges: total_score below the empty graph's score")
    for v, ps in ext.items():
        for u in ps:
            rest = sorted(idx[w] for w in ps if w != u)
            gain = bic_local(S, n, idx[v], rest, cfg.penalty_discount) - local[v]
            if gain > scale:
                bad.append(f"fges: deleting {u}->{v} raises the BIC by {gain:.4g}")
    return bad


# -- DirectLiNGAM -------------------------------------------------------------

def check_lingam(g, record, data, cfg, bk):
    bad = []
    order = record["causal_order"]
    pos = {v: i for i, v in enumerate(order)}
    parents = {v: set(g.parents(v)) for v in g.nodes}
    if sorted(order) != sorted(g.nodes):
        return ["lingam: causal_order is not a permutation of the nodes"]
    if not _is_acyclic(parents):
        bad.append("lingam: output is cyclic")
    for a, b in g.directed_edges():
        if pos[a] > pos[b]:
            bad.append(f"lingam: edge {a}->{b} goes backward in causal_order")
    centered = {v: data.column(v) - data.column(v).mean() for v in order}
    for i, v in enumerate(order):
        preds = [u for u in order[:i] if bk is None or not bk.is_forbidden(u, v)]
        if not preds:
            continue
        coef = np.linalg.lstsq(np.column_stack([centered[u] for u in preds]),
                               centered[v], rcond=None)[0]
        for u, b in zip(preds, coef):
            if u in parents[v]:
                w = g.weight(u, v)
                if abs(w - b) > COEF_TOL * max(1.0, abs(b)):
                    bad.append(f"lingam: weight {u}->{v} {w:.6g} != least squares {b:.6g}")
            elif abs(b) >= cfg.prune_threshold:
                bad.append(f"lingam: {u}->{v} (|b|={abs(b):.4g}) missing")
    return bad


# -- knowledge ----------------------------------------------------------------

def check_tiers(label, g, bk):
    """No edge points from a later tier into an earlier one. For a PAG the
    later-tier end of every cross-tier edge must be an arrowhead; for a
    CPDAG or DAG every cross-tier edge must be directed forward."""
    tier = {v: i for i, t in enumerate(bk.tiers) for v in t}
    bad = []
    for a, b, ma, mb in g.edges():
        if tier[a] == tier[b]:
            continue
        (early, m_early), (late, m_late) = sorted(
            ((a, ma), (b, mb)), key=lambda e: tier[e[0]])
        if g.kind == "pag":
            ok = m_late == ARROW
        else:
            ok = (m_early, m_late) == (TAIL, ARROW)
        if not ok:
            bad.append(f"{label}: edge {early}({m_early})-({m_late}){late} "
                       "crosses tiers backward")
    return bad


# -- polychoric ---------------------------------------------------------------

def _bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for a standard bivariate normal, via Owen's T."""
    if h == -np.inf or k == -np.inf:
        return 0.0
    if h == np.inf:
        return float(ndtr(k))
    if k == np.inf:
        return float(ndtr(h))
    h = h if h != 0.0 else 1e-13
    k = k if k != 0.0 else 1e-13
    root = math.sqrt(1.0 - rho * rho)
    beta = 0.0 if h * k > 0 else 0.5
    return float(0.5 * ndtr(h) + 0.5 * ndtr(k)
                 - owens_t(h, (k - rho * h) / (h * root))
                 - owens_t(k, (h - rho * k) / (k * root)) - beta)


def _thresholds(counts):
    cum = np.cumsum(counts)[:-1] / counts.sum()
    return np.concatenate(([-np.inf], ndtri(cum), [np.inf]))


def polychoric_loglik(x, y):
    """Two-step bivariate-normal log likelihood of rho for two code columns."""
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    table = np.zeros((xi.max() + 1, yi.max() + 1))
    np.add.at(table, (xi, yi), 1.0)
    tx, ty = _thresholds(table.sum(axis=1)), _thresholds(table.sum(axis=0))

    def loglik(rho):
        cdf = np.array([[_bvn_cdf(h, k, rho) for k in ty] for h in tx])
        cells = cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]
        return float((table * np.log(np.clip(cells, 1e-300, None))).sum())
    return loglik


def check_polychoric(data, corr, seed):
    """On a sample of interior pairs, the estimate maximizes the likelihood."""
    pairs = [(i, j) for i, j in combinations(range(data.p), 2)
             if abs(corr.matrix[i, j]) < RHO_BOUND - 1e-3]
    bad = []
    for i, j in random.Random(seed).sample(pairs, min(POLYCHORIC_SAMPLE, len(pairs))):
        ll = polychoric_loglik(data.values[:, i], data.values[:, j])
        best = minimize_scalar(lambda r: -ll(r), bounds=(-RHO_BOUND, RHO_BOUND),
                               method="bounded", options={"xatol": 1e-9})
        rho = corr.matrix[i, j]
        if -best.fun - ll(rho) > LOGLIK_TOL:
            bad.append(f"polychoric: {data.names[i]},{data.names[j]} rho={rho:.6f} "
                       f"but the likelihood peaks at {best.x:.6f}")
    return bad


# -- d-separation oracle ------------------------------------------------------

class NxOracle:
    """CI tester answering by networkx d-separation in a DAG."""

    def __init__(self, dag):
        self.graph = nx.DiGraph(dag.directed_edges())
        self.graph.add_nodes_from(dag.nodes)
        self.nodes = sorted(dag.nodes)
        self.calls = 0

    def __call__(self, x, y, z=()):
        self.calls += 1
        return SimpleNamespace(
            independent=nx.is_d_separator(self.graph, {x}, {y}, set(z)))


def check_oracle_pc(dag):
    """PC on a d-separation oracle returns exactly the DAG's skeleton and
    v-structures."""
    g = pc(NxOracle(dag))
    bad = []
    if skeleton(g) != skeleton(dag):
        bad.append("oracle PC: skeleton differs from the generating DAG")
    if v_structures(g) != v_structures(dag):
        bad.append("oracle PC: v-structures differ from the generating DAG")
    return bad


# -- per replicate ------------------------------------------------------------

def check_replicate(w, rep, out, seed):
    cfg, bk, corr, data = out["cfg"], w.knowledge, out["corr"], out["data"]
    bad = []
    if out["raw"].n != rep.rows_written:
        bad.append(f"data: {out['raw'].n} rows loaded, {rep.rows_written} written")
    if data.values.shape != rep.expected.shape or not np.array_equal(data.values, rep.expected):
        bad.append("data: cleaned values differ from the generated rows without missing codes")

    fz = FisherZ(corr)
    cap = cfg.max_cond_size
    bad += check_adjacencies("pc", out["pc"]["graph"], fz, cfg.alpha, cap)
    bad += check_sepsets("pc", out["pc"]["graph"], out["pc"], fz, cfg.alpha)
    bad += check_adjacencies("fci", out["fci"]["graph"], fz, cfg.alpha, cap)
    bad += check_fges(out["fges"]["graph"], out["fges"], corr, cfg)
    bad += check_lingam(out["lingam"]["graph"], out["lingam"], data, cfg, bk)
    if "pc_g2" in out:
        g2 = GSquared(data, cfg.alpha)
        bad += check_adjacencies("pc-g2", out["pc_g2"]["graph"], g2, cfg.alpha, cap)
        bad += check_sepsets("pc-g2", out["pc_g2"]["graph"], out["pc_g2"], g2, cfg.alpha)
        bad += g2.failures
    if corr.method == "polychoric":
        bad += check_polychoric(data, corr, seed)
    if bk is not None:
        for label in ("pc", "pc_g2", "fges", "lingam", "fci"):
            if label in out:
                bad += check_tiers(label, out[label]["graph"], bk)
    return bad

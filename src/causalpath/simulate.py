"""Synthetic linear SCMs: generation, sampling and discretization.

All randomness flows from explicit seeds carried by the spec objects; the
same spec and row count always reproduce the identical matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .data import Dataset, VariableSchema
from .graph import MixedGraph, _topological_order, is_dag

NOISE_FAMILIES = ("gaussian", "uniform", "laplace")


class SimulationError(ValueError):
    pass


@dataclass
class ScmSpec:
    """A weighted DAG plus per-node noise family/scale and a seed."""

    dag: MixedGraph
    weights: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not is_dag(self.dag):
            raise SimulationError("ScmSpec needs an acyclic directed graph")
        self.weights = {(a, b): float(w) for (a, b), w in self.weights.items()}
        stray = sorted(set(self.weights) - set(self.dag.directed_edges()))
        if stray:
            raise SimulationError(f"weights on pairs that are not edges: {stray}")
        unknown = sorted(set(self.noise) - set(self.dag.nodes))
        if unknown:
            raise SimulationError(f"noise for unknown nodes: {unknown}")
        for a, b in self.dag.directed_edges():
            self.weights.setdefault((a, b), 1.0)
        for v in self.dag.nodes:
            family, scale = self.noise.get(v, ("gaussian", 1.0))
            if family not in NOISE_FAMILIES:
                raise SimulationError(f"unknown noise family {family!r}")
            if scale <= 0:
                raise SimulationError(f"noise scale for {v} must be positive")
            self.noise[v] = (family, float(scale))


def random_dag(p, edge_prob, seed):
    """Random DAG: sample a topological order, keep each forward pair with
    probability edge_prob."""
    if p < 1:
        raise SimulationError("need at least one node")
    if not 0.0 <= edge_prob <= 1.0:
        raise SimulationError("edge_prob must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    nodes = [f"X{i:02d}" for i in range(p)]
    order = [nodes[i] for i in rng.permutation(p)]
    g = MixedGraph(nodes, "dag")
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < edge_prob:
                g.add_directed(order[i], order[j])
    return g


def random_scm(p, edge_prob, seed, noise="gaussian", weight_range=(0.4, 0.9)):
    """Random SCM with weights drawn from +-[lo, hi] (signs at random)."""
    dag = random_dag(p, edge_prob, seed)
    rng = np.random.default_rng(seed + 1)
    lo, hi = weight_range
    weights = {}
    for a, b in dag.directed_edges():
        w = rng.uniform(lo, hi) * (1 if rng.random() < 0.5 else -1)
        weights[(a, b)] = w
    noises = {v: (noise, 1.0) for v in dag.nodes}
    return ScmSpec(dag, weights, noises, seed)


def standardized_scm(dag, seed, noise="gaussian", max_explained=0.8,
                     weight_range=(0.4, 0.9)):
    """SCM whose variables all have unit variance: incoming weight vectors are
    rescaled when they would explain more than `max_explained` of a child's
    variance, and noise scales absorb the remainder."""
    rng = np.random.default_rng(seed)
    lo, hi = weight_range
    order = _topological_order(dag)
    pos = {v: i for i, v in enumerate(order)}
    p = len(order)
    cov = np.zeros((p, p))
    weights = {}
    noises = {}
    for v in order:
        i = pos[v]
        parents = sorted(dag.parents(v))
        if not parents:
            cov[i, i] = 1.0
            noises[v] = (noise, 1.0)
            continue
        w = rng.uniform(lo, hi, size=len(parents))
        w *= np.where(rng.random(len(parents)) < 0.5, 1.0, -1.0)
        pidx = [pos[u] for u in parents]
        spp = cov[np.ix_(pidx, pidx)]
        explained = float(w @ spp @ w)
        if explained > max_explained:
            w *= np.sqrt(max_explained / explained)
            explained = max_explained
        psi = 1.0 - explained
        noises[v] = (noise, float(np.sqrt(psi)))
        for u, wu in zip(parents, w):
            weights[(u, v)] = float(wu)
        # propagate covariances: cov(v, prior) = w' cov(parents, prior)
        for u in order[: order.index(v)]:
            j = pos[u]
            cov[i, j] = cov[j, i] = float(w @ cov[pidx, j])
        cov[i, i] = 1.0
    return ScmSpec(dag, weights, noises, seed)


def _draw_noise(rng, family, scale, n):
    # scale is the standard deviation for every family
    if family == "gaussian":
        return rng.normal(0.0, scale, n)
    if family == "uniform":
        half = scale * np.sqrt(3.0)
        return rng.uniform(-half, half, n)
    if family == "laplace":
        return rng.laplace(0.0, scale / np.sqrt(2.0), n)
    raise SimulationError(f"unknown noise family {family!r}")


def sample_scm(spec, n):
    """Generate n rows in topological order: V = sum(b * parent) + noise."""
    if n < 1:
        raise SimulationError("need n >= 1 rows")
    rng = np.random.default_rng(spec.seed)
    order = _topological_order(spec.dag)
    cols = {}
    for v in order:
        family, scale = spec.noise[v]
        x = _draw_noise(rng, family, scale, n)
        for u in sorted(spec.dag.parents(v)):
            x = x + spec.weights[(u, v)] * cols[u]
        cols[v] = x
    names = list(spec.dag.nodes)
    values = np.column_stack([cols[v] for v in names])
    schema = [VariableSchema(v, "continuous") for v in names]
    d = Dataset(schema, values)
    d.log(f"sampled {n} rows from SCM (seed={spec.seed})")
    return d


def implied_covariance(spec):
    """Analytic covariance (I-B)^-1 Psi (I-B)^-T of the SCM, over dag.nodes."""
    names = list(spec.dag.nodes)
    idx = {v: i for i, v in enumerate(names)}
    p = len(names)
    B = np.zeros((p, p))
    for (a, b), w in spec.weights.items():
        B[idx[b], idx[a]] = w
    psi = np.zeros((p, p))
    for v, (_, scale) in spec.noise.items():
        psi[idx[v], idx[v]] = scale ** 2
    a = np.linalg.inv(np.eye(p) - B)
    return names, a @ psi @ a.T


def discretize(d, bins):
    """Threshold-bracket columns into ordinal codes 0..k.

    `bins` maps column name -> strictly increasing thresholds; unmentioned
    columns pass through unchanged.
    """
    values = d.values.copy()
    schema = []
    for j, v in enumerate(d.schema):
        cuts = bins.get(v.name)
        if cuts is None:
            schema.append(v)
            continue
        cuts = np.asarray(cuts, dtype=float)
        if cuts.ndim != 1 or len(cuts) == 0 or (np.diff(cuts) <= 0).any():
            raise SimulationError(f"{v.name}: thresholds must be strictly increasing")
        values[:, j] = np.searchsorted(cuts, values[:, j], side="right")
        k = len(cuts) + 1
        kind = "binary" if k == 2 else "ordinal"
        schema.append(VariableSchema(v.name, kind, role=v.role, levels=k))
    out = Dataset(schema, values, list(d.provenance))
    out.log(f"discretized columns: {sorted(bins)}")
    return out

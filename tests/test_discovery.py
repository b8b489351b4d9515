import logging

import numpy as np
import pytest

from causalpath.data import Dataset, VariableSchema, pearson_matrix, polychoric_matrix
from causalpath.graph import (
    BackgroundKnowledge,
    MixedGraph,
    cpdag_of,
    is_dag,
    knowledge_violations,
)
from causalpath.discovery import (
    DiscoveryConfig,
    DiscoveryError,
    direct_lingam,
    fci,
    fges,
    pc,
    run_discovery,
)
from causalpath.score import BicScorer, ScoreError
from causalpath.simulate import ScmSpec, discretize, random_dag, random_scm, sample_scm

from oracles import build_dag, enumerate_dags, exhaustive_best_dag, oracle_ci


class MarginalOracle:
    """Oracle CI over an observed margin of a larger DAG (latents hidden)."""

    def __init__(self, dag, observed):
        self.inner = oracle_ci(dag)
        self.nodes = sorted(observed)
        self.alpha = 0.05

    def __call__(self, x, y, z=()):
        return self.inner(x, y, z)


def independent_dataset(p, n, seed):
    rng = np.random.default_rng(seed)
    schema = [VariableSchema(f"v{i}", "continuous") for i in range(p)]
    return Dataset(schema, rng.standard_normal((n, p)))


def chain_scm(p, noise, seed, lo=0.4, hi=0.9):
    nodes = [f"X{i:02d}" for i in range(p)]
    g = MixedGraph(nodes, "dag")
    rng = np.random.default_rng(seed)
    weights = {}
    for i in range(p - 1):
        w = rng.uniform(lo, hi) * (1.0 if rng.random() < 0.5 else -1.0)
        g.add_directed(nodes[i], nodes[i + 1])
        weights[(nodes[i], nodes[i + 1])] = w
    return ScmSpec(g, weights, {v: (noise, 1.0) for v in nodes}, seed=seed)


class TestPc:
    def test_oracle_recovers_cpdag(self):
        for seed in range(30):
            dag = random_dag(int(3 + seed % 5), 0.35, seed)
            assert pc(oracle_ci(dag)) == cpdag_of(dag)

    def test_independent_columns_empty_graph(self):
        d = independent_dataset(5, 4000, 0)
        assert pc(pearson_matrix(d)).edge_count == 0

    def test_sampled_collider_recovered(self):
        g = MixedGraph(["A", "B", "C"], "dag")
        g.add_directed("A", "B")
        g.add_directed("C", "B")
        spec = ScmSpec(g, {("A", "B"): 0.7, ("C", "B"): 0.7},
                       {v: ("gaussian", 1.0) for v in "ABC"}, seed=2)
        d = sample_scm(spec, 10000)
        out = pc(pearson_matrix(d))
        assert out.is_directed("A", "B") and out.is_directed("C", "B")

    def test_column_order_invariance(self):
        spec = random_scm(6, 0.4, 77)
        d = sample_scm(spec, 2000)
        base = pc(pearson_matrix(d))
        rng = np.random.default_rng(0)
        for _ in range(20):
            perm = rng.permutation(d.p)
            shuffled = Dataset([d.schema[i] for i in perm], d.values[:, perm])
            assert pc(pearson_matrix(shuffled)) == base

    def test_replay_determinism(self):
        spec = random_scm(6, 0.4, 5)
        d = sample_scm(spec, 3000)
        c = pearson_matrix(d)
        assert pc(c) == pc(c)

    def test_knowledge_tiers_enforced(self):
        spec = random_scm(6, 0.5, 9)
        d = sample_scm(spec, 3000)
        names = sorted(d.names)
        bk = BackgroundKnowledge(tiers=[names[:3], names[3:]])
        out = pc(pearson_matrix(d), bk=bk)
        assert knowledge_violations(out, bk) == []

    def test_required_edge_survives(self):
        d = independent_dataset(4, 3000, 3)
        bk = BackgroundKnowledge(required=[("v0", "v1")])
        out = pc(pearson_matrix(d), bk=bk)
        assert out.is_directed("v0", "v1")

    def test_run_record(self):
        dag = random_dag(5, 0.4, 1)
        rec = {}
        pc(oracle_ci(dag), record=rec)
        assert rec["algorithm"] == "pc"
        assert rec["ci_tests"] > 0
        assert "wall_time_ms" in rec and "knowledge" in rec

    def test_max_cond_size_cap(self):
        dag = random_dag(6, 0.6, 4)
        out = pc(oracle_ci(dag), DiscoveryConfig(max_cond_size=0))
        # only marginal tests allowed: edges separated by larger sets survive
        assert out.edge_count >= cpdag_of(dag).edge_count


class TestFci:
    def test_oracle_collider_circle_marks(self):
        g = MixedGraph(["A", "B", "C"], "dag")
        g.add_directed("A", "B")
        g.add_directed("C", "B")
        out = fci(oracle_ci(g))
        assert out.mark_at("B", "A") == "arrow" and out.mark_at("A", "B") == "circle"
        assert out.mark_at("B", "C") == "arrow" and out.mark_at("C", "B") == "circle"

    def test_hidden_confounder_bidirected(self):
        full = MixedGraph(["L", "X", "Y", "Z1", "Z2"], "dag")
        full.add_directed("L", "X")
        full.add_directed("L", "Y")
        full.add_directed("Z1", "X")
        full.add_directed("Z2", "Y")
        out = fci(MarginalOracle(full, ["X", "Y", "Z1", "Z2"]))
        assert out.is_bidirected("X", "Y")

    def test_independent_columns_empty(self):
        d = independent_dataset(4, 3000, 11)
        assert fci(pearson_matrix(d)).edge_count == 0

    def test_arrowheads_sound_on_sufficient_oracle(self):
        # an arrowhead at v on edge (u, v) claims v is not an ancestor of u
        for seed in range(20):
            dag = random_dag(int(4 + seed % 3), 0.4, 1000 + seed)
            out = fci(oracle_ci(dag))
            for a, b, ma, mb in out.edges():
                if mb == "arrow":
                    assert a not in dag.descendants(b)
                if ma == "arrow":
                    assert b not in dag.descendants(a)

    def test_knowledge_no_directed_violations(self):
        spec = random_scm(5, 0.5, 21)
        d = sample_scm(spec, 3000)
        names = sorted(d.names)
        bk = BackgroundKnowledge(tiers=[names[:2], names[2:]])
        out = fci(pearson_matrix(d), bk=bk)
        assert knowledge_violations(out, bk) == []

    def test_tiers_put_arrowheads_at_later_tier(self):
        # knowledge_violations audits directed edges only; under tiers every
        # cross-tier edge, whatever its marks, must point into the later tier
        for seed in range(12):
            spec = random_scm(6, 0.5, 800 + seed)
            names = sorted(spec.dag.nodes)
            rng = np.random.default_rng(seed)
            order = list(rng.permutation(names))
            tiers = [order[:2], order[2:4], order[4:]]
            tier = {v: i for i, t in enumerate(tiers) for v in t}
            bk = BackgroundKnowledge(tiers=tiers)
            sources = [oracle_ci(spec.dag), pearson_matrix(sample_scm(spec, 1000))]
            for source in sources:
                out = fci(source, bk=bk)
                for a, b, ma, mb in out.edges():
                    if tier[a] < tier[b]:
                        assert mb == "arrow", (seed, a, b)
                    elif tier[b] < tier[a]:
                        assert ma == "arrow", (seed, a, b)

    def test_kind_is_pag(self):
        dag = random_dag(4, 0.5, 2)
        assert fci(oracle_ci(dag)).kind == "pag"


class TestFges:
    def test_independent_columns_empty_and_score(self):
        d = independent_dataset(4, 5000, 13)
        corr = pearson_matrix(d)
        rec = {}
        out = fges(corr, record=rec)
        assert out.edge_count == 0
        scorer = BicScorer(corr)
        expected = sum(scorer.local_score(v, ()) for v in sorted(d.names))
        assert rec["total_score"] == pytest.approx(expected)

    def test_matches_exhaustive_oracle(self):
        agree = 0
        for seed in range(20):
            spec = random_scm(4, 0.5, 300 + seed)
            d = sample_scm(spec, 10000)
            corr = pearson_matrix(d)
            out = fges(corr)
            best = exhaustive_best_dag(BicScorer(corr), d.names)
            agree += out == cpdag_of(best)
        assert agree >= 19

    def test_forward_trace_strictly_increasing(self):
        spec = random_scm(5, 0.5, 8)
        d = sample_scm(spec, 5000)
        rec = {}
        fges(pearson_matrix(d), record=rec)
        inserts = [step for step in rec["trace"] if step["op"] == "insert"]
        assert inserts
        assert all(step["delta"] > 0 for step in inserts)

    def test_score_at_least_empty(self):
        for seed in range(5):
            spec = random_scm(5, 0.4, 400 + seed)
            d = sample_scm(spec, 2000)
            rec = {}
            fges(pearson_matrix(d), record=rec)
            assert rec["total_score"] >= rec["empty_score"] - 1e-9

    def test_indefinite_matrix_raises_and_is_skipped(self):
        # binarized small sample: indefinite tetrachoric matrix, so some
        # regressions have a negative residual variance
        d = sample_scm(random_scm(8, 0.6, 21, weight_range=(0.8, 1.5)), 80)
        corr = polychoric_matrix(discretize(d, {v: [0.0] for v in d.names}))
        with pytest.raises(ScoreError, match="indefinite"):
            BicScorer(corr).local_score("X07", {"X01", "X03", "X04"})
        rec = {}
        fges(corr, record=rec)
        assert np.isfinite(rec["total_score"])
        assert rec["total_score"] >= rec["empty_score"] - 1e-9

    def test_singular_regression_raises_and_is_skipped(self, caplog):
        # a survey total T = A + B: regressing any of the three on the other
        # two is singular, and its residual variance is rounding noise
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 500))
        d = Dataset([VariableSchema(v, "continuous") for v in "ABT"],
                    np.column_stack([a, b, a + b]))
        corr = pearson_matrix(d)
        scorer = BicScorer(corr)
        with pytest.raises(ScoreError, match="singular"):
            scorer.local_score("T", {"A", "B"})
        rec = {}
        with caplog.at_level(logging.WARNING, logger="causalpath.discovery.fges"):
            fges(corr, record=rec)
        assert any("skipped: singular regression" in r.getMessage() for r in caplog.records)
        admissible = []
        for edges in enumerate_dags(d.names):
            try:
                admissible.append(scorer.score_dag(build_dag(d.names, edges)))
            except ScoreError:
                pass
        assert np.isfinite(rec["total_score"])
        assert rec["empty_score"] - 1e-9 <= rec["total_score"] <= max(admissible) + 1e-9

    def test_forbidden_pair_never_inserted(self):
        g = MixedGraph(["a", "b"], "dag")
        g.add_directed("a", "b")
        spec = ScmSpec(g, {("a", "b"): 0.8}, {v: ("gaussian", 1.0) for v in "ab"}, seed=1)
        d = sample_scm(spec, 5000)
        bk = BackgroundKnowledge(forbidden=[("a", "b"), ("b", "a")])
        out = fges(pearson_matrix(d), bk=bk)
        assert not out.has_edge("a", "b")

    def test_required_edge_present(self):
        d = independent_dataset(3, 4000, 17)
        bk = BackgroundKnowledge(required=[("v0", "v2")])
        out = fges(pearson_matrix(d), bk=bk)
        assert out.is_directed("v0", "v2")

    def test_tier_knowledge_respected(self):
        spec = random_scm(6, 0.5, 23)
        d = sample_scm(spec, 4000)
        names = sorted(d.names)
        bk = BackgroundKnowledge(tiers=[names[:3], names[3:]])
        out = fges(pearson_matrix(d), bk=bk)
        assert knowledge_violations(out, bk) == []


class TestDirectLingam:
    def test_two_variable_uniform(self):
        g = MixedGraph(["x", "y"], "dag")
        g.add_directed("x", "y")
        spec = ScmSpec(g, {("x", "y"): 0.8},
                       {"x": ("uniform", 1.0), "y": ("uniform", 1.0)}, seed=4)
        d = sample_scm(spec, 5000)
        rec = {}
        out = direct_lingam(d, record=rec)
        assert rec["causal_order"] == ["x", "y"]
        assert out.weight("x", "y") == pytest.approx(0.8, abs=0.05)

    def test_chain_order_recovery_laplace(self):
        hits = 0
        for seed in range(20):
            spec = chain_scm(3, "laplace", 600 + seed)
            d = sample_scm(spec, 5000)
            rec = {}
            direct_lingam(d, record=rec)
            hits += rec["causal_order"] == sorted(spec.dag.nodes)
        assert hits >= 19

    def test_single_variable(self):
        d = independent_dataset(1, 100, 0)
        out = direct_lingam(d)
        assert out.edge_count == 0 and out.nodes == ["v0"]

    def test_acyclic_by_construction(self):
        for seed in range(5):
            spec = random_scm(5, 0.5, 700 + seed, noise="uniform")
            d = sample_scm(spec, 3000)
            assert is_dag(direct_lingam(d))

    def test_prune_threshold(self):
        spec = chain_scm(3, "uniform", 3)
        d = sample_scm(spec, 5000)
        out = direct_lingam(d, DiscoveryConfig(prune_threshold=10.0))
        assert out.edge_count == 0

    def test_required_edge_survives_pruning(self):
        spec = chain_scm(3, "uniform", 3)
        d = sample_scm(spec, 5000)
        nodes = sorted(spec.dag.nodes)
        bk = BackgroundKnowledge(required=[(nodes[0], nodes[1])])
        out = direct_lingam(d, DiscoveryConfig(prune_threshold=10.0), bk=bk)
        assert out.is_directed(nodes[0], nodes[1])

    def test_forbidden_direction_dropped(self):
        spec = chain_scm(3, "uniform", 5)
        d = sample_scm(spec, 5000)
        nodes = sorted(spec.dag.nodes)
        bk = BackgroundKnowledge(forbidden=[(nodes[0], nodes[1])])
        out = direct_lingam(d, bk=bk)
        assert not out.is_directed(nodes[0], nodes[1])
        assert knowledge_violations(out, bk) == []

    def test_needs_dataset(self):
        spec = random_scm(3, 0.5, 1)
        corr = pearson_matrix(sample_scm(spec, 1000))
        with pytest.raises(DiscoveryError):
            direct_lingam(corr)

    def test_deterministic(self):
        spec = chain_scm(4, "laplace", 12)
        d = sample_scm(spec, 3000)
        assert direct_lingam(d) == direct_lingam(d)


class TestRunDiscovery:
    def test_dispatch_and_unknown(self):
        spec = random_scm(4, 0.4, 31)
        d = sample_scm(spec, 2000)
        corr = pearson_matrix(d)
        for name in ("pc", "fci", "fges"):
            g = run_discovery(name, dataset=d, corr=corr)
            assert set(g.nodes) == set(d.names)
        g = run_discovery("lingam", dataset=d)
        assert g.kind == "weighted-dag"
        with pytest.raises(DiscoveryError):
            run_discovery("ges", dataset=d)

    def test_all_algorithms_respect_role_tiers(self):
        # paper-style tiers: targets are sinks; characteristics cannot cause
        # earlier tiers
        rng = np.random.default_rng(55)
        spec = random_scm(6, 0.5, 55, noise="uniform")
        d = sample_scm(spec, 3000)
        names = sorted(d.names)
        bk = BackgroundKnowledge(
            tiers=[names[:2], names[2:4], names[4:]],
            forbidden=[(t, o) for t in names[4:] for o in names if o != t],
        )
        corr = pearson_matrix(d)
        for name in ("pc", "fci", "fges", "lingam"):
            g = run_discovery(name, dataset=d, corr=corr, bk=bk)
            assert knowledge_violations(g, bk) == [], name
            for t in names[4:]:
                assert not g.children(t), (name, t)

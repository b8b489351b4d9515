import importlib
import logging
from types import ModuleType

import numpy as np
import pytest

import causalpath.data
from causalpath.data import (CorrelationMatrix, Dataset, VariableSchema, pearson_matrix,
                             polychoric_matrix)
from causalpath.graph import (
    BackgroundKnowledge,
    MixedGraph,
    cpdag_of,
    is_dag,
)
from causalpath.discovery import (
    DiscoveryConfig,
    DiscoveryError,
    direct_lingam,
    fci,
    fges,
    pc,
)
from causalpath.discovery.ges import _InsertCache
from causalpath.discovery import lingam
from causalpath.discovery.lingam import _exogeneity
from causalpath.independence import FisherZTest, GSquaredTest
from causalpath.score import BicScorer, ScoreError
from causalpath.simulate import ScmSpec, discretize, random_dag, random_scm, sample_scm

from oracles import (build_dag, descendants, enumerate_dags, exhaustive_best_dag,
                     fges_best_insert_scan, knowledge_violations, lingam_order,
                     lingam_pairwise_scores, oracle_ci)


class MarginalOracle:
    """Oracle CI over an observed margin of a larger DAG (latents hidden)."""

    def __init__(self, dag, observed):
        self.inner = oracle_ci(dag)
        self.nodes = sorted(observed)
        self.alpha = 0.05

    def __call__(self, x, y, z=()):
        return self.inner(x, y, z)


class Unmemoized:
    """Memo-free reference: every query goes straight to the tester's
    statistic, in the order it was asked."""

    def __init__(self, tester):
        self.inner = tester
        self.nodes = tester.nodes
        self.alpha = tester.alpha
        self.calls = 0

    def __call__(self, x, y, z=()):
        self.calls += 1
        return self.inner._test(x, y, list(z))


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


def survey_total(caused_by_a=False):
    """A, B and their total T = A + B: regressing any of the three on the
    other two is singular. Optionally a fourth column C = 0.7 A + noise."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 500))
    cols = [a, b, a + b]
    if caused_by_a:
        cols.append(0.7 * a + rng.standard_normal(500))
    return Dataset([VariableSchema(v, "continuous") for v in "ABTC"[:len(cols)]],
                   np.column_stack(cols))


def near_tie_scorer():
    """Two columns whose empty-set inserts x -> y and y -> x tie in exact
    arithmetic, with y -> x nudged up by a relative 1e-13."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1000)
    d = Dataset([VariableSchema(v, "continuous") for v in "xy"],
                np.column_stack([x, 0.6 * x + rng.standard_normal(1000)]))
    corr = pearson_matrix(d)
    plain = BicScorer(corr)
    shift = 1e-13 * abs(plain.local_score("x", {"y"}) - plain.local_score("x", ()))

    class Nudged(BicScorer):
        def local_score(self, node, parents=()):
            s = super().local_score(node, parents)
            return s + shift if (node, set(parents)) == ("x", {"y"}) else s

    return Nudged(corr)


def random_knowledge(names, rng):
    """Tiers from a random permutation, required edges along it and random
    forbidden pairs, each present or not at random."""
    perm = [str(v) for v in rng.permutation(sorted(names))]
    p = len(perm)
    cut = sorted(rng.choice(np.arange(1, p), size=2, replace=False))
    tiers = [perm[:cut[0]], perm[cut[0]:cut[1]], perm[cut[1]:]] if rng.random() < 0.7 else []
    required = [(perm[i], perm[j]) for i in range(p) for j in range(i + 1, p)
                if rng.random() < 0.08]
    forbidden = [(a, b) for a in perm for b in perm
                 if a != b and (a, b) not in required and rng.random() < 0.08]
    return BackgroundKnowledge(tiers=tiers, forbidden=forbidden, required=required)


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
        assert rec["ci_evaluations"] is None  # the oracle keeps no memo
        assert "wall_time_ms" in rec and "knowledge" in rec
        corr = pearson_matrix(sample_scm(random_scm(6, 0.5, 2), 500))
        for alg in (pc, fci):
            rec = {}
            alg(FisherZTest(corr), record=rec)
            assert 0 < rec["ci_evaluations"] <= rec["ci_tests"]

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
                    assert a not in descendants(dag, b)
                if ma == "arrow":
                    assert b not in descendants(dag, a)

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


class TestMemoizedTesters:
    """The memo answers repeated queries and changes no decision: PC and FCI
    give the memo-free reference's graph, sepsets and record."""

    KEYS = ("sepsets", "pds_removed", "conflicts", "ci_tests")

    def check(self, alg, make, cfg):
        memo_rec, ref_rec = {}, {}
        out = alg(make(), cfg, record=memo_rec)
        assert out == alg(Unmemoized(make()), cfg, record=ref_rec)
        assert [memo_rec.get(k) for k in self.KEYS] == [ref_rec.get(k) for k in self.KEYS]
        assert memo_rec["ci_evaluations"] < memo_rec["ci_tests"]
        return memo_rec

    @pytest.mark.parametrize("seed", [3, 8, 15])
    def test_same_decisions_as_reference(self, seed):
        d = sample_scm(random_scm(9, 0.35, seed), 400)
        corr = pearson_matrix(d)
        codes = discretize(d, {v: [-0.5, 0.5] for v in d.names})
        cfg = DiscoveryConfig(max_cond_size=2)
        for alg in (pc, fci):
            self.check(alg, lambda: FisherZTest(corr), cfg)
            self.check(alg, lambda: GSquaredTest(codes), cfg)

    def test_uncapped_fci_same_as_reference(self):
        d = sample_scm(random_scm(8, 0.5, 6), 500)
        rec = self.check(fci, lambda: FisherZTest(pearson_matrix(d)), DiscoveryConfig())
        assert rec["pds_removed"] > 0
        assert max(len(s) for s in rec["sepsets"].values()) > 2  # deeper than the cap


def indefinite_tetrachoric():
    """Binarized small sample: an indefinite tetrachoric matrix, on which some
    Fisher-z blocks are indefinite."""
    d = sample_scm(random_scm(8, 0.6, 21, weight_range=(0.8, 1.5)), 80)
    return polychoric_matrix(discretize(d, {v: [0.0] for v in d.names}))


class TestFisherZPaths:
    """The scalar Cholesky path of Fisher-z and BIC changes no decision, and
    no query or score on a well-conditioned matrix reaches the
    eigendecomposition."""

    @staticmethod
    def runs(corr, cfg):
        """PC's, FCI's and FGES's graphs and records without wall time. FGES's
        scores go to a list of their own, since the two paths round them
        differently."""
        out = []
        for alg in (pc, fci, fges):
            rec = {}
            graph = alg(corr, cfg, record=rec)
            del rec["wall_time_ms"]
            if alg is fges:
                rec["scores"] = [rec.pop("total_score"), rec.pop("empty_score")]
                rec["scores"] += [step.pop("delta") for step in rec["trace"]]
            out.append((graph.to_json_dict(), rec))
        return out

    @staticmethod
    def without_eigh_path(monkeypatch):
        monkeypatch.setattr(CorrelationMatrix, "_cholesky_row", lambda self, names: None)

    def test_same_output_as_eigh_path(self, monkeypatch):
        cases = [(pearson_matrix(sample_scm(random_scm(9, 0.35, seed), 400)),
                  DiscoveryConfig(max_cond_size=2)) for seed in (3, 8, 15)]
        cases += [(pearson_matrix(sample_scm(random_scm(8, 0.5, 6), 500)), DiscoveryConfig()),
                  (indefinite_tetrachoric(), DiscoveryConfig())]
        fast = [self.runs(corr, cfg) for corr, cfg in cases]
        scores = [run[2][1].pop("scores") for run in fast]
        self.without_eigh_path(monkeypatch)
        slow = [self.runs(corr, cfg) for corr, cfg in cases]
        for got, want in zip([run[2][1].pop("scores") for run in slow], scores):
            # a delta is a difference of local scores, so its rounding is
            # measured against the size of the scores
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * abs(want[1]))
        assert slow == fast
        assert fast[-1][0][1]["ci_notes"]["indefinite"] > 0
        assert fast[-1][2][1]["skipped_score_error"] > 0

    def test_no_eigendecomposition_per_query(self, monkeypatch):
        corr = pearson_matrix(sample_scm(random_scm(20, 3 / 19, 7), 1200))
        real, sizes = np.linalg.eigh, []

        def counting(a, *args, **kwargs):
            sizes.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(causalpath.data.np.linalg, "eigh", counting)
        cfg = DiscoveryConfig(max_cond_size=2)
        pc_rec, fci_rec, fges_rec = [rec for _, rec in self.runs(corr, cfg)]
        assert min(pc_rec["ci_evaluations"], fci_rec["ci_evaluations"]) > 1000
        assert fges_rec["score_evaluations"] > 1000
        assert sizes == []
        # the counter sees the eigendecomposition path: one call per evaluation
        self.without_eigh_path(monkeypatch)
        pc_rec, fci_rec, fges_rec = [rec for _, rec in self.runs(corr, cfg)]
        assert len(sizes) == (pc_rec["ci_evaluations"] + fci_rec["ci_evaluations"]
                              + fges_rec["score_evaluations"])

    @pytest.mark.parametrize("alg", [pc, fci])
    def test_record_counts_notes(self, alg, caplog):
        rec = {}
        with caplog.at_level(logging.WARNING, logger="causalpath.independence"):
            alg(FisherZTest(indefinite_tetrachoric()), record=rec)
        logged = [r for r in caplog.records
                  if r.name == "causalpath.independence" and "indefinite" in r.getMessage()]
        assert rec["ci_notes"]["indefinite"] == len(logged) > 0
        assert sum(rec["ci_notes"].values()) <= rec["ci_evaluations"]


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
        corr = indefinite_tetrachoric()
        with pytest.raises(ScoreError, match="indefinite"):
            BicScorer(corr).local_score("X07", {"X01", "X03", "X04"})
        rec = {}
        fges(corr, record=rec)
        assert np.isfinite(rec["total_score"])
        assert rec["total_score"] >= rec["empty_score"] - 1e-9

    def test_singular_regression_raises_and_is_skipped(self, caplog):
        # a survey total T = A + B: regressing any of the three on the other
        # two is singular, and its residual variance is rounding noise
        d = survey_total()
        corr = pearson_matrix(d)
        scorer = BicScorer(corr)
        with pytest.raises(ScoreError, match="singular"):
            scorer.local_score("T", {"A", "B"})
        rec = {}
        with caplog.at_level(logging.WARNING, logger="causalpath.discovery.ges"):
            fges(corr, record=rec)
        assert any("skipped: singular regression" in r.getMessage() for r in caplog.records)
        assert rec["skipped_score_error"] >= 1
        assert rec["skipped_inextensible"] == 0
        admissible = []
        for edges in enumerate_dags(d.names):
            try:
                admissible.append(scorer.score_dag(build_dag(d.names, edges)))
            except ScoreError:
                pass
        assert np.isfinite(rec["total_score"])
        assert rec["empty_score"] - 1e-9 <= rec["total_score"] <= max(admissible) + 1e-9

    def test_near_tied_insert_goes_to_smaller_pair(self):
        # a 1e-13 relative nudge to y -> x must not decide between the tied
        # inserts
        rec = {}
        fges(near_tie_scorer(), record=rec)
        assert [(op["x"], op["y"]) for op in rec["trace"]] == [("x", "y")]

    def test_refused_operator_logged_once(self, caplog):
        # the refused insert B -> A is computed again, with the same parent
        # set, once C is adjacent to A; it is logged and counted once
        rec = {}
        with caplog.at_level(logging.WARNING, logger="causalpath.discovery.ges"):
            fges(pearson_matrix(survey_total(caused_by_a=True)), record=rec)
        logged = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert logged and len(set(logged)) == len(logged) == rec["skipped_score_error"]

    def test_refused_regression_evaluated_once(self):
        # a refused (node, parent set) is remembered: asking again raises
        # the same error without inverting the block again
        asked = set()

        class Keys(BicScorer):
            def local_score(self, node, parents=()):
                asked.add((node, frozenset(parents)))
                return super().local_score(node, parents)

        scorer = Keys(pearson_matrix(survey_total(caused_by_a=True)))
        rec = {}
        fges(scorer, record=rec)
        assert rec["score_evaluations"] == scorer.evaluations == len(asked)
        for _ in range(2):
            with pytest.raises(ScoreError, match=r"singular regression of T on \['A', 'B'\]"):
                scorer.local_score("T", {"A", "B"})
        assert scorer.evaluations == len(asked)

    def test_cached_insert_matches_full_scan(self, monkeypatch):
        # every forward step of whole runs picks the operator a scan of every
        # pair and subset picks; the scan's sub-threshold best means "stop"
        cached = _InsertCache.best
        steps = []

        def checked(self, g, skip):
            got = cached(self, g, skip)
            want = fges_best_insert_scan(g, self.scorer, self.bk, skip)
            assert got == (want if want is not None and want[0] > 1e-9 else None)
            steps.append(got)
            return got

        monkeypatch.setattr(_InsertCache, "best", checked)
        rng = np.random.default_rng(2017)
        runs = [(near_tie_scorer(), None), (pearson_matrix(survey_total(caused_by_a=True)), None)]
        for seed in range(30):
            p = int(rng.integers(5, 11))
            d = sample_scm(random_scm(p, float(rng.uniform(0.2, 0.5)), 1100 + seed),
                           int(rng.integers(300, 2000)))
            runs.append((pearson_matrix(d), random_knowledge(d.names, rng) if seed % 3 else None))
        for source, bk in runs:
            rec = {}
            fges(source, bk=bk, record=rec)
            inserts = sum(op["op"] == "insert" for op in rec["trace"])
            assert steps[-1] is None
            assert len(steps) == inserts + rec["skipped_inextensible"] + 1
            steps.clear()

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

    @pytest.mark.parametrize("noise", ["uniform", "laplace"])
    @pytest.mark.parametrize("r,n", [(2, 40000), (5, 6000), (12, 2000)])
    def test_exogeneity_matches_scalar_oracle(self, noise, r, n):
        # n is large enough that the kernel builds its residuals in 2-3 blocks
        rng = np.random.default_rng(r * 7 + len(noise))
        e = rng.uniform(-1, 1, (n, r)) if noise == "uniform" else rng.laplace(size=(n, r))
        mix = np.tril(rng.uniform(-1, 1, (r, r)), -1) + np.eye(r)
        w = e @ mix.T
        w -= w.mean(axis=0)
        expected = lingam_pairwise_scores(list(w.T))
        assert np.count_nonzero(expected) > 0
        np.testing.assert_allclose(_exogeneity(w), expected, rtol=1e-9, atol=0)

    def test_candidate_scores_equal_the_full_kernel(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            r, n = int(rng.integers(2, 13)), int(rng.integers(200, 3000))
            w = rng.laplace(size=(n, r)) @ (np.tril(rng.uniform(-1, 1, (r, r)), -1) + np.eye(r))
            w -= w.mean(axis=0)
            cands = rng.permutation(r)[:rng.integers(1, r + 1)]
            np.testing.assert_allclose(_exogeneity(w, cands), _exogeneity(w)[cands],
                                       rtol=1e-12, atol=0)

    def test_near_collinear_pair_scores_finite(self):
        # |corr(b, c)| = 1 - 1e-10: the residual of one on the other is
        # standardized from a variance of about 2e-10, without a warning
        rng = np.random.default_rng(5)
        b, e, a = rng.uniform(-1, 1, (3, 2000))
        c = -(b + np.sqrt(2e-10) * (e - e.mean()) * b.std() / e.std())
        assert 1 - abs(np.corrcoef(b, c)[0, 1]) == pytest.approx(1e-10, rel=0.1)
        w = np.column_stack([a, b, c])
        w -= w.mean(axis=0)
        assert np.all(np.isfinite(_exogeneity(w)))
        schema = [VariableSchema(v, "continuous") for v in "abc"]
        rec = {}
        direct_lingam(Dataset(schema, w), record=rec)
        assert sorted(rec["causal_order"]) == ["a", "b", "c"]

    def test_kernel_refuses_zero_residual_variance(self):
        # +-1 columns: the standardized copies and their covariances are exact
        x = np.tile([1.0, -1.0], 50)
        with pytest.raises(DiscoveryError, match="variance"):
            _exogeneity(np.column_stack([x, x]))

    def test_exogeneity_columns_counts_the_residuals(self, monkeypatch):
        built = []
        entropy = lingam._entropy

        def counting(u, scratch=None):
            if scratch is not None:  # a block of pairwise residuals
                built.append(len(u))
            return entropy(u, scratch)

        monkeypatch.setattr(lingam, "_entropy", counting)
        d = sample_scm(random_scm(7, 0.5, 31, noise="uniform"), 1500)
        names = sorted(d.names)
        tiers = [names[4:], names[3:4], names[:3]]
        rec = {}
        direct_lingam(d, bk=BackgroundKnowledge(tiers=tiers), record=rec)
        # a tier's members are the candidates, placed one at a time
        expected, r = 0, len(names)
        for tier in tiers:
            for c in range(len(tier), 0, -1):
                expected += c * (2 * r - c - 1) if c > 1 else 0
                r -= 1
        assert rec["exogeneity_columns"] == sum(built) == expected == 56
        built.clear()
        direct_lingam(d, record=rec)
        assert rec["exogeneity_columns"] == sum(built) == sum(r * (r - 1) for r in range(2, 8))

    def test_order_matches_scalar_oracle_with_knowledge(self):
        rng = np.random.default_rng(808)
        for seed in range(12):
            p = int(rng.integers(3, 8))
            spec = random_scm(p, 0.5, 900 + seed, noise=["uniform", "laplace"][seed % 2])
            d = sample_scm(spec, 1500)
            perm = list(rng.permutation(sorted(d.names)))
            cut = sorted(rng.choice(np.arange(1, p), size=2, replace=False))
            tiers = [perm[:cut[0]], perm[cut[0]:cut[1]], perm[cut[1]:]]
            required = [(perm[i], perm[j]) for i in range(p) for j in range(i + 1, p)
                        if rng.random() < 0.25]
            # every variable tiered, then every other one left out of the tiers
            for untiered in ((), perm[1::2]):
                kept = [[v for v in t if v not in untiered] for t in tiers]
                bk = BackgroundKnowledge(tiers=[t for t in kept if t], required=required)
                rec = {}
                direct_lingam(d, bk=bk, record=rec)
                assert rec["causal_order"] == lingam_order(d, bk), (seed, untiered)

    def test_required_edges_against_the_data(self):
        spec = chain_scm(3, "uniform", 3)  # X00 -> X01 -> X02
        d = sample_scm(spec, 5000)
        rec = {}
        direct_lingam(d, record=rec)
        assert rec["causal_order"] == ["X00", "X01", "X02"]
        bk = BackgroundKnowledge(required=[("X02", "X01"), ("X01", "X00")])
        direct_lingam(d, bk=bk, record=rec)
        assert rec["causal_order"] == ["X02", "X01", "X00"]

    def test_tiers_order_the_variables(self):
        # the data order X00, X01, X02; the tiers put X02 first and X00 last
        d = sample_scm(chain_scm(3, "uniform", 3), 5000)
        bk = BackgroundKnowledge(tiers=[["X02"], ["X01"], ["X00"]])
        rec = {}
        out = direct_lingam(d, bk=bk, record=rec)
        assert rec["causal_order"] == ["X02", "X01", "X00"]
        assert knowledge_violations(out, bk) == []

    @pytest.mark.parametrize("kind", ["constant", "duplicate", "scaled-copy", "combination"])
    @pytest.mark.parametrize("name", ["a", "z"])
    def test_refuses_rank_deficient_columns(self, name, kind):
        rng = np.random.default_rng(17)
        b = rng.uniform(-1, 1, 500)
        c = 0.7 * b + rng.uniform(-1, 1, 500)
        extra = {"constant": np.full(500, 2.0), "duplicate": b, "scaled-copy": 3.0 * b,
                 "combination": b - 2.0 * c}[kind]
        schema = [VariableSchema(v, "continuous") for v in ("b", "c", name)]
        with pytest.raises(DiscoveryError, match="rank"):
            direct_lingam(Dataset(schema, np.column_stack([b, c, extra])))

    @pytest.mark.parametrize("n", [3, 4])
    def test_refuses_too_few_rows(self, n):
        with pytest.raises(DiscoveryError):
            direct_lingam(independent_dataset(4, n, 5))


class TestInputs:
    def test_dataset_same_as_its_pearson_matrix(self):
        d = sample_scm(random_scm(6, 0.5, 77), 1500)
        bk = random_knowledge(d.names, np.random.default_rng(77))
        for algorithm in (pc, fges):
            from_data, from_corr = {}, {}
            assert algorithm(d, bk=bk, record=from_data) == \
                algorithm(pearson_matrix(d), bk=bk, record=from_corr)
            del from_data["wall_time_ms"], from_corr["wall_time_ms"]
            assert from_data == from_corr, algorithm.__name__

    @pytest.mark.parametrize("algorithm", [pc, fci, fges])
    def test_non_data_source_refused(self, algorithm):
        with pytest.raises(DiscoveryError, match="cannot build"):
            algorithm([[1.0, 0.3], [0.3, 1.0]])

    @pytest.mark.parametrize("algorithm", [pc, fci, fges, direct_lingam])
    def test_knowledge_naming_unknown_variables_refused(self, algorithm):
        # a misspelled tier would otherwise silently disable itself
        d = sample_scm(random_scm(3, 0.5, 5), 200)
        source = d if algorithm is direct_lingam else pearson_matrix(d)
        bk = BackgroundKnowledge(tiers=[["x00"], ["X01", "X02"]], forbidden=[("X01", "Y")],
                                 required=[("Z", "X02")])
        with pytest.raises(DiscoveryError, match=r"unknown variables: \['Y', 'Z', 'x00'\]"):
            algorithm(source, bk=bk)
        algorithm(source, bk=BackgroundKnowledge(tiers=[["X00"], ["X01", "X02"]]))

    @pytest.mark.parametrize("algorithm", [pc, fci])
    def test_tester_alpha_must_match_config(self, algorithm):
        c = pearson_matrix(sample_scm(random_scm(3, 0.5, 5), 200))
        rec = {}
        with pytest.raises(DiscoveryError, match="alpha"):
            algorithm(FisherZTest(c, 0.001), DiscoveryConfig(), record=rec)
        algorithm(FisherZTest(c, 0.001), DiscoveryConfig(alpha=0.001), record=rec)
        assert rec["config"]["alpha"] == 0.001
        no_alpha = oracle_ci(random_dag(3, 0.5, 5))
        del no_alpha.alpha  # a tester without a declared alpha is taken as it is
        algorithm(no_alpha, DiscoveryConfig(alpha=0.2))

    def test_scorer_penalty_must_match_config(self):
        c = pearson_matrix(sample_scm(random_scm(3, 0.5, 5), 200))
        with pytest.raises(DiscoveryError, match="penalty_discount"):
            fges(BicScorer(c, 2.0), DiscoveryConfig())
        rec = {}
        fges(BicScorer(c, 2.0), DiscoveryConfig(penalty_discount=2.0), record=rec)
        assert rec["config"]["penalty_discount"] == 2.0
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            # nan scored nan and inf scored -inf when built directly
            with pytest.raises(ScoreError, match="penalty_discount"):
                BicScorer(c, bad)

    @pytest.mark.parametrize("field, value", [
        ("max_cond_size", -1), ("max_cond_size", 1.5), ("max_cond_size", True),
        ("penalty_discount", float("inf")), ("penalty_discount", float("nan")),
        ("penalty_discount", 0.0), ("prune_threshold", -1.0),
        ("prune_threshold", float("inf")), ("prune_threshold", float("nan")),
    ])
    def test_config_refuses_bad_values(self, field, value):
        # PC ran max_cond_size=-1 as depth 0 and 1.5 as depth 1, while the
        # record kept the value as given
        with pytest.raises(DiscoveryError, match=field):
            DiscoveryConfig(**{field: value})
        DiscoveryConfig(**{field: 0 if field == "max_cond_size" else 2.0})

    def test_modules_not_shadowed_by_functions(self):
        ges = importlib.import_module("causalpath.discovery.ges")
        constraint = importlib.import_module("causalpath.discovery.constraint")
        assert isinstance(ges, ModuleType) and callable(ges._better)
        assert isinstance(constraint, ModuleType) and callable(constraint.stable_skeleton)
        assert importlib.import_module("causalpath.discovery").fges is ges.fges
        assert (pc, fci) == (constraint.pc, constraint.fci)


class TestRunDiscovery:
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
        graphs = {"pc": pc(corr, bk=bk), "fci": fci(corr, bk=bk), "fges": fges(corr, bk=bk),
                  "lingam": direct_lingam(d, bk=bk)}
        for name, g in graphs.items():
            assert knowledge_violations(g, bk) == [], name
            for t in names[4:]:
                assert not g.children(t), (name, t)

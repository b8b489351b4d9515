import numpy as np
import pytest

from causalpath.data import pearson_matrix
from causalpath.graph import MixedGraph, cpdag_of, is_dag
from causalpath.independence import FisherZTest, partial_correlation
from causalpath.score import BicScorer
from causalpath.simulate import (
    ScmSpec,
    SimulationError,
    discretize,
    implied_covariance,
    random_dag,
    random_scm,
    sample_scm,
    standardized_scm,
)

from oracles import enumerate_dags, exhaustive_best_dag, oracle_ci


class TestRandomDag:
    def test_zero_prob_empty(self):
        assert random_dag(5, 0.0, 1).edge_count == 0

    def test_full_prob_complete(self):
        g = random_dag(3, 1.0, 1)
        assert g.edge_count == 3 and is_dag(g)

    def test_seed_determinism(self):
        assert random_dag(6, 0.4, 99) == random_dag(6, 0.4, 99)
        assert random_dag(6, 0.4, 99) != random_dag(6, 0.4, 100)


class TestSampleScm:
    def test_reproducible(self):
        spec = random_scm(4, 0.5, 7)
        a = sample_scm(spec, 500).values
        b = sample_scm(spec, 500).values
        assert np.array_equal(a, b)

    def test_no_edges_near_zero_correlation(self):
        spec = random_scm(4, 0.0, 3)
        d = sample_scm(spec, 10000)
        c = pearson_matrix(d).matrix
        off = c[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 3.0 / np.sqrt(10000) * 3

    def test_analytic_correlation_propagation(self):
        g = MixedGraph(["x", "y"], "dag")
        g.add_directed("x", "y")
        spec = ScmSpec(g, {("x", "y"): 0.8}, {"x": ("gaussian", 1.0), "y": ("gaussian", 1.0)},
                       seed=11)
        d = sample_scm(spec, 20000)
        r = pearson_matrix(d).value("x", "y")
        assert r == pytest.approx(0.8 / np.sqrt(1.64), abs=0.02)

    def test_markov_property_of_chain(self):
        g = MixedGraph(["a", "b", "c"], "dag")
        g.add_directed("a", "b")
        g.add_directed("b", "c")
        spec = ScmSpec(g, {("a", "b"): 0.9, ("b", "c"): 0.9},
                       {v: ("gaussian", 1.0) for v in "abc"}, seed=5)
        d = sample_scm(spec, 20000)
        r = partial_correlation(pearson_matrix(d), "a", "c", ["b"])
        assert abs(r) < 0.03

    def test_empirical_matches_implied_covariance(self):
        spec = random_scm(5, 0.5, 21)
        names, sigma = implied_covariance(spec)
        d = sample_scm(spec, 20000)
        emp = np.cov(d.values, rowvar=False)
        assert np.abs(emp - sigma).max() < 5.0 / np.sqrt(20000) * np.abs(sigma).max() * 3

    def test_noise_families_scale(self):
        for family in ("gaussian", "uniform", "laplace"):
            g = MixedGraph(["x"], "dag")
            spec = ScmSpec(g, {}, {"x": (family, 2.0)}, seed=13)
            d = sample_scm(spec, 50000)
            assert d.values[:, 0].std() == pytest.approx(2.0, rel=0.05)

    def test_bad_inputs(self):
        g = MixedGraph(["x"], "dag")
        with pytest.raises(SimulationError):
            ScmSpec(g, {}, {"x": ("cauchy", 1.0)})
        with pytest.raises(SimulationError):
            sample_scm(ScmSpec(g), 0)

    def test_weights_and_noise_only_on_the_graph(self):
        # sample_scm reads weights along edges only, so a stray (y, x) weight
        # would reach implied_covariance alone
        g = MixedGraph(["x", "y"], "dag")
        g.add_directed("x", "y")
        with pytest.raises(SimulationError, match="not edges"):
            ScmSpec(g, {("x", "y"): 0.8, ("y", "x"): 0.5})
        with pytest.raises(SimulationError, match="unknown nodes"):
            ScmSpec(g, {("x", "y"): 0.8}, {"z": ("gaussian", 1.0)})


class TestStandardizedScm:
    def test_unit_variances(self):
        dag = random_dag(6, 0.5, 31)
        spec = standardized_scm(dag, 31)
        _, sigma = implied_covariance(spec)
        assert np.allclose(np.diag(sigma), 1.0, atol=1e-10)

    def test_faithfulness_at_scale(self):
        # every d-separation of the DAG shows up as a fisher-z non-rejection
        from itertools import combinations

        hits = 0
        total = 0
        for seed in range(6):
            dag = random_dag(5, 0.4, 100 + seed)
            spec = standardized_scm(dag, 200 + seed)
            d = sample_scm(spec, 20000)
            test = FisherZTest(pearson_matrix(d), alpha=0.01)
            oracle = oracle_ci(dag)
            names = sorted(dag.nodes)
            for x, y in combinations(names, 2):
                rest = [v for v in names if v not in (x, y)]
                for r in range(len(rest) + 1):
                    from itertools import combinations as comb

                    for zs in comb(rest, r):
                        if oracle(x, y, zs).independent:
                            total += 1
                            hits += test(x, y, zs).independent
        if total:
            assert hits / total >= 0.95


class TestEnumerateAndExhaustive:
    def test_dag_counts(self):
        assert sum(1 for _ in enumerate_dags(["a", "b"])) == 3
        assert sum(1 for _ in enumerate_dags(["a", "b", "c"])) == 25
        assert sum(1 for _ in enumerate_dags(["a", "b", "c", "d"])) == 543

    def test_independent_data_prefers_empty(self):
        spec = random_scm(2, 0.0, 17)
        d = sample_scm(spec, 2000)
        assert exhaustive_best_dag(BicScorer(pearson_matrix(d)), d.names).edge_count == 0

    def test_strong_edge_recovered(self):
        g = MixedGraph(["a", "b"], "dag")
        g.add_directed("a", "b")
        spec = ScmSpec(g, {("a", "b"): 0.8}, {v: ("gaussian", 1.0) for v in "ab"}, seed=3)
        d = sample_scm(spec, 5000)
        best = exhaustive_best_dag(BicScorer(pearson_matrix(d)), d.names)
        assert best.edge_count == 1
        assert cpdag_of(best).is_undirected("a", "b")


class TestDiscretize:
    def test_median_split(self):
        rng = np.random.default_rng(4)
        spec = random_scm(1, 0.0, 4)
        d = sample_scm(spec, 1001)
        med = float(np.median(d.values[:, 0]))
        out = discretize(d, {"X00": [med]})
        counts = np.bincount(out.values[:, 0].astype(int))
        assert abs(int(counts[0]) - int(counts[1])) <= 1
        assert out.schema[0].kind == "binary"

    def test_threshold_below_all(self):
        spec = random_scm(1, 0.0, 8)
        d = sample_scm(spec, 100)
        out = discretize(d, {"X00": [d.values[:, 0].min() - 10.0]})
        assert (out.values[:, 0] == 1).all()

    def test_tertile_shares(self):
        g = MixedGraph(["u"], "dag")
        spec = ScmSpec(g, {}, {"u": ("uniform", 1.0)}, seed=6)
        d = sample_scm(spec, 30000)
        half = np.sqrt(3.0)
        out = discretize(d, {"u": [-half / 3, half / 3]})
        shares = np.bincount(out.values[:, 0].astype(int)) / 30000
        assert np.allclose(shares, 1 / 3, atol=0.01)

    def test_nonmonotone_thresholds(self):
        spec = random_scm(1, 0.0, 2)
        d = sample_scm(spec, 10)
        with pytest.raises(SimulationError):
            discretize(d, {"X00": [1.0, 0.5]})

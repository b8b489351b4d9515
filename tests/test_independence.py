import json
import logging
import warnings

import numpy as np
import pytest
from scipy.stats import chi2, norm

from causalpath.data import (
    CorrelationMatrix,
    Dataset,
    VariableSchema,
    pearson_matrix,
    polychoric_matrix,
)
from causalpath.discovery import pc
from causalpath.graph import MixedGraph
from causalpath.independence import (
    CiTestResult,
    FisherZTest,
    GSquaredTest,
    IndependenceError,
    SessionLog,
    SingularConditioningError,
    partial_correlation,
)
from causalpath.simulate import discretize, random_scm, sample_scm

from oracles import oracle_ci, spd_correlation


def corr_of(matrix, n=100, names=None):
    matrix = np.asarray(matrix, dtype=float)
    names = names or [f"v{i}" for i in range(matrix.shape[0])]
    return CorrelationMatrix(names, matrix, "pearson", n)


def discrete_dataset(columns, names=None):
    columns = np.asarray(columns, dtype=float)
    names = names or [f"v{i}" for i in range(columns.shape[1])]
    schema = [VariableSchema(nm, "ordinal", levels=max(2, len(np.unique(columns[:, i]))))
              for i, nm in enumerate(names)]
    return Dataset(schema, columns)


class TestPartialCorrelation:
    def test_empty_set_is_raw_entry(self):
        c = corr_of([[1, 0.37, 0], [0.37, 1, 0], [0, 0, 1]])
        assert partial_correlation(c, "v0", "v1") == pytest.approx(0.37)

    def test_recursive_formula_example(self):
        m = np.full((3, 3), 0.5)
        np.fill_diagonal(m, 1.0)
        c = corr_of(m)
        # (0.5 - 0.25) / (1 - 0.25) = 1/3
        assert partial_correlation(c, "v0", "v1", ["v2"]) == pytest.approx(1 / 3)

    def test_matches_residual_regression_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = spd_correlation(6, rng)
            c = corr_of(m)
            names = c.names
            x, y = "v0", "v1"
            z = ["v2", "v3", "v4"]
            zi = [names.index(v) for v in z]
            xi, yi = 0, 1
            szz = m[np.ix_(zi, zi)]
            sxz = m[xi, zi]
            syz = m[yi, zi]
            rxy = m[xi, yi] - sxz @ np.linalg.solve(szz, syz)
            rxx = m[xi, xi] - sxz @ np.linalg.solve(szz, sxz)
            ryy = m[yi, yi] - syz @ np.linalg.solve(szz, syz)
            oracle = rxy / np.sqrt(rxx * ryy)
            assert partial_correlation(c, x, y, z) == pytest.approx(oracle, abs=1e-10)

    def test_singular_submatrix_reports_set(self):
        m = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
        c = corr_of(m)
        with pytest.raises(SingularConditioningError) as err:
            partial_correlation(c, "v0", "v2", ["v1"])
        assert err.value.names == ("v0", "v2", "v1")

    def test_relabeling_outside_xyz_invariant(self):
        rng = np.random.default_rng(23)
        m = spd_correlation(5, rng)
        c = corr_of(m)
        base = partial_correlation(c, "v0", "v1", ["v2"])
        perm = [0, 1, 2, 4, 3]  # swap the two unused variables
        c2 = corr_of(m[np.ix_(perm, perm)])
        assert partial_correlation(c2, "v0", "v1", ["v2"]) == pytest.approx(base)


def equicorrelation_block(k, cond):
    """k x k correlation block with equal off-diagonals and the given 2-norm
    condition number: eigenvalues 1 + (k - 1) r and 1 - r."""
    r = (cond - 1.0) / (cond + k - 1.0)
    m = np.full((k, k), r)
    np.fill_diagonal(m, 1.0)
    return m


class TestPrecisionKernel:
    def test_matches_inverse(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            c = corr_of(spd_correlation(7, rng, extra=12))
            names = list(rng.permutation(c.names)[:rng.integers(1, 8)])
            idx = [c.index(v) for v in names]
            ref = np.linalg.inv(c.matrix[np.ix_(idx, idx)])
            np.testing.assert_allclose(c.precision(names), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("cond", [1e9, 1e11])
    def test_raises_exactly_beyond_condition_limit(self, k, cond):
        # the block sits inside a larger matrix next to an unrelated variable
        m = np.eye(k + 1)
        m[1:, 1:] = equicorrelation_block(k, cond)
        c = corr_of(m)
        names = [f"v{i}" for i in range(k, 0, -1)]
        too_ill = np.linalg.cond(c.matrix[1:, 1:]) > 1e10
        assert too_ill == (cond > 1e10)
        if too_ill:
            with pytest.raises(SingularConditioningError) as err:
                c.precision(names)
            assert err.value.names == tuple(names)
        else:
            assert np.isfinite(c.precision(names)).all()


class TestFisherZ:
    def test_zero_partial_is_independent(self):
        m = np.eye(3)
        t = FisherZTest(corr_of(m, n=50), alpha=0.05)
        res = t("v0", "v1")
        assert res.p_value == pytest.approx(1.0)
        assert res.independent

    def test_scalar_formula(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        t = FisherZTest(corr_of(m, n=1000))
        res = t("v0", "v1")
        assert res.statistic == pytest.approx(np.sqrt(997) * np.arctanh(0.3), rel=1e-12)
        assert res.statistic == pytest.approx(9.77, abs=0.01)
        assert res.p_value < 1e-15
        assert not res.independent

    def test_saturated_flag(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        c = CorrelationMatrix(["a", "b"], m, "pearson", 100)
        res = FisherZTest(c)("a", "b")
        assert res.p_value == 0.0
        assert res.note in ("saturated", "near-singular")

    def test_null_calibration(self):
        # true zero partial correlation: x ⊥ y | z by construction
        rng = np.random.default_rng(5150)
        rejections = 0
        n_sims = 1000
        for _ in range(n_sims):
            z = rng.standard_normal(120)
            x = 0.7 * z + rng.standard_normal(120)
            y = 0.7 * z + rng.standard_normal(120)
            d = Dataset([VariableSchema(nm, "continuous") for nm in ("x", "y", "z")],
                        np.column_stack([x, y, z]))
            res = FisherZTest(pearson_matrix(d), alpha=0.05)("x", "y", ["z"])
            rejections += not res.independent
        assert rejections / n_sims == pytest.approx(0.05, abs=0.02)

    def test_null_pvalues_uniform(self):
        rng = np.random.default_rng(99)
        pvals = []
        for _ in range(1000):
            x = rng.standard_normal((200, 2))
            d = Dataset([VariableSchema(nm, "continuous") for nm in ("x", "y")], x)
            pvals.append(FisherZTest(pearson_matrix(d))("x", "y").p_value)
        pvals = np.sort(pvals)
        grid = (np.arange(1, 1001)) / 1000.0
        ks = np.max(np.abs(pvals - grid))
        assert ks < 0.05

    def test_indefinite_matrix_noted(self, caplog, tmp_path):
        # a small binarized sample gives an indefinite tetrachoric matrix
        # (minimum eigenvalue -0.147); some of PC's tests get a nonpositive
        # residual variance and so no partial correlation
        d = sample_scm(random_scm(8, 0.6, 21, weight_range=(0.8, 1.5)), 80)
        corr = polychoric_matrix(discretize(d, {v: [0.0] for v in d.names}))
        log = SessionLog(FisherZTest(corr), path=tmp_path / "pc.jsonl")
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING):
            warnings.simplefilter("error", RuntimeWarning)
            pc(log)
        nan = [r for r in log.records if r["p_value"] is None]
        assert nan
        assert all(r["note"] == "indefinite" and not r["independent"] for r in nan)
        noted = [r for r in caplog.records
                 if r.name == "causalpath.independence" and "indefinite" in r.getMessage()]
        assert len(noted) == len(nan)

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        # the session log is strict JSON: NaN and infinity are written as null
        with open(log.write(), encoding="utf-8") as fh:
            lines = [json.loads(line, parse_constant=refuse) for line in fh]
        assert lines == log.records

    def test_pvalue_equals_scipy_stats(self):
        rng = np.random.default_rng(41)
        names = [f"v{i}" for i in range(8)]
        t = FisherZTest(corr_of(spd_correlation(8, rng, extra=30), n=60))
        checked = 0
        for _ in range(600):
            x, y, *z = rng.permutation(names)[:rng.integers(2, 7)]
            res = t(x, y, z)
            assert res.note == ""
            assert res.p_value == 2.0 * norm.sf(abs(res.statistic))
            checked += 0.0 < res.p_value < 1.0
        assert checked >= 500

    def test_sample_size_precondition(self):
        t = FisherZTest(corr_of(np.eye(4), n=5))
        with pytest.raises(IndependenceError):
            t("v0", "v1", ["v2", "v3"])


class TestGSquared:
    def test_independent_2x2(self):
        x = np.repeat([0, 0, 1, 1], 25)
        y = np.tile([0, 1, 0, 1], 25)
        res = GSquaredTest(discrete_dataset(np.column_stack([x, y])))("v0", "v1")
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_deterministic_copy(self):
        x = np.tile([0, 1], 50)
        res = GSquaredTest(discrete_dataset(np.column_stack([x, x])))("v0", "v1")
        assert res.p_value < 1e-10
        assert not res.independent

    def test_matches_hand_summation(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, 400)
        z = rng.integers(0, 3, 400)
        y = (x + rng.integers(0, 2, 400)) % 2
        data = np.column_stack([x, y, z])
        res = GSquaredTest(discrete_dataset(data))("v0", "v1", ["v2"])
        # direct summation oracle over strata of z
        g2 = 0.0
        for s in range(3):
            sub = data[data[:, 2] == s]
            table = np.zeros((2, 2))
            for xv, yv, _ in sub:
                table[int(xv), int(yv)] += 1
            tot = table.sum()
            for i in range(2):
                for j in range(2):
                    if table[i, j] > 0:
                        e = table[i, :].sum() * table[:, j].sum() / tot
                        g2 += 2 * table[i, j] * np.log(table[i, j] / e)
        assert res.statistic == pytest.approx(g2, abs=1e-9)
        assert res.dof_or_condsize == (2 - 1) * (2 - 1) * 3

    def test_dof_counts_levels_seen_in_each_stratum(self):
        # stratum z=1 never sees x=2: it has a 2x2 table, not a 3x2 one
        rng = np.random.default_rng(5)
        z = np.repeat([0, 1], 150)
        x = np.where(z == 0, rng.integers(0, 3, 300), rng.integers(0, 2, 300))
        y = rng.integers(0, 2, 300)
        res = GSquaredTest(discrete_dataset(np.column_stack([x, y, z])))("v0", "v1", ["v2"])
        assert res.dof_or_condsize == (3 - 1) * (2 - 1) + (2 - 1) * (2 - 1)
        assert res.p_value == pytest.approx(chi2.sf(res.statistic, 3))

    def test_degenerate_without_dof(self):
        # y is constant within each stratum of z, so no stratum has a dof
        x = np.tile([0, 1, 2], 20)
        z = np.repeat([0, 1], 30)
        res = GSquaredTest(discrete_dataset(np.column_stack([x, z, z])))("v0", "v1", ["v2"])
        assert (res.note, res.dof_or_condsize, res.independent) == ("degenerate", 0, True)
        empty = Dataset(discrete_dataset(np.column_stack([x, z])).schema, np.empty((0, 2)))
        res = GSquaredTest(empty)("v0", "v1")
        assert (res.note, res.p_value) == ("degenerate", 1.0)

    def test_pvalue_equals_scipy_stats(self):
        rng = np.random.default_rng(43)
        data = rng.integers(0, 3, (150, 6)).astype(float)
        data[:, 1] = (data[:, 0] + rng.integers(0, 2, 150)) % 3
        t = GSquaredTest(discrete_dataset(data))
        checked = 0
        for _ in range(600):
            x, y, *z = rng.permutation(t.nodes)[:rng.integers(2, 5)]
            res = t(x, y, z)
            if res.note:
                continue
            assert res.p_value == chi2.sf(res.statistic, res.dof_or_condsize)
            checked += 1
        assert checked >= 500

    def test_rejects_continuous(self):
        d = Dataset([VariableSchema("x", "continuous")],
                    np.random.default_rng(0).standard_normal((10, 1)))
        with pytest.raises(IndependenceError):
            GSquaredTest(d)


class TestOracle:
    def test_chain_and_collider(self):
        chain = MixedGraph(["A", "B", "C"])
        chain.add_directed("A", "B")
        chain.add_directed("B", "C")
        t = oracle_ci(chain)
        assert t("A", "C", ["B"]).independent
        assert not t("A", "C").independent
        collider = MixedGraph(["A", "B", "C"])
        collider.add_directed("A", "B")
        collider.add_directed("C", "B")
        t2 = oracle_ci(collider)
        assert t2("A", "C").independent
        assert not t2("A", "C", ["B"]).independent


class TestSymmetryAndLog:
    def test_symmetry_all_testers(self):
        rng = np.random.default_rng(8)
        m = spd_correlation(4, rng)
        fz = FisherZTest(corr_of(m))
        r1, r2 = fz("v0", "v1", ["v2"]), fz("v1", "v0", ["v2"])
        assert r1.statistic == pytest.approx(r2.statistic)
        data = rng.integers(0, 3, (200, 3)).astype(float)
        gt = GSquaredTest(discrete_dataset(data))
        assert gt("v0", "v1", ["v2"]).statistic == pytest.approx(
            gt("v1", "v0", ["v2"]).statistic)

    def test_session_log_jsonl(self, tmp_path):
        t = SessionLog(FisherZTest(corr_of(np.eye(3), n=80)),
                       path=tmp_path / "tests.jsonl")
        t("v0", "v1")
        t("v0", "v2", ["v1"])
        path = t.write()
        lines = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert len(lines) == 2
        assert lines[1]["z"] == ["v1"]
        assert {"statistic", "p_value", "independent"} <= set(lines[0])

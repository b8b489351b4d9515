import logging
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2, norm

from causalpath.data import (
    _COND_LIMIT,
    CorrelationMatrix,
    DataError,
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
    SingularConditioningError,
)
from causalpath.score import BicScorer, ScoreError
from causalpath.simulate import discretize, random_scm, sample_scm

from oracles import (
    eigh_partial_correlation,
    g2_oracle,
    oracle_ci,
    spd_correlation,
    unique_strata,
)


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
        assert c.partial_correlation("v0", "v1") == pytest.approx(0.37)

    def test_recursive_formula_example(self):
        m = np.full((3, 3), 0.5)
        np.fill_diagonal(m, 1.0)
        c = corr_of(m)
        # (0.5 - 0.25) / (1 - 0.25) = 1/3
        assert c.partial_correlation("v0", "v1", ["v2"]) == pytest.approx(1 / 3)

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
            assert c.partial_correlation(x, y, z) == pytest.approx(oracle, abs=1e-10)

    def test_singular_submatrix_reports_set(self):
        m = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
        c = corr_of(m)
        with pytest.raises(SingularConditioningError) as err:
            c.partial_correlation("v0", "v2", ["v1"])
        assert err.value.names == ("v0", "v2", "v1")

    def test_relabeling_outside_xyz_invariant(self):
        rng = np.random.default_rng(23)
        m = spd_correlation(5, rng)
        c = corr_of(m)
        base = c.partial_correlation("v0", "v1", ["v2"])
        perm = [0, 1, 2, 4, 3]  # swap the two unused variables
        c2 = corr_of(m[np.ix_(perm, perm)])
        assert c2.partial_correlation("v0", "v1", ["v2"]) == pytest.approx(base)

    @pytest.mark.parametrize("x, y, z", [("v0", "v0", []), ("v0", "v1", ["v0"]),
                                         ("v0", "v1", ["v2", "v1"])])
    def test_overlapping_query_refused(self, x, y, z):
        with pytest.raises(DataError, match="distinct and disjoint"):
            corr_of(np.eye(3)).partial_correlation(x, y, z)


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


def collinear_block(k, cond, rng):
    """Random k x k correlation block: a covariance with eigenvalues spread
    geometrically from 1 down to 1/cond, rescaled to a unit diagonal."""
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = (q * np.geomspace(1.0, 1.0 / cond, k)) @ q.T
    d = np.sqrt(np.diag(s))
    s = s / np.outer(d, d)
    return (s + s.T) / 2.0


def binarized_correlation(seed):
    """Tetrachoric matrix of a binarized random_scm(8, 0.6) sample of 80 rows:
    indefinite on every seed."""
    d = sample_scm(random_scm(8, 0.6, seed, weight_range=(0.8, 1.5)), 80)
    return polychoric_matrix(discretize(d, {v: [0.0] for v in d.names}))


def certificate_blocks(rng):
    """500 correlation blocks with k = 2-6: random ones, near-collinear ones
    (condition number 1e8-1e12 before rescaling), subsets of indefinite
    tetrachoric matrices, and ones whose first two variables are a
    saturated pair."""
    blocks = [spd_correlation(int(rng.integers(2, 7)), rng, extra=int(rng.integers(0, 4)))
              for _ in range(150)]
    blocks += [collinear_block(int(rng.integers(2, 7)), 10 ** rng.uniform(8, 12), rng)
               for _ in range(150)]
    for seed in range(1, 11):
        m = binarized_correlation(seed).matrix
        for _ in range(15):
            idx = rng.permutation(8)[:rng.integers(2, 7)]
            blocks.append(m[np.ix_(idx, idx)])
    for _ in range(50):
        m = spd_correlation(int(rng.integers(2, 7)), rng)
        sign = rng.choice([-1.0, 1.0])
        m[1, :] = sign * m[0, :]
        m[:, 1] = sign * m[:, 0]
        m[1, 1] = 1.0
        blocks.append(m)
    return blocks


class TestCholeskyCertificate:
    def test_certified_blocks_pass_eigh_rule_and_declined_ones_are_unchanged(self):
        rng = np.random.default_rng(2208)
        seen = Counter()
        for m in certificate_blocks(rng):
            c = corr_of(m, n=200)
            x, y, *z = c.names[:2] + list(rng.permutation(c.names[2:]))
            ref = eigh_partial_correlation(c.matrix, 0, 1, [c.index(v) for v in z])
            note = FisherZTest(c)(x, y, z).note
            if c._cholesky_row([*z, x, y]) is not None:
                size = np.abs(np.linalg.eigvalsh(c.matrix))
                cond = size.max() / size.min()
                assert cond <= _COND_LIMIT
                # both paths round with an error that grows with the condition number
                r = c.partial_correlation(x, y, z)
                assert abs(r - ref) <= 1e-12 + 10 * np.finfo(float).eps * cond
                assert note == ""
                seen["certified"] += 1
            elif ref is None:
                with pytest.raises(SingularConditioningError):
                    c.partial_correlation(x, y, z)
                assert note == "near-singular"
                seen[note] += 1
            else:
                assert float(c.partial_correlation(x, y, z)).hex() == ref.hex()
                assert note == ("indefinite" if np.isnan(ref) else
                                "saturated" if abs(ref) >= 1.0 else "")
                seen[note or "declined"] += 1
        assert sum(seen.values()) == 500
        assert min(seen[k] for k in ("certified", "near-singular", "indefinite",
                                     "saturated", "declined")) >= 10, seen

    def test_residual_variance_certified_or_precision_path(self):
        rng = np.random.default_rng(2208)
        seen = Counter()
        for m in certificate_blocks(rng):
            c = corr_of(m, n=200)
            node, *parents = rng.permutation(c.names)
            scorer = BicScorer(c)
            try:
                ref = 1.0 / float(c.precision([node, *parents])[0, 0])
            except SingularConditioningError:
                ref = None
            if c._cholesky_row([*parents, node]) is not None:
                size = np.abs(np.linalg.eigvalsh(c.matrix))
                cond = size.max() / size.min()
                assert cond <= _COND_LIMIT
                rv = c.residual_variance(node, parents)
                assert abs(rv - ref) <= 1e-12 + 10 * np.finfo(float).eps * cond
                assert np.isfinite(scorer.local_score(node, parents))
                seen["certified"] += 1
            elif ref is None:
                with pytest.raises(SingularConditioningError):
                    c.residual_variance(node, parents)
                with pytest.raises(ScoreError, match="singular regression"):
                    scorer.local_score(node, parents)
                seen["near-singular"] += 1
            else:
                rv = c.residual_variance(node, parents)
                assert rv.hex() == ref.hex()
                if ref <= 0.0:
                    with pytest.raises(ScoreError, match="indefinite"):
                        scorer.local_score(node, parents)
                    seen["indefinite"] += 1
                else:
                    assert np.isfinite(scorer.local_score(node, parents))
                    seen["declined"] += 1
        assert sum(seen.values()) == 500
        assert min(seen[k] for k in ("certified", "near-singular", "indefinite",
                                     "declined")) >= 10, seen


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

    def test_indefinite_matrix_noted(self, caplog):
        # a small binarized sample gives an indefinite tetrachoric matrix
        # (minimum eigenvalue -0.147); some of PC's tests get a nonpositive
        # residual variance and so no partial correlation
        d = sample_scm(random_scm(8, 0.6, 21, weight_range=(0.8, 1.5)), 80)
        corr = polychoric_matrix(discretize(d, {v: [0.0] for v in d.names}))
        tester, record = FisherZTest(corr), {}
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING):
            warnings.simplefilter("error", RuntimeWarning)
            pc(tester, record=record)
        answers = [CiTestResult(*a) for a in tester._memo.values()]
        indefinite = [r for r in answers if r.note == "indefinite"]
        assert indefinite
        assert all(np.isnan(r.p_value) == (r.note == "indefinite") for r in answers)
        assert not any(r.independent for r in indefinite)
        noted = [r for r in caplog.records
                 if r.name == "causalpath.independence" and "indefinite" in r.getMessage()]
        assert len(noted) == len(indefinite) == record["ci_notes"]["indefinite"]

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
        data = discrete_dataset(np.column_stack([x, z, z]))
        res = GSquaredTest(data)("v0", "v1", ["v2"])
        assert (res.note, res.dof_or_condsize, res.independent) == ("degenerate", 0, True)
        # no rows or one row: no table has a dof, with or without z
        for rows in (data.values[:0], data.values[:1]):
            t = GSquaredTest(Dataset(data.schema, rows))
            for zs in ((), ["v2"]):
                res = t("v0", "v1", zs)
                assert (res.note, res.dof_or_condsize, res.p_value) == ("degenerate", 0, 1.0)

    def test_matches_cube_oracle_on_random_ordinal_data(self):
        # 2-6 levels, some levels absent from some strata, |z| 0-3, n 1-300
        rng = np.random.default_rng(47)
        checked = 0
        for _ in range(150):
            n = int(rng.integers(1, 301))
            levels = rng.integers(2, 7, 6)
            data = rng.integers(0, levels, (n, 6))
            data[:, 1] = (data[:, 0] + rng.integers(0, 2, n)) % levels[1]
            for _ in range(2):
                c, k = rng.permutation(6)[:2]
                rows = data[:, k] == 0
                data[rows, c] = np.minimum(data[rows, c], rng.integers(0, levels[c] - 1))
            t = GSquaredTest(discrete_dataset(data))
            for _ in range(4):
                x, y, *z = rng.permutation(t.nodes)[:2 + rng.integers(0, 4)]
                res = t(x, y, z)
                g2, dof = g2_oracle(t.dataset, x, y, z)
                assert res.dof_or_condsize == dof
                assert abs(res.statistic - g2) <= 1e-9
                if dof == 0:
                    assert (res.note, res.p_value) == ("degenerate", 1.0)
                else:
                    assert res.p_value == chi2.sf(res.statistic, dof)
                    checked += 1
                count, stratum, *_ = t._stratify(sorted(z))
                want_count, want = unique_strata(n, t._codes, t._levels, sorted(z))
                assert count == want_count
                np.testing.assert_array_equal(stratum, want)
        assert checked >= 300

    @pytest.mark.parametrize("items, levels", [(28, 6), (68, 2)])
    def test_deep_conditioning_set(self, items, levels):
        # 6^28 strata overflow a flat index, and 68 binary items exceed
        # numpy's 64 dimensions; the strata that occur are few all the same
        rng = np.random.default_rng(53)
        pool = rng.integers(0, levels, (12, items))
        pool[:levels] = np.arange(levels)[:, None]  # every item sees every level
        pattern = rng.integers(0, len(pool), 300)
        x = rng.integers(0, 3, 300)
        y = (x + rng.integers(0, 2, 300)) % 3
        names = ["v00", "v01", *(f"z{i:02d}" for i in range(items)), "pattern"]
        data = discrete_dataset(np.column_stack([x, y, pool[pattern], pattern]), names)
        t = GSquaredTest(data)
        z = names[2:-1]
        res = t("v00", "v01", z)
        g2, dof = g2_oracle(data, "v00", "v01", ["pattern"])
        assert (res.note, res.dof_or_condsize) == ("", dof)
        assert abs(res.statistic - g2) <= 1e-9 and np.isfinite(res.p_value)
        _, want = np.unique(pool[pattern], axis=0, return_inverse=True)
        np.testing.assert_array_equal(t._stratify(z)[1], want.ravel())

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


def _bits(res):
    """A result's fields, floats as their exact hex form (NaN included)."""
    return (float(res.statistic).hex(), float(res.p_value).hex(), res.dof_or_condsize,
            res.independent, res.note)


class TestMemo:
    def fisher_z(self):
        return FisherZTest(corr_of(spd_correlation(6, np.random.default_rng(12)), n=90))

    def g2(self):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 3, (300, 6)).astype(float)
        data[:, 1] = (data[:, 0] + rng.integers(0, 2, 300)) % 3
        return GSquaredTest(discrete_dataset(data))

    @pytest.mark.parametrize("make", ["fisher_z", "g2"])
    def test_swapped_query_evaluated_once(self, make):
        t = getattr(self, make)()
        first = t("v0", "v1", ["v2", "v3"])
        second = t("v1", "v0", ["v3", "v2"])
        assert (t.calls, t.evaluations) == (2, 1)
        assert _bits(first) == _bits(second)

    @pytest.mark.parametrize("make", ["fisher_z", "g2"])
    def test_memo_answer_equals_fresh_tester(self, make):
        # queries from a small pool, asked in random orders and set sizes, so
        # that most are hits and G^2 keeps dropping and refilling its strata
        t = getattr(self, make)()
        rng = np.random.default_rng(14)
        for _ in range(500):
            x, y, *z = rng.permutation(t.nodes)[:rng.integers(2, 5)]
            got = t(x, y, z)
            assert _bits(got) == _bits(getattr(self, make)()(x, y, z))
        assert t.calls == 500
        assert t.evaluations < 250

    def test_g2_alternating_set_sizes_equal_fresh_tester(self):
        # FCI's possible-d-sep phase asks sets of changing sizes, so G^2
        # keeps dropping its strata and margins and building them again
        t = self.g2()
        rng = np.random.default_rng(15)
        for i in range(200):
            z = list(rng.permutation(t.nodes)[:(1, 3, 0, 2)[i % 4]])
            rest = [v for v in t.nodes if v not in z]
            for _ in range(2):
                x, y = rng.permutation(rest)[:2]
                assert _bits(t(x, y, z)) == _bits(self.g2()(x, y, z))
        assert t.evaluations > 150

import numpy as np
import pytest

from causalpath.data import (
    CorrelationMatrix,
    DataError,
    Dataset,
    MissingColumnError,
    SchemaConfig,
    UnmappableCellError,
    VariableSchema,
    clean,
    correlation_matrix,
    load_csv,
    pearson_matrix,
    polychoric_matrix,
    scale_unit,
    spearman_matrix,
)
from causalpath.polychoric import bvn_cell_probs, polychoric_pair


def make_dataset(values, kinds=None, names=None):
    values = np.asarray(values, dtype=float)
    p = values.shape[1]
    names = names or [f"v{i}" for i in range(p)]
    kinds = kinds or ["continuous"] * p
    schema = []
    for name, kind in zip(names, kinds):
        levels = len(np.unique(values[:, names.index(name)])) if kind != "continuous" else None
        if kind == "binary":
            levels = 2
        schema.append(VariableSchema(name, kind, levels=levels))
    return Dataset(schema, values)


class TestSchema:
    def test_binary_levels_enforced(self):
        with pytest.raises(DataError):
            VariableSchema("x", "binary", levels=3)

    def test_ordinal_needs_levels(self):
        with pytest.raises(DataError):
            VariableSchema("x", "ordinal")
        VariableSchema("x", "ordinal", levels=4)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            SchemaConfig([VariableSchema("x", "continuous"),
                          VariableSchema("x", "continuous")])

    def test_json_roundtrip(self):
        cfg = SchemaConfig(
            [VariableSchema("a", "ordinal", role="target", levels=3,
                            level_labels=["lo", "mid", "hi"]),
             VariableSchema("b", "continuous")],
            cleaning=[{"column": "b", "min": 0}],
        )
        cfg2 = SchemaConfig.from_json_dict(cfg.to_json_dict())
        assert cfg2.to_json_dict() == cfg.to_json_dict()


class TestLoadCsv:
    def test_identity_ingestion(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1,2\n3,4\n5,6\n")
        schema = [VariableSchema("a", "continuous"), VariableSchema("b", "continuous")]
        d = load_csv(f, schema)
        assert d.n == 3 and d.p == 2
        assert d.column("b").tolist() == [2.0, 4.0, 6.0]

    def test_extra_column_ignored(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,junk,b\n1,9,2\n3,9,4\n")
        d = load_csv(f, [VariableSchema("a", "continuous"),
                         VariableSchema("b", "continuous")])
        assert d.p == 2
        assert any("ignored" in line for line in d.provenance)

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a\n1\n")
        with pytest.raises(MissingColumnError):
            load_csv(f, [VariableSchema("a", "continuous"),
                         VariableSchema("b", "continuous")])

    def test_level_labels_mapped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("mode\ncar\nwalk\ncar\n")
        d = load_csv(f, [VariableSchema("mode", "ordinal", levels=3,
                                        level_labels=["car", "public", "walk"])])
        assert d.column("mode").tolist() == [0.0, 2.0, 0.0]

    def test_unmappable_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a\noops\n")
        with pytest.raises(UnmappableCellError):
            load_csv(f, [VariableSchema("a", "continuous")])

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(DataError):
            load_csv(f, [VariableSchema("a", "continuous")])


class TestClean:
    def test_threshold_filter(self):
        d = make_dataset([[17], [18], [40]], names=["age"])
        out = clean(d, [{"column": "age", "min": 18}])
        assert out.n == 2
        assert any("dropped" in s for s in out.provenance)

    def test_sentinel_removal(self):
        d = make_dataset([[1, 2], [-9, 3], [4, -9], [5, 6]], names=["a", "b"])
        out = clean(d, [{"columns": ["a", "b"], "deny": [-9]}])
        assert out.n == 2
        assert (out.values != -9).all()

    def test_allow_list_matches_row_scan(self):
        rng = np.random.default_rng(42)
        modes = rng.integers(0, 4, size=500).astype(float)
        other = rng.standard_normal(500)
        d = make_dataset(np.column_stack([modes, other]), names=["mode", "x"])
        out = clean(d, [{"column": "mode", "allow": [0, 1, 2]}])
        # independent row-scan oracle
        expected = sum(1 for m in modes if m in (0.0, 1.0, 2.0))
        assert out.n == expected

    def test_unknown_column(self):
        d = make_dataset([[1.0]], names=["a"])
        with pytest.raises(DataError):
            clean(d, [{"column": "zzz", "min": 0}])


class TestScaleUnit:
    def test_simple(self):
        d = make_dataset([[0.0], [1.0], [2.0]])
        assert scale_unit(d).values[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_idempotent_on_unit_range(self):
        d = make_dataset([[0.0], [0.25], [1.0]])
        out = scale_unit(d)
        assert np.array_equal(out.values, d.values)
        again = scale_unit(out)
        assert np.array_equal(again.values, out.values)

    def test_constant_column_flagged(self):
        d = make_dataset([[5.0], [5.0], [5.0]])
        out = scale_unit(d)
        assert (out.values == 0).all()
        assert any("constant" in s for s in out.provenance)

    def test_idempotence_random(self):
        rng = np.random.default_rng(1)
        d = make_dataset(rng.standard_normal((50, 4)) * 7 + 3)
        once = scale_unit(d)
        twice = scale_unit(once)
        assert np.allclose(once.values, twice.values)
        assert once.values.min() == 0.0 and once.values.max() == 1.0


class TestSpearman:
    def test_hand_rank_formula(self):
        # ranks of y = (1, 3, 2); sum d^2 = 2; rho = 1 - 6*2/(3*8) = 0.5
        d = make_dataset(np.column_stack([[1, 2, 3], [3, 5, 4]]))
        c = spearman_matrix(d)
        assert c.value("v0", "v1") == pytest.approx(0.5, abs=1e-12)

    def test_strictly_monotone_is_one(self):
        d = make_dataset(np.column_stack([[1, 2, 3, 4], [10, 20, 25, 99]]))
        assert spearman_matrix(d).value("v0", "v1") == pytest.approx(1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((100, 3))
        base = spearman_matrix(make_dataset(x)).matrix
        for fn in (np.exp, lambda v: v ** 3 + v, lambda v: 1 / (1 + np.exp(-v))):
            y = x.copy()
            y[:, 1] = fn(y[:, 1])
            assert np.allclose(spearman_matrix(make_dataset(y)).matrix, base)

    def test_constant_column_zero_with_warning(self):
        d = make_dataset(np.column_stack([[1, 1, 1], [1, 2, 3]]))
        c = spearman_matrix(d)
        assert c.value("v0", "v1") == 0.0
        assert c.matrix[0, 0] == 1.0


class TestPearson:
    def test_exact_linear(self):
        x = np.linspace(0, 1, 20)
        d = make_dataset(np.column_stack([x, 2 * x + 1]))
        assert pearson_matrix(d).value("v0", "v1") == pytest.approx(1.0)

    def test_orthogonal_columns(self):
        d = make_dataset(np.column_stack([[1, 1, -1, -1], [1, -1, 1, -1]]))
        assert pearson_matrix(d).value("v0", "v1") == pytest.approx(0.0, abs=1e-12)

    def test_bivariate_normal_sampling(self):
        rng = np.random.default_rng(2024)
        z = rng.multivariate_normal([0, 0], [[1, 0.7], [0.7, 1]], size=500)
        d = make_dataset(z)
        assert pearson_matrix(d).value("v0", "v1") == pytest.approx(0.7, abs=0.08)

    def test_needs_three_rows(self):
        with pytest.raises(DataError):
            pearson_matrix(make_dataset([[1.0], [2.0]]))


class TestPolychoric:
    @pytest.mark.parametrize("rho", [0.3, 0.97, 0.995])
    def test_cell_probs_match_scipy_bvn(self, rho):
        from scipy.stats import multivariate_normal

        tx = np.array([-np.inf, -1.2, 0.0, 0.7, np.inf])
        ty = np.array([-np.inf, -0.4, 1.5, np.inf])
        bvn = multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
        ref = np.array([[bvn.cdf([tx[i + 1], ty[j + 1]], lower_limit=[tx[i], ty[j]])
                         for j in range(len(ty) - 1)] for i in range(len(tx) - 1)])
        probs = bvn_cell_probs(tx, ty, rho)
        assert probs.shape == (4, 3)
        np.testing.assert_allclose(probs, ref, rtol=0, atol=1e-10)

    def test_median_split_matches_closed_form(self):
        # both thresholds at 0: P(cell 00) = 1/4 + arcsin(rho) / (2 pi)
        table = {(0, 0): 70, (1, 1): 70, (0, 1): 30, (1, 0): 30}
        pairs = [cell for cell, count in table.items() for _ in range(count)]
        x, y = np.array(pairs).T
        rho, warnings = polychoric_pair(x, y)
        assert warnings == []
        assert rho == pytest.approx(np.sin(2 * np.pi * (70 / 200 - 0.25)), abs=1e-6)

    def test_independence_counts(self):
        x = np.repeat([0, 0, 1, 1], 25)
        y = np.tile([0, 1, 0, 1], 25)
        rho, _ = polychoric_pair(x, y)
        assert rho == pytest.approx(0.0, abs=1e-6)

    def test_perfect_concordance_clamped(self):
        x = np.repeat([0, 1], 30)
        rho, warnings = polychoric_pair(x, x.copy())
        assert rho == pytest.approx(0.999)
        assert any("boundary" in w for w in warnings)

    def test_tetrachoric_simulation(self):
        rng = np.random.default_rng(7)
        z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=20000)
        codes = (z > np.median(z, axis=0)).astype(float)
        d = make_dataset(codes, kinds=["binary", "binary"])
        c = polychoric_matrix(d)
        assert c.method == "polychoric"
        assert c.value("v0", "v1") == pytest.approx(0.5, abs=0.05)

    def test_requires_discrete_columns(self):
        d = make_dataset(np.random.default_rng(0).standard_normal((30, 2)))
        with pytest.raises(DataError):
            polychoric_matrix(d)

    def test_attenuation_beats_pearson_on_codes(self):
        # 10-level discretization of a rho=0.6 bivariate normal: the latent
        # estimate should beat Pearson-on-codes in at least 80% of seeds
        cuts = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        from scipy.stats import norm

        tau = norm.ppf(cuts)
        wins = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            z = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], size=20000)
            codes = np.column_stack([np.searchsorted(tau, z[:, 0]),
                                     np.searchsorted(tau, z[:, 1])]).astype(float)
            d = make_dataset(codes, kinds=["ordinal", "ordinal"])
            poly = polychoric_matrix(d).value("v0", "v1")
            pear = pearson_matrix(d).value("v0", "v1")
            if abs(poly - 0.6) < abs(pear - 0.6):
                wins += 1
        assert wins >= 40


class TestCorrelationMatrixType:
    def test_invariants_enforced(self):
        with pytest.raises(DataError):
            CorrelationMatrix(["a", "b"], np.array([[1.0, 2.0], [2.0, 1.0]]),
                              "pearson", 10)
        with pytest.raises(DataError):
            CorrelationMatrix(["a", "b"], np.array([[1.0, 0.5], [0.4, 1.0]]),
                              "pearson", 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            CorrelationMatrix(["a", "b"], np.array([[1.0, bad], [bad, 1.0]]), "pearson", 10)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            CorrelationMatrix(["a", "a"], np.eye(2), "pearson", 10)

    def test_exports(self):
        c = CorrelationMatrix(["a", "b"], np.array([[1.0, 0.25], [0.25, 1.0]]),
                              "pearson", 5)
        text = c.to_csv()
        assert text.startswith(",a,b\n")
        assert "0.25" in text
        d = c.to_json_dict()
        assert d["method"] == "pearson" and d["n"] == 5

    def test_auto_dispatch(self):
        rng = np.random.default_rng(3)
        cont = make_dataset(rng.standard_normal((50, 2)))
        assert correlation_matrix(cont, "auto").method == "pearson"
        disc = make_dataset((rng.standard_normal((200, 2)) > 0).astype(float),
                            kinds=["binary", "binary"])
        assert correlation_matrix(disc, "auto").method == "polychoric"

    def test_cell_order_independence(self):
        # each correlation cell depends only on its two columns
        rng = np.random.default_rng(4)
        x = (rng.standard_normal((300, 3)) > 0).astype(float)
        d3 = make_dataset(x, kinds=["binary"] * 3)
        full = polychoric_matrix(d3)
        d2 = make_dataset(x[:, [0, 2]], kinds=["binary"] * 2, names=["v0", "v2"])
        pairwise = polychoric_matrix(d2)
        assert full.matrix[0, 2] == pairwise.matrix[0, 1]

import logging
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalpath
from causalpath import polychoric
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
)
from causalpath.polychoric import polychoric_pair
from causalpath.simulate import discretize, random_scm, sample_scm

from oracles import bvn_cell_probs, polychoric_oracle


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

    def test_duplicate_header_refused(self, tmp_path):
        # a second "A" column would otherwise be dropped without a word
        f = tmp_path / "d.csv"
        f.write_text("A,B,A,C,C\n1,2,3,4,5\n")
        with pytest.raises(DataError, match=r"duplicated header names: \['A', 'C'\]"):
            load_csv(f, [VariableSchema("A", "continuous"), VariableSchema("B", "continuous")])

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with the bytes EF BB BF
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(b"a,b\n1,2\n3,4\n")
        marked.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        schema = [VariableSchema("a", "continuous"), VariableSchema("b", "continuous")]
        d, ref = load_csv(marked, schema), load_csv(plain, schema)
        assert d.names == ref.names
        assert np.array_equal(d.values, ref.values)


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

    @pytest.mark.parametrize("rule, message", [
        ({"column": "a", "dney": [-9]}, "unknown keys"),
        ({"columns": ["a"]}, "no allow"),
        ({"column": "a", "allow": ["yes"]}, "non-numeric"),
        ({"column": "a", "min": "low"}, "non-numeric"),
        ({"columns": "a", "deny": [-9]}, "list of names"),  # a string, not a list
    ])
    def test_unusable_rule_refused(self, rule, message):
        d = make_dataset([[1.0], [-9.0]], names=["a"])
        with pytest.raises(DataError, match=message) as err:
            clean(d, [rule])
        assert str(rule) in str(err.value)


def test_import_does_not_load_scipy_stats():
    # scipy.stats and scipy.optimize dominate import time; the package needs
    # neither, and networkx is for the tests' oracles only
    src = str(Path(causalpath.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import causalpath, "
            "causalpath.data, causalpath.independence, causalpath.score, "
            "causalpath.discovery, causalpath.simulate; "
            "print([m for m in ('scipy.stats', 'scipy.optimize', 'networkx') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_only_data_reads_correlation_blocks():
    # Fisher-z and BIC ask CorrelationMatrix for partial correlations and
    # residual variances, so the rule that picks the Cholesky or the
    # eigendecomposition path for a block lives in data.py alone
    package = Path(causalpath.__file__).resolve().parent
    calls = re.compile(r"\.precision\(|\beigh\b")
    found = [f"{path.relative_to(package)}:{i}"
             for path in sorted(package.rglob("*.py")) if path.name != "data.py"
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if calls.search(line)]
    assert found == []


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

    def test_overflowing_columns_refused(self):
        # r is about 0.995, but the variances overflow: refuse, never report 0
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        y = x + 0.1 * rng.standard_normal(200)
        d = make_dataset(np.column_stack([x, y]) * 1e200)
        with pytest.raises(DataError, match="non-finite"):
            pearson_matrix(d)

    def test_constant_column_zero_with_warning(self, caplog):
        d = make_dataset(np.column_stack([[1, 1, 1], [1, 2, 3]]))
        with caplog.at_level(logging.WARNING, logger="causalpath.data"):
            c = pearson_matrix(d)
        assert c.value("v0", "v1") == 0.0
        assert c.matrix[0, 0] == 1.0
        assert [r.getMessage() for r in caplog.records] == [
            "pearson correlation: constant columns set to 0: ['v0']"]


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

    def test_pair_warnings_kept_as_notes(self):
        # x = 0 never meets y = 2: only the a-b table has an empty cell
        x = np.repeat([0, 1, 2], 40)
        y = np.tile([0, 1, 2, 1], 30)
        y[(x == 0) & (y == 2)] = 1
        c = np.tile([0, 1, 1, 0, 1, 0, 0, 1], 15)
        d = make_dataset(np.column_stack([x, y, c]), kinds=["ordinal", "ordinal", "binary"],
                         names=["a", "b", "c"])
        assert polychoric_pair(x, y)[1] == ["contingency table has empty cells"]
        corr = polychoric_matrix(d)
        assert corr.notes == ["a-b: contingency table has empty cells"]
        assert corr.to_json_dict()["notes"] == corr.notes

    def test_unobserved_declared_level_noted(self):
        # no standard-normal draw passes 50, so the first column's top level
        # stays empty; the second column shows all three of its levels
        d = sample_scm(random_scm(2, 1.0, 4), 300)
        a, b = d.names
        corr = polychoric_matrix(discretize(d, {a: [0.0, 50.0], b: [-0.5, 0.5]}))
        assert [n for n in corr.notes if not n.startswith(f"{a}-{b}:")] == [
            f"{a}: 2 of 3 declared levels observed"]

    def test_corner_grid_matches_oracle(self):
        # after one sweep at random rho, each pair's non-empty cells carry
        # the oracle's probabilities for its own two columns, bit for bit,
        # and `empty` flags exactly the pairs whose own table has a zero cell
        rng = np.random.default_rng(24)
        flagged = []
        for _ in range(25):
            n, p = int(rng.integers(30, 150)), int(rng.integers(2, 6))
            cols = [rng.choice(k, size=n, p=rng.dirichlet(np.ones(k)))
                    for k in rng.integers(2, 8, size=p)]
            uniq = [np.unique(c, return_inverse=True, return_counts=True) for c in cols]
            codes = np.column_stack([u[1] for u in uniq])
            levels = np.array([len(u[0]) for u in uniq])
            thresholds = [polychoric.thresholds_from_counts(u[2]) for u in uniq]
            pi, pj = np.triu_indices(p, 1)
            fit = (levels[pi] > 1) & (levels[pj] > 1)
            pi, pj = pi[fit], pj[fit]
            lay = polychoric._Layout(codes, levels, thresholds, pi, pj)
            rho = rng.uniform(-0.95, 0.95, len(pi))
            lay.sweep(rho, np.ones(len(pi), dtype=bool))
            cdf = lay.cdf
            q11, q01, q10, q00 = lay.corners
            prob = cdf[q11] - cdf[q01] - cdf[q10] + cdf[q00]
            for k, (i, j) in enumerate(zip(pi, pj)):
                table = np.zeros((levels[i], levels[j]), dtype=int)
                np.add.at(table, (codes[:, i], codes[:, j]), 1)
                full = table > 0
                mine = lay.cell_pair == k
                expect = bvn_cell_probs(thresholds[i], thresholds[j], rho[k])[full]
                assert (prob[mine] == expect).all()
                assert (lay.count[mine] == table[full]).all()
                assert lay.empty[k] == (not full.all())
                flagged.append(lay.empty[k])
        assert any(flagged) and not all(flagged)

    @pytest.mark.parametrize("levels", [2, 3, 6])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_concordant_tables_clamped(self, levels, sign):
        x = np.repeat(np.arange(levels), 20)
        rho, warnings = polychoric_pair(x, x if sign > 0 else levels - 1 - x)
        assert rho == sign * 0.999
        assert warnings == ["contingency table has empty cells",
                            f"boundary estimate clamped to {sign * 0.999:+.3f}"]

    def test_reaches_oracle_maximum(self):
        # 200 random tables, 2-6 levels a side, n = 40-1500; each estimate
        # reaches the independent maximizer's log likelihood to 1e-9, or is
        # clamped with that maximum in the clamp zone
        rng = np.random.default_rng(2208)
        seen = {"empty": 0, "strong": 0, "negative": 0}
        tables = 0
        while tables < 200:
            lx, ly = rng.integers(2, 7, size=2)
            r = rng.choice([-1.0, 1.0]) * (rng.uniform(0.95, 0.995) if tables % 3 == 0
                                          else rng.uniform(0.0, 0.95))
            z = rng.multivariate_normal([0, 0], [[1, r], [r, 1]], size=rng.integers(40, 1500))
            x = np.searchsorted(np.sort(rng.normal(0, 1, lx - 1)), z[:, 0])
            y = np.searchsorted(np.sort(rng.normal(0, 1, ly - 1)), z[:, 1])
            if len(np.unique(x)) < 2 or len(np.unique(y)) < 2:
                continue
            tables += 1
            rho, warnings = polychoric_pair(x, y)
            best, loglik = polychoric_oracle(x, y)
            clamped = any("boundary" in w for w in warnings)
            assert not any("convergence" in w for w in warnings)
            assert clamped or abs(best) < polychoric._CLAMP + 1e-6, (rho, best)
            if not (clamped and abs(best) >= polychoric._CLAMP - 1e-6):
                # a likelihood flat to rounding past some rho clamps as well
                assert loglik(rho) >= loglik(best) - 1e-9, (rho, best)
            seen["empty"] += "contingency table has empty cells" in warnings
            seen["strong"] += abs(best) > 0.95
            seen["negative"] += best < 0
        assert min(seen.values()) >= 20, seen

    def test_sweep_cap_reported(self, monkeypatch, caplog):
        monkeypatch.setattr(polychoric, "_MAX_SWEEPS", 2)
        rng = np.random.default_rng(8)
        z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=400)
        codes = np.column_stack([np.searchsorted([-0.5, 0.3, 1.0], z[:, 0]),
                                 np.searchsorted([-0.2, 0.6], z[:, 1])])
        with caplog.at_level(logging.WARNING, logger="causalpath.polychoric"):
            rho, warnings = polychoric_pair(codes[:, 0], codes[:, 1])
        assert warnings == ["no convergence after 2 sweeps"]
        assert "polychoric: no convergence after 2 sweeps" in caplog.messages
        corr = polychoric_matrix(make_dataset(codes, kinds=["ordinal", "ordinal"]))
        assert corr.notes == ["v0-v1: no convergence after 2 sweeps"]
        assert corr.value("v0", "v1") == rho

    def test_indefinite_matrix_noted(self, caplog):
        # binarized random_scm(8, 0.6, s, weight_range=(0.8, 1.5)) at n = 80 is
        # indefinite on every seed
        for seed in range(40):
            d = sample_scm(random_scm(8, 0.6, seed, weight_range=(0.8, 1.5)), 80)
            d = discretize(d, {v: [0.0] for v in d.names})
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="causalpath.data"):
                corr = polychoric_matrix(d)
            low = np.linalg.eigvalsh(corr.matrix).min()
            note = f"matrix indefinite: min eigenvalue {low:.4g}"
            assert low < 0
            assert [n for n in corr.notes if "indefinite" in n] == [note]
            assert [r.getMessage() for r in caplog.records
                    if r.name == "causalpath.data"] == [f"polychoric: {note}"]

    def test_positive_definite_matrix_not_noted(self):
        rng = np.random.default_rng(9)
        z = rng.multivariate_normal(np.zeros(3), 0.5 * np.eye(3) + 0.5, size=2000)
        corr = polychoric_matrix(make_dataset(np.searchsorted([-0.4, 0.5], z),
                                              kinds=["ordinal"] * 3))
        assert np.linalg.eigvalsh(corr.matrix).min() > 0
        assert not [n for n in corr.notes if "indefinite" in n]

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

    @pytest.mark.parametrize("n", [0, -5, np.nan])
    def test_sample_size_below_one_refused(self, n):
        # n = 0 reached BIC's log(n), and FGES returned infinite scores
        with pytest.raises(DataError, match="sample size"):
            CorrelationMatrix(["a", "b"], np.eye(2), "pearson", n)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            CorrelationMatrix(["a", "a"], np.eye(2), "pearson", 10)

    def test_exports(self):
        c = CorrelationMatrix(["a", "b"], np.array([[1.0, 0.25], [0.25, 1.0]]),
                              "pearson", 5)
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

    def test_cell_order_independence_mixed_levels(self):
        # 2-, 4- and 6-level columns: each pair's own corner grid keeps
        # every cell a function of its own two columns, bit for bit
        rng = np.random.default_rng(12)
        z = rng.multivariate_normal(np.zeros(6), 0.4 * np.eye(6) + 0.6, size=150)
        levels = [2, 4, 6, 2, 4, 6]
        x = np.column_stack([np.searchsorted(np.linspace(-1.2, 1.2, k - 1), z[:, j])
                             for j, k in enumerate(levels)]).astype(float)
        kinds = ["binary" if k == 2 else "ordinal" for k in levels]
        full = polychoric_matrix(make_dataset(x, kinds=kinds))
        assert any("empty cells" in n for n in full.notes)
        for i in range(6):
            for j in range(i + 1, 6):
                two = polychoric_matrix(make_dataset(x[:, [i, j]], kinds=[kinds[i], kinds[j]]))
                assert full.matrix[i, j] == two.matrix[0, 1] == polychoric_pair(x[:, i], x[:, j])[0]

import json
from itertools import combinations

import numpy as np
import pytest

from causalpath.graph import (
    ARROW,
    CIRCLE,
    TAIL,
    BackgroundKnowledge,
    GraphError,
    MixedGraph,
    NoExtensionError,
    apply_meek_rules,
    consistent_extension,
    cpdag_of,
    is_dag,
    structural_hamming_distance,
)

from oracles import (
    _pdag_vstructures,
    build_dag,
    compelled_orientations,
    consistent_extensions_bruteforce,
    cpdag_bruteforce,
    d_separated_bruteforce,
    enumerate_dags,
    has_cycle_dfs,
    knowledge_violations,
    oracle_ci,
    random_dag_edges,
)


def chain():
    g = MixedGraph(["A", "B", "C"])
    g.add_directed("A", "B")
    g.add_directed("B", "C")
    return g


def collider():
    g = MixedGraph(["A", "B", "C"])
    g.add_directed("A", "B")
    g.add_directed("C", "B")
    return g


class TestMixedGraph:
    def test_marks_and_queries(self):
        g = MixedGraph(["a", "b", "c"], kind="pag")
        g.add_edge("a", "b", CIRCLE, ARROW)
        g.add_bidirected("b", "c")
        assert g.mark_at("a", "b") == CIRCLE
        assert g.mark_at("b", "a") == ARROW
        assert g.is_bidirected("b", "c")
        assert not g.is_directed("a", "b")
        assert g.adjacent("b") == ["a", "c"]

    def test_one_edge_per_pair_and_no_self_loops(self):
        g = MixedGraph(["a", "b"])
        g.add_directed("a", "b")
        with pytest.raises(GraphError):
            g.add_directed("b", "a")
        with pytest.raises(GraphError):
            g.add_directed("a", "a")

    def test_json_export_parses(self):
        g = chain()
        data = json.loads(json.dumps(g.to_json_dict()))
        assert data["nodes"] == ["A", "B", "C"]
        assert len(data["edges"]) == 2

    def test_equality_ignores_node_order(self):
        g1 = MixedGraph(["a", "b"])
        g1.add_directed("a", "b")
        g2 = MixedGraph(["b", "a"])
        g2.add_directed("a", "b")
        assert g1 == g2

    def test_equality_ignores_insertion_order(self):
        g1 = MixedGraph(["a", "b", "c"], "pag")
        g1.add_edge("a", "b", CIRCLE, ARROW)
        g1.add_undirected("b", "c")
        g2 = MixedGraph(["c", "b", "a"], "pag")
        g2.add_undirected("c", "b")
        g2.add_edge("b", "a", ARROW, CIRCLE)
        assert g1 == g2
        g2.set_mark("a", "b", TAIL)
        assert g1 != g2
        with pytest.raises(TypeError):  # mutable, so not hashable
            hash(g1)

    def test_copy_is_independent(self):
        g = collider()
        h = g.copy()
        h.set_mark("A", "B", CIRCLE)
        h.remove_edge("C", "B")
        h.add_undirected("A", "C")
        assert g == collider()
        assert g.mark_at("A", "B") == TAIL and not g.has_edge("A", "C")

    def test_missing_edge_raises(self):
        g = chain()
        for call in (lambda: g.mark_at("A", "C"), lambda: g.set_mark("A", "C", TAIL),
                     lambda: g.remove_edge("A", "C"), lambda: g.mark_at("A", "Z")):
            with pytest.raises(GraphError):
                call()

    def test_all_mark_pairs_roundtrip(self):
        pairs = [(ma, mb) for ma in (TAIL, ARROW, CIRCLE) for mb in (TAIL, ARROW, CIRCLE)]
        nodes = [f"v{i}" for i in range(2 * len(pairs))]
        g = MixedGraph(nodes, "pag")
        expected = []
        for k, (ma, mb) in enumerate(pairs):
            a, b = nodes[2 * k], nodes[2 * k + 1]
            if k % 2:
                g.add_edge(b, a, mb, ma)
            else:
                g.add_edge(a, b, ma, mb)
            expected.append((a, b, ma, mb))
        assert g.edges() == sorted(expected)
        assert [(e["a"], e["b"], e["mark_a"], e["mark_b"])
                for e in g.to_json_dict()["edges"]] == sorted(expected)


class TestIsDag:
    def test_empty_graph(self):
        assert is_dag(MixedGraph(["A", "B", "C"]))

    def test_two_cycle_rejected(self):
        # A->B plus B->A cannot even be built (one edge per pair); check a
        # 3-cycle instead plus the direct mark check
        g = MixedGraph(["A", "B", "C"])
        g.add_directed("A", "B")
        g.add_directed("B", "C")
        g.add_directed("C", "A")
        assert not is_dag(g)

    def test_undirected_edge_disqualifies(self):
        g = MixedGraph(["A", "B"])
        g.add_undirected("A", "B")
        assert not is_dag(g)

    def test_against_dfs_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(2, 8))
            nodes = [f"X{i:02d}" for i in range(p)]
            # arbitrary directed graphs, not necessarily acyclic
            edges = []
            built = MixedGraph(nodes)
            for a, b in combinations(nodes, 2):
                r = rng.random()
                if r < 0.25:
                    built.add_directed(a, b)
                    edges.append((a, b))
                elif r < 0.5:
                    built.add_directed(b, a)
                    edges.append((b, a))
            assert is_dag(built) == (not has_cycle_dfs(nodes, edges))


def oracle_sep(g, x, y, z=()):
    return oracle_ci(g)(x, y, z).independent


class TestDSeparation:
    """The CI oracle behind the PC and FCI oracle tests."""

    def test_chain_blocked_by_middle(self):
        assert oracle_sep(chain(), "A", "C", ["B"])
        assert not oracle_sep(chain(), "A", "C")

    def test_collider_opens_when_conditioned(self):
        g = collider()
        assert oracle_sep(g, "A", "C")
        assert not oracle_sep(g, "A", "C", ["B"])

    def test_collider_descendant_opens_path(self):
        g = MixedGraph(["A", "B", "C", "D"])
        g.add_directed("A", "B")
        g.add_directed("C", "B")
        g.add_directed("B", "D")
        assert not oracle_sep(g, "A", "C", ["D"])

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            p = int(rng.integers(3, 8))
            nodes, edges = random_dag_edges(p, float(rng.choice([0.2, 0.4, 0.6])), rng)
            g = build_dag(nodes, edges)
            oracle = oracle_ci(g)
            names = sorted(nodes)
            for x, y in combinations(names, 2):
                rest = [v for v in names if v not in (x, y)]
                for r in range(min(3, len(rest)) + 1):
                    for zs in combinations(rest, r):
                        sep = oracle(x, y, zs).independent
                        assert sep == d_separated_bruteforce(g, x, y, zs), (edges, x, y, zs)


class TestMeekRules:
    def test_rule1_example(self):
        g = MixedGraph(["A", "B", "C"], "cpdag")
        g.add_directed("A", "B")
        g.add_undirected("B", "C")
        out = apply_meek_rules(g)
        assert out.is_directed("B", "C")

    def test_undirected_triangle_unchanged(self):
        g = MixedGraph(["A", "B", "C"], "cpdag")
        g.add_undirected("A", "B")
        g.add_undirected("B", "C")
        g.add_undirected("A", "C")
        assert apply_meek_rules(g) == g

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = int(rng.integers(3, 7))
            nodes, edges = random_dag_edges(p, 0.4, rng)
            pattern = cpdag_of(build_dag(nodes, edges))
            closed = apply_meek_rules(pattern)
            assert apply_meek_rules(closed) == closed
            for a, b in pattern.directed_edges():
                assert closed.is_directed(a, b)

    def test_matches_extension_enumeration(self):
        # the oriented edges after closure are exactly those shared by all
        # consistent DAG extensions of the v-structure pattern
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = int(rng.integers(3, 6))
            nodes, edges = random_dag_edges(p, 0.5, rng)
            dag = build_dag(nodes, edges)
            pattern = MixedGraph(sorted(nodes), "cpdag")
            for a, b, _, _ in dag.edges():
                pattern.add_undirected(a, b)
            for v in nodes:
                for x, y in combinations(sorted(dag.parents(v)), 2):
                    if not dag.has_edge(x, y):
                        pattern.orient(x, v)
                        pattern.orient(y, v)
            closed = apply_meek_rules(pattern)
            oracle = compelled_orientations(pattern)
            for pair, compelled in oracle.items():
                a, b = pair
                if compelled is None:
                    assert closed.is_undirected(a, b)
                else:
                    assert closed.is_directed(*compelled)

    def test_forbidden_orientation_skipped(self):
        # rule 1 compels B -> C, which is forbidden, and D -> E, which makes
        # the rules run again and meet B -> C again: it is reported once
        g = MixedGraph(["A", "B", "C", "D", "E"], "cpdag")
        g.add_directed("A", "B")
        g.add_undirected("B", "C")
        g.add_directed("A", "D")
        g.add_undirected("D", "E")
        bk = BackgroundKnowledge(forbidden=[("B", "C")])
        conflicts = []
        out = apply_meek_rules(g, bk, conflicts)
        assert out.is_undirected("B", "C")
        assert out.is_directed("D", "E")
        assert conflicts == ["meek: orientation B->C forbidden by knowledge; skipped"]


class TestCpdagOf:
    def test_chain_is_fully_undirected(self):
        c = cpdag_of(chain())
        assert c.is_undirected("A", "B") and c.is_undirected("B", "C")

    def test_collider_is_compelled(self):
        c = cpdag_of(collider())
        assert c.is_directed("A", "B") and c.is_directed("C", "B")

    def test_matches_equivalence_class_union_p4(self):
        nodes = ["X00", "X01", "X02", "X03"]
        count = 0
        for edges in enumerate_dags(nodes):
            count += 1
            if count % 7:  # subsample for speed; still covers 78 DAGs
                continue
            assert cpdag_of(build_dag(nodes, edges)) == cpdag_bruteforce(nodes, edges)

    def test_knowledge_wins_over_compelled_orientation(self):
        # a -> c <- b compels c -> d by Meek's rule 1, but the tiers put d
        # before c: the knowledge orients d -> c before any rule runs
        dag = build_dag(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")])
        bk = BackgroundKnowledge(tiers=[["d"], ["a", "b", "c"]])
        conflicts = []
        c = cpdag_of(dag, bk, conflicts)
        assert knowledge_violations(c, bk) == []
        assert c.directed_edges() == [("a", "c"), ("b", "c"), ("d", "c")]
        assert conflicts == []

    def test_knowledge_never_broken(self):
        # random knowledge, independent of the DAG: tiers and required edges
        # (on the skeleton) along one permutation, random forbidden pairs
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(3, 9))
            nodes, edges = random_dag_edges(p, 0.5, rng)
            perm = [str(v) for v in rng.permutation(nodes)]
            rank = {v: i for i, v in enumerate(perm)}
            cut = sorted(rng.choice(np.arange(1, p), size=min(2, p - 1), replace=False))
            tiers = [perm[i:j] for i, j in zip([0, *cut], [*cut, p])] if rng.random() < 0.7 else []
            required = [tuple(sorted(e, key=rank.get)) for e in edges if rng.random() < 0.2]
            forbidden = [(a, b) for a in nodes for b in nodes
                         if a != b and (a, b) not in required and rng.random() < 0.1]
            bk = BackgroundKnowledge(tiers, forbidden, required)
            c = cpdag_of(build_dag(nodes, edges), bk, [])
            assert knowledge_violations(c, bk) == [], (edges, tiers, forbidden, required)

    def test_complete_under_knowledge(self):
        # Meek (1995): when the knowledge raises no conflict and some DAG of
        # the class satisfies it, an edge is directed exactly when every such
        # DAG directs it that way
        rng = np.random.default_rng(17)
        qualified = 0
        for _ in range(400):
            p = int(rng.integers(3, 7))
            nodes, edges = random_dag_edges(p, 0.5, rng)
            perm = [str(v) for v in rng.permutation(nodes)]
            rank = {v: i for i, v in enumerate(perm)}
            cut = int(rng.integers(1, p))
            tiers = [perm[:cut], perm[cut:]] if rng.random() < 0.5 else []
            required = [tuple(sorted(e, key=rank.get)) for e in edges if rng.random() < 0.15]
            forbidden = [(a, b) for a in nodes for b in nodes
                         if a != b and (a, b) not in required and rng.random() < 0.1]
            bk = BackgroundKnowledge(tiers, forbidden, required)
            conflicts = []
            dag = build_dag(nodes, edges)
            c = cpdag_of(dag, bk, conflicts)
            members = [set(m) for m in consistent_extensions_bruteforce(cpdag_of(dag))
                       if not any(bk.is_forbidden(a, b) for a, b in m)
                       and all((a, b) in m for a, b in required)]
            if conflicts or not members:
                continue
            qualified += 1
            for a, b, _, _ in c.edges():
                for u, v in ((a, b), (b, a)):
                    assert c.is_directed(u, v) == all((u, v) in m for m in members), \
                        (edges, tiers, forbidden, required, (u, v))
        assert qualified >= 150

    def test_same_cpdag_iff_same_dsep_statements(self):
        # exhaustive over all DAGs on 3 nodes
        from oracles import all_dsep_statements

        nodes = ["X00", "X01", "X02"]
        dags = [build_dag(nodes, e) for e in enumerate_dags(nodes)]
        assert len(dags) == 25
        cpdags = [cpdag_of(g) for g in dags]
        dseps = [frozenset(all_dsep_statements(g)) for g in dags]
        for i in range(len(dags)):
            for j in range(i + 1, len(dags)):
                assert (cpdags[i] == cpdags[j]) == (dseps[i] == dseps[j])


class TestConsistentExtension:
    def test_single_undirected_edge_tiebreak(self):
        g = MixedGraph(["A", "B"], "cpdag")
        g.add_undirected("A", "B")
        assert consistent_extension(g).is_directed("A", "B")

    def test_vstructure_passthrough(self):
        c = cpdag_of(collider())
        assert consistent_extension(c) == collider()

    def test_roundtrip_property(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            p = int(rng.integers(2, 8))
            nodes, edges = random_dag_edges(p, 0.4, rng)
            c = cpdag_of(build_dag(nodes, edges))
            ext = consistent_extension(c)
            assert is_dag(ext)
            assert cpdag_of(ext) == c

    def test_no_extension_reports_node(self):
        # a chordless undirected 4-cycle: every acyclic orientation creates a
        # new v-structure at some corner, so no consistent extension exists
        g = MixedGraph(["A", "B", "C", "D"], "cpdag")
        g.add_undirected("A", "B")
        g.add_undirected("B", "C")
        g.add_undirected("C", "D")
        g.add_undirected("D", "A")
        with pytest.raises(NoExtensionError) as err:
            consistent_extension(g)
        assert err.value.node == "A"  # the smallest node left unpeeled

    def test_directed_cycle_has_no_extension(self):
        g = MixedGraph(["A", "B", "C"], "cpdag")
        g.add_directed("A", "B")
        g.add_directed("B", "C")
        g.add_directed("C", "A")
        with pytest.raises(NoExtensionError):
            consistent_extension(g)

    def test_pdag_with_extra_directed_edges(self):
        # CPDAGs and bare skeletons with some undirected edges directed either
        # way, as knowledge and FGES operators leave them: an extension exists
        # exactly when the brute force finds one, and it is a DAG on the same
        # skeleton that keeps every directed edge and the input's v-structures.
        # `cpdag_of` reads the class off the PDAG itself, also under random
        # tiers and forbidden pairs, and refuses at the node that
        # `consistent_extension` names
        rng = np.random.default_rng(29)
        krng = np.random.default_rng(31)
        extended = refused = 0
        for i in range(300):
            p = int(rng.integers(3, 7))
            nodes, edges = random_dag_edges(p, 0.5, rng)
            g = cpdag_of(build_dag(nodes, edges))
            if i % 2:  # the bare skeleton instead, for PDAGs no CPDAG leads to
                g = MixedGraph(nodes, "cpdag")
                for a, b in edges:
                    g.add_undirected(a, b)
            for a, b, ma, mb in g.edges():
                if (ma, mb) == (TAIL, TAIL) and rng.random() < 0.4:
                    g.orient(*((a, b) if rng.random() < 0.5 else (b, a)))
            perm = [str(v) for v in krng.permutation(nodes)]
            cut = int(krng.integers(1, p))
            bk = BackgroundKnowledge(
                tiers=[perm[:cut], perm[cut:]] if krng.random() < 0.5 else [],
                forbidden=[(a, b) for a in nodes for b in nodes if a != b and krng.random() < 0.1])
            exts = consistent_extensions_bruteforce(g)
            if not exts:
                with pytest.raises(NoExtensionError) as err:
                    consistent_extension(g)
                for knowledge in (None, bk):
                    with pytest.raises(NoExtensionError) as again:
                        cpdag_of(g, knowledge, [])
                    assert again.value.node == err.value.node
                refused += 1
                continue
            assert cpdag_of(g) == cpdag_bruteforce(nodes, exts[0])
            ext = consistent_extension(g)
            mine, theirs = [], []
            assert cpdag_of(g, bk, mine) == cpdag_of(ext, bk, theirs)
            assert mine == theirs
            extended += 1
            ext.validate()
            assert is_dag(ext)
            assert {frozenset(e[:2]) for e in ext.edges()} == \
                {frozenset(e[:2]) for e in g.edges()}
            assert set(g.directed_edges()) <= set(ext.directed_edges())
            assert _pdag_vstructures(ext) == _pdag_vstructures(g)
        assert extended >= 200 and refused >= 20


class TestShd:
    def test_identical(self):
        assert structural_hamming_distance(chain(), chain()) == 0

    def test_flipped_edge(self):
        g1 = MixedGraph(["A", "B"])
        g1.add_directed("A", "B")
        g2 = MixedGraph(["A", "B"])
        g2.add_directed("B", "A")
        assert structural_hamming_distance(g1, g2) == 1

    def test_missing_edge(self):
        g1 = MixedGraph(["A", "B", "C"])
        g1.add_directed("A", "B")
        assert structural_hamming_distance(g1, chain()) == 1

    def test_node_mismatch(self):
        with pytest.raises(GraphError):
            structural_hamming_distance(chain(), MixedGraph(["A", "B"]))


class TestBackgroundKnowledge:
    def test_tier_forbids_backward(self):
        bk = BackgroundKnowledge(tiers=[["a"], ["b"]])
        assert bk.is_forbidden("b", "a")
        assert not bk.is_forbidden("a", "b")

    def test_required_forbidden_overlap_rejected(self):
        with pytest.raises(GraphError):
            BackgroundKnowledge(forbidden=[("a", "b")], required=[("a", "b")])

    def test_required_cycle_rejected(self):
        with pytest.raises(GraphError):
            BackgroundKnowledge(required=[("a", "b"), ("b", "a")])

    def test_violation_audit(self):
        g = MixedGraph(["a", "b", "c"])
        g.add_directed("b", "a")
        bk = BackgroundKnowledge(tiers=[["a"], ["b"]], required=[("a", "c")])
        v = knowledge_violations(g, bk)
        assert any("forbidden" in s for s in v)
        assert any("required" in s for s in v)

"""Tests of the benchmark's output checks: each accepts the program's output
on tiny inputs and rejects a corrupted copy.

    python -m pytest -q bench
"""
import json
import logging

import numpy as np
import pytest

import checks
import workloads
from causalpath import ARROW, TAIL, BackgroundKnowledge, MixedGraph
from causalpath.data import pearson_matrix, polychoric_matrix
from causalpath.discovery import DiscoveryConfig, direct_lingam, fci, fges, pc
from causalpath.independence import GSquaredTest
from causalpath.simulate import discretize, sample_scm, standardized_scm
from pipeline import run_replicate

CFG = DiscoveryConfig()


def collider_dag():
    """A0 -> C <- B0, C -> D, B0 -> D: A0 and B0 are marginally independent."""
    g = MixedGraph(["A0", "B0", "C", "D"], "dag")
    for a, b in (("A0", "C"), ("B0", "C"), ("C", "D"), ("B0", "D")):
        g.add_directed(a, b)
    return g


@pytest.fixture(scope="module")
def continuous():
    spec = standardized_scm(collider_dag(), 3, noise="uniform", weight_range=(0.5, 0.8))
    data = sample_scm(spec, 2000)
    return data, pearson_matrix(data)


@pytest.fixture(scope="module")
def ordinal():
    spec = standardized_scm(collider_dag(), 5, weight_range=(0.5, 0.8))
    data = sample_scm(spec, 2000)
    cuts = {v: [-0.8, 0.1, 0.9] for v in data.names}
    return discretize(data, cuts)


def _copy_with(g, a, b, marks):
    out = g.copy()
    if out.has_edge(a, b):
        out.remove_edge(a, b)
    out.add_edge(a, b, *marks)
    return out


def test_fisher_z_checks_accept_pc_and_fci(continuous):
    _, corr = continuous
    fz = checks.FisherZ(corr)
    record = {}
    g = pc(corr, CFG, None, record)
    assert checks.check_adjacencies("pc", g, fz, CFG.alpha, None) == []
    assert checks.check_sepsets("pc", g, record, fz, CFG.alpha) == []
    assert checks.check_adjacencies("fci", fci(corr, CFG), fz, CFG.alpha, None) == []


def test_fisher_z_checks_reject_added_edge_and_wrong_sepset(continuous):
    _, corr = continuous
    fz = checks.FisherZ(corr)
    record = {}
    g = pc(corr, CFG, None, record)
    assert not g.has_edge("A0", "B0")
    bad = _copy_with(g, "A0", "B0", (TAIL, TAIL))
    assert checks.check_adjacencies("pc", bad, fz, CFG.alpha, None)
    wrong = dict(record, sepsets=dict(record["sepsets"], **{"A0,B0": ["C"]}))
    assert checks.check_sepsets("pc", g, wrong, fz, CFG.alpha)


def test_g2_checks_accept_program_and_reject_added_edge(ordinal):
    g2 = checks.GSquared(ordinal, CFG.alpha)
    record = {}
    g = pc(GSquaredTest(ordinal), CFG, None, record)
    assert checks.check_adjacencies("g2", g, g2, CFG.alpha, None) == []
    assert checks.check_sepsets("g2", g, record, g2, CFG.alpha) == []
    assert g2.failures == []
    assert checks.check_adjacencies("g2", _copy_with(g, "A0", "B0", (TAIL, TAIL)),
                                    g2, CFG.alpha, None)


def test_g2_statistic_matches_program_without_empty_cells(ordinal):
    g2 = checks.GSquared(ordinal, CFG.alpha)
    res = GSquaredTest(ordinal)("A0", "D", ("C",))
    assert g2.statistic("A0", "D", ("C",)) == pytest.approx(res.statistic, rel=1e-9)


def test_fges_check_accepts_program_and_rejects_flip_and_score(continuous):
    _, corr = continuous
    record = {}
    g = fges(corr, CFG, None, record)
    assert checks.check_fges(g, record, corr, CFG) == []
    assert checks.check_fges(g, dict(record, total_score=record["total_score"] + 1.0),
                             corr, CFG)
    a, b = next(iter(g.directed_edges()))
    assert checks.check_fges(_copy_with(g, b, a, (TAIL, ARROW)), record, corr, CFG)


def test_lingam_check_accepts_program_and_rejects_weight_and_flip(continuous):
    data, _ = continuous
    record = {}
    g = direct_lingam(data, CFG, None, record)
    assert checks.check_lingam(g, record, data, CFG, None) == []
    a, b = g.directed_edges()[0]
    perturbed = g.copy()
    perturbed.set_weight(a, b, g.weight(a, b) + 1e-3)
    assert checks.check_lingam(perturbed, record, data, CFG, None)
    flipped = g.copy()
    flipped.remove_edge(a, b)
    flipped.add_directed(b, a, weight=g.weight(a, b))
    assert checks.check_lingam(flipped, record, data, CFG, None)


def test_tier_check_rejects_backward_edges():
    bk = BackgroundKnowledge(tiers=[["A0", "B0"], ["C", "D"]])
    dag = collider_dag()
    assert checks.check_tiers("dag", dag, bk) == []
    assert checks.check_tiers("dag", _copy_with(dag, "C", "A0", (TAIL, ARROW)), bk)
    assert checks.check_tiers("dag", _copy_with(dag, "A0", "C", (TAIL, TAIL)), bk)
    pag = MixedGraph(dag.nodes, "pag")
    pag.add_edge("A0", "C", "circle", ARROW)
    assert checks.check_tiers("pag", pag, bk) == []
    pag.set_mark("C", "A0", "circle")
    assert checks.check_tiers("pag", pag, bk)


def test_fci_respects_tiers(continuous):
    _, corr = continuous
    bk = BackgroundKnowledge(tiers=[["A0", "B0"], ["C", "D"]])
    assert checks.check_tiers("fci", fci(corr, CFG, bk), bk) == []


def test_polychoric_check_accepts_program_and_rejects_perturbed_rho(ordinal):
    corr = polychoric_matrix(ordinal)
    assert checks.check_polychoric(ordinal, corr, seed=1) == []
    m = corr.matrix.copy()
    m += 0.02 * (1 - np.eye(len(m)))
    shifted = type(corr)(corr.names, np.clip(m, -1, 1), corr.method, corr.n)
    assert checks.check_polychoric(ordinal, shifted, seed=1)


def test_oracle_pc_matches_generating_dag():
    assert checks.check_oracle_pc(collider_dag()) == []


def test_v_structures_and_extension_of_a_cpdag():
    dag = collider_dag()
    assert checks.v_structures(dag) == {("A0", "C", "B0")}
    ext = checks.dag_extension(dag)
    assert ext == {"A0": set(), "B0": set(), "C": {"A0", "B0"}, "D": {"C", "B0"}}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pipeline_output_passes_every_check(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SURVEY_ROWS", 400)
    monkeypatch.setattr(workloads, "WIDE_ROWS", 300)
    monkeypatch.setitem(workloads.REPLICATES, name, 1)
    w = workloads.make_workload(name, 11, tmp_path)
    rep = w.replicates[0]
    _, out = run_replicate(w, rep)
    assert checks.check_replicate(w, rep, out, 11) == []

    tampered = rep.expected.copy()
    tampered[0, 0] += 1.0
    corrupt = workloads.Replicate(rep.csv_path, tampered, rep.rows_written)
    assert checks.check_replicate(w, corrupt, out, 11)


def test_traced_pass_reports_every_per_layer_metric(tmp_path, monkeypatch):
    import run
    from tracing import LogCounter, Tracer

    monkeypatch.setattr(workloads, "SURVEY_ROWS", 300)
    monkeypatch.setitem(workloads.REPLICATES, "survey-ordinal", 1)
    w = workloads.make_workload("survey-ordinal", 3, tmp_path)
    log = logging.getLogger("causalpath")
    monkeypatch.setattr(log, "propagate", log.propagate)
    monkeypatch.setattr(log, "level", log.level)
    logs = LogCounter().install()
    try:
        tracer = Tracer()
        _, outs = run._pass(w, tracer)
    finally:
        log.removeHandler(logs)
    m = run._layer_metrics(tracer, outs, dict(logs.counts))
    assert set(m) | {"trace.overhead"} == set(run.PER_LAYER)
    assert m["polychoric.pairs"] == 120
    assert m["independence.g2.calls"] > 0
    assert m["discovery.fci.ci_calls"] == (m["independence.fisher_z.calls"]
                                           - m["discovery.pc.ci_calls"]
                                           + m["independence.g2.calls"])
    assert m["discovery.fci.pds_ci_calls"] >= 0
    assert m["score.evaluations"] == m["discovery.fges.score_evaluations"]
    assert 0.0 < m["score.hit_ratio"] < 1.0
    tracer.write(tmp_path / "trace.json")
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]


def test_benchmark_json_lists_every_metric():
    import run

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)

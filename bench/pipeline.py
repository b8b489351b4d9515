"""The paper's pipeline on one replicate: CSV -> clean -> correlations ->
PC, FCI, FGES and DirectLiNGAM (plus PC with G^2 on ordinal data).

Only public causalpath functions are called. With a tracer, the CI tester
and the scorer are the benchmark's counting wrappers (``as_citester`` and
``as_scorer`` pass them through); without one, the algorithms get the
correlation matrix and build their own, as a user's call would.
"""
from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from causalpath import consistent_extension, cpdag_of
from causalpath.data import clean, load_csv, pearson_matrix, polychoric_matrix
from causalpath.discovery import DiscoveryConfig, direct_lingam, fci, fges, pc
from causalpath.independence import FisherZTest, GSquaredTest

from tracing import CountingTester, TracedScorer

STAGES = ("prepare_s", "pc_s", "fci_s", "fges_s", "lingam_s", "pipeline_s")
REBUILD_REPEATS = 5


def _span(tr, name):
    return nullcontext(None) if tr is None else tr.span(name)


def _fisher_z(tr, sp, corr, alpha):
    if tr is None:
        return corr
    return tr.probe(sp, CountingTester("fisher_z", FisherZTest(corr, alpha)))


def _lap(times, key, mark):
    now = perf_counter()
    times[key] = now - mark
    return now


def run_replicate(w, rep, tr=None):
    """Run every stage once; returns (stage seconds, outputs for the checks)."""
    cfg = DiscoveryConfig(max_cond_size=w.max_cond_size)
    bk = w.knowledge
    times, out = {}, {}
    start = perf_counter()

    with _span(tr, "data.load_csv"):
        raw = load_csv(rep.csv_path, w.schema)
    with _span(tr, "data.clean"):
        data = clean(raw, w.schema.cleaning)
    if w.correlation == "polychoric":
        with _span(tr, "polychoric.matrix"):
            corr = polychoric_matrix(data)
    else:
        with _span(tr, "data.pearson"):
            corr = pearson_matrix(data)
    mark = _lap(times, "prepare_s", start)

    out["pc"] = {}
    with _span(tr, "discovery.pc") as sp:
        out["pc"]["graph"] = pc(_fisher_z(tr, sp, corr, cfg.alpha), cfg, bk, out["pc"])
    if w.correlation == "polychoric":
        out["pc_g2"] = {}
        if tr is not None:
            levels = {v: len(np.unique(data.column(v))) for v in data.names}
        with _span(tr, "discovery.pc") as sp:
            g2 = GSquaredTest(data, cfg.alpha)
            if tr is not None:
                g2 = tr.probe(sp, CountingTester("g2", g2, levels))
            out["pc_g2"]["graph"] = pc(g2, cfg, bk, out["pc_g2"])
    mark = _lap(times, "pc_s", mark)

    out["fci"] = {}
    with _span(tr, "discovery.fci") as sp:
        out["fci"]["graph"] = fci(_fisher_z(tr, sp, corr, cfg.alpha), cfg, bk, out["fci"])
    mark = _lap(times, "fci_s", mark)

    out["fges"] = {}
    with _span(tr, "discovery.fges") as sp:
        scorer = corr if tr is None else tr.probe(sp, TracedScorer(corr, cfg.penalty_discount))
        out["fges"]["graph"] = fges(scorer, cfg, bk, out["fges"])
    mark = _lap(times, "fges_s", mark)

    out["lingam"] = {}
    with _span(tr, "discovery.lingam"):
        out["lingam"]["graph"] = direct_lingam(data, cfg, bk, out["lingam"])
    end = _lap(times, "lingam_s", mark)
    times["pipeline_s"] = end - start

    if tr is not None:
        tr.count("data.cells", raw.n * raw.p)
        tr.count("data.rows_dropped", raw.n - data.n)
        if w.correlation == "polychoric":
            tr.count("polychoric.pairs", data.p * (data.p - 1) // 2)
        cpdag = out["fges"]["graph"]
        for _ in range(REBUILD_REPEATS):
            with _span(tr, "graph.rebuild"):
                cpdag_of(consistent_extension(cpdag))

    out.update(raw=raw, data=data, corr=corr, cfg=cfg)
    return times, out

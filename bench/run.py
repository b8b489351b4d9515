"""Benchmark for causalpath: the paper's pipeline on generated survey data.

    python3 bench/run.py --workload survey-ordinal --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory. Set-up generates the workload's CSV files under
`bench_out/`; the measured window then runs the pipeline on the replicates
in turn, round after round, and each end-to-end metric is the time of one
pass estimated from each replicate's median (`_pass_estimate`). With
`--trace 1` half of the window runs untraced and the rest runs whole traced
passes, and the per-layer metrics (plus the tracing overhead) are reported
instead. Outputs are checked after the window closes. The last line of
standard output is one JSON object; a failed check exits with code 1.
"""
from __future__ import annotations

import os

# One thread: BLAS's own worker threads would contend with the host's other
# tenants on this process's few cores and add their waits to every stage.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / "bench_out"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s", "prepare_s": "s", "pc_s": "s", "fci_s": "s", "fges_s": "s",
    "lingam_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "data.load_csv_s": "s", "data.clean_s": "s", "data.pearson_s": "s",
    "data.cells": "count", "data.rows_dropped": "count",
    "polychoric.matrix_s": "s", "polychoric.pairs": "count",
    "polychoric.ms_per_pair": "ms", "polychoric.warnings": "count",
    "independence.fisher_z.calls": "count", "independence.fisher_z.busy_s": "s",
    "independence.fisher_z.us_per_call": "us", "independence.fisher_z.max_condsize": "count",
    "independence.fisher_z.mean_condsize": "count",
    "independence.fisher_z.near_singular": "count",
    "independence.g2.calls": "count", "independence.g2.busy_s": "s",
    "independence.g2.us_per_call": "us", "independence.g2.strata": "count",
    "score.calls": "count", "score.evaluations": "count", "score.hit_ratio": "ratio",
    "score.busy_s": "s",
    "graph.rebuild_ms": "ms",
    "discovery.pc.self_s": "s", "discovery.pc.ci_calls": "count",
    "discovery.pc.conflicts": "count",
    "discovery.fci.self_s": "s", "discovery.fci.ci_calls": "count",
    "discovery.fci.pds_ci_calls": "count", "discovery.fci.pds_removed": "count",
    "discovery.fges.self_s": "s", "discovery.fges.ops": "count",
    "discovery.fges.score_evaluations": "count",
    "discovery.lingam.busy_s": "s",
    "trace.overhead": "ratio",
}


def _import_package():
    """Import causalpath from this checkout's src/ and time it."""
    src = ROOT / "src"
    if not (src / "causalpath" / "__init__.py").is_file():
        raise SystemExit(f"bench: no causalpath sources under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    for name in ("causalpath", "causalpath.data", "causalpath.independence",
                 "causalpath.score", "causalpath.discovery", "causalpath.simulate"):
        importlib.import_module(name)
    elapsed = perf_counter() - start
    found = Path(sys.modules["causalpath"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise SystemExit(f"bench: imported causalpath from {found}, not from {src}")
    sys.path.insert(0, str(BENCH))
    return elapsed


def _pass(w, tracer=None):
    """One pass of the pipeline over every replicate: each replicate's stage
    seconds and outputs."""
    from pipeline import run_replicate

    times, outs = [], []
    for k, rep in enumerate(w.replicates):
        if tracer is not None:
            tracer.request = k
        t, out = run_replicate(w, rep, tracer)
        times.append(t)
        outs.append(out)
    return times, outs


def _window(w, seconds):
    """Replicates in turn, round after round, until the next run would end
    past the window (at least one round).

    Returns the stage estimates (see `_pass_estimate`), each replicate's last
    outputs and the number of replicate runs. Running single replicates
    rather than whole passes lets the window end close to its length and
    spreads every replicate's runs over the window, so a slow spell of the
    host weighs on one sample of each median instead of on a whole pass.
    """
    from pipeline import run_replicate

    reps = w.replicates
    samples = [[] for _ in reps]
    outs = [None] * len(reps)
    start = perf_counter()
    runs = 0
    while True:
        k = runs % len(reps)
        outs[k] = None  # let the previous outputs go before the next run
        began = perf_counter()
        times, outs[k] = run_replicate(w, reps[k], None)
        samples[k].append(times)
        runs += 1
        now = perf_counter()
        nxt = samples[runs % len(reps)]
        last = nxt[-1]["pipeline_s"] if nxt else now - began
        if runs >= len(reps) and now - start + last > seconds:
            break
    return _estimates(samples), outs, runs


def _estimates(samples):
    """Stage estimates from each replicate's list of stage-time samples."""
    from pipeline import STAGES

    return {key: _pass_estimate([statistics.median(t[key] for t in ts) for ts in samples])
            for key in STAGES}


def _pass_estimate(per_replicate):
    """The time of one pass from each replicate's median time: the replicate
    count times the mean over replicates, leaving out the fastest and the
    slowest one when there are more than two.

    A stage's work differs between samples of one model with a long tail (on
    `survey-ordinal` one FGES run in about sixteen takes twice the usual
    operators and time), and a seed that draws such a sample would otherwise
    move the stage's total by an eighth or more.
    """
    v = sorted(per_replicate)
    if len(v) > 2:
        v = v[1:-1]
    return len(per_replicate) * statistics.fmean(v)


def _traced_passes(w, seconds, logs):
    """Whole traced passes until the next one would end past the window (at
    least one). Returns the stage estimates, the last pass's outputs, the
    per-layer metrics of each pass, the last pass's tracer and the number of
    passes.
    """
    from tracing import Tracer

    start = perf_counter()
    samples = [[] for _ in w.replicates]
    layers = []
    while True:
        began = perf_counter()
        tracer = Tracer()
        before = logs.snapshot()
        outs = None  # let the previous pass's outputs go before the next pass
        times, outs = _pass(w, tracer)
        for ts, t in zip(samples, times):
            ts.append(t)
        after = logs.snapshot()
        layers.append(_layer_metrics(
            tracer, outs, {k: after[k] - before.get(k, 0) for k in after}))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return _estimates(samples), outs, layers, tracer, len(layers)


def _layer_metrics(tr, outs, logs):
    """Per-layer metrics of one traced pass."""
    m = {}
    m["data.load_csv_s"] = tr.total("data.load_csv")
    m["data.clean_s"] = tr.total("data.clean")
    m["data.pearson_s"] = tr.total("data.pearson")
    m["data.cells"] = tr.counts["data.cells"]
    m["data.rows_dropped"] = tr.counts["data.rows_dropped"]

    pairs = tr.counts["polychoric.pairs"]
    m["polychoric.matrix_s"] = tr.total("polychoric.matrix")
    m["polychoric.pairs"] = pairs
    m["polychoric.ms_per_pair"] = 1000.0 * m["polychoric.matrix_s"] / pairs if pairs else 0.0
    m["polychoric.warnings"] = logs.get("causalpath.polychoric", 0)

    fz, g2 = tr.probes("fisher_z"), tr.probes("g2")
    calls = sum(p.calls for p in fz)
    busy = sum(p.busy for p in fz)
    m["independence.fisher_z.calls"] = calls
    m["independence.fisher_z.busy_s"] = busy
    m["independence.fisher_z.us_per_call"] = 1e6 * busy / calls if calls else 0.0
    m["independence.fisher_z.max_condsize"] = max((p.condsize_max for p in fz), default=0)
    m["independence.fisher_z.mean_condsize"] = (
        sum(p.condsize_sum for p in fz) / calls if calls else 0.0)
    m["independence.fisher_z.near_singular"] = logs.get("near-singular", 0)
    calls = sum(p.calls for p in g2)
    busy = sum(p.busy for p in g2)
    m["independence.g2.calls"] = calls
    m["independence.g2.busy_s"] = busy
    m["independence.g2.us_per_call"] = 1e6 * busy / calls if calls else 0.0
    m["independence.g2.strata"] = sum(p.strata for p in g2)

    sc = tr.probes("score")
    calls = sum(p.calls for p in sc)
    evals = sum(p.evaluations for p in sc)
    m["score.calls"] = calls
    m["score.evaluations"] = evals
    m["score.hit_ratio"] = 1.0 - evals / calls if calls else 0.0
    m["score.busy_s"] = sum(p.busy for p in sc)

    m["graph.rebuild_ms"] = 1000.0 * statistics.median(
        s.duration for s in tr.named("graph.rebuild"))

    pc_spans, fci_spans = tr.named("discovery.pc"), tr.named("discovery.fci")
    m["discovery.pc.self_s"] = sum(s.self_time for s in pc_spans)
    m["discovery.pc.ci_calls"] = sum(p.calls for s in pc_spans for p in s.probes)
    m["discovery.pc.conflicts"] = sum(
        len(o[k]["conflicts"]) for o in outs for k in ("pc", "pc_g2") if k in o)
    fci_calls = sum(p.calls for s in fci_spans for p in s.probes)
    pc_fz_calls = sum(p.calls for s in pc_spans for p in s.probes if p.kind == "fisher_z")
    m["discovery.fci.self_s"] = sum(s.self_time for s in fci_spans)
    m["discovery.fci.ci_calls"] = fci_calls
    m["discovery.fci.pds_ci_calls"] = fci_calls - pc_fz_calls
    m["discovery.fci.pds_removed"] = sum(o["fci"]["pds_removed"] for o in outs)
    m["discovery.fges.self_s"] = sum(s.self_time for s in tr.named("discovery.fges"))
    m["discovery.fges.ops"] = sum(len(o["fges"]["trace"]) for o in outs)
    m["discovery.fges.score_evaluations"] = sum(o["fges"]["score_evaluations"] for o in outs)
    m["discovery.lingam.busy_s"] = tr.total("discovery.lingam")
    return m


def _median_metrics(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = _import_package()
    from checks import check_oracle_pc, check_replicate
    from tracing import LogCounter
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    logs = LogCounter().install()

    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        w = make_workload(args.workload, args.seed, OUT_DIR)
        setups.append(perf_counter() - start)

    if args.trace:
        plain, _, runs = _window(w, args.seconds / 2)
        traced, outs, layers, tracer, passes = _traced_passes(w, args.seconds / 2, logs)
        layer = _median_metrics(layers)
        layer["trace.overhead"] = traced["pipeline_s"] / plain["pipeline_s"] - 1.0
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        metrics = {k: (layer[k], unit) for k, unit in PER_LAYER.items()}
        runs += passes * len(w.replicates)
    else:
        e2e, outs, runs = _window(w, args.seconds)
        e2e["setup_s"] = import_s + statistics.median(setups)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: (e2e[k], unit) for k, unit in END_TO_END.items()}

    failures = check_oracle_pc(w.dag)
    for rep, out in zip(w.replicates, outs):
        failures += check_replicate(w, rep, out, args.seed)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    ops_per_replicate = 6 if w.correlation == "polychoric" else 5
    result = {
        "correct": not failures,
        "attempted": runs * ops_per_replicate,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

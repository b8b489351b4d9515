"""Workload generators for the causalpath benchmark.

Every workload has a fixed generating model (a DAG with weights and noise
scales drawn once from a constant design seed) and a panel of replicate
samples drawn from the run's ``--seed``. Keeping the model fixed means that
two seeds differ only in the respondents sampled, not in the population:
on a fresh random DAG per seed, stage times move by 5-10x
(FCI's possible-d-sep phase is exponential in the size of PDS sets), which
would bury any real change. The panel of replicates averages out the
sample-to-sample swing that remains (an extra spurious FGES edge, a larger
PDS set).

The generators write CSV files and return, per replicate, the values the
program must read back after cleaning, so the data check can compare them.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from causalpath import BackgroundKnowledge, MixedGraph
from causalpath.data import SchemaConfig, VariableSchema
from causalpath.simulate import ScmSpec, random_scm, sample_scm, standardized_scm

MISSING_CODES = (-7, -8, -9)  # NHTS: refused, don't know, not ascertained


@dataclass
class Replicate:
    """One generated sample: where it was written and what it holds."""

    csv_path: Path
    expected: np.ndarray  # rows the program must keep, in schema order
    rows_written: int


@dataclass
class Workload:
    schema: SchemaConfig
    dag: MixedGraph  # generating DAG over the schema names
    knowledge: BackgroundKnowledge | None
    max_cond_size: int | None
    correlation: str  # "pearson" or "polychoric"
    replicates: list[Replicate] = field(default_factory=list)


# -- survey-ordinal ----------------------------------------------------------

# (name, tier, levels); tiers: socio-demographics, household/trip, attitudes,
# mode use. R_SEX is written with text labels, as NHTS exports do.
SURVEY_ITEMS = (
    ("R_AGE", 0, 6), ("R_SEX", 0, 2), ("EDUC", 0, 5), ("HHFAMINC", 0, 6),
    ("HHSIZE", 1, 5), ("HHVEHCNT", 1, 4), ("URBAN", 1, 2), ("TRPDIST", 1, 5),
    ("PRICE", 2, 5), ("PLACE", 2, 5), ("WALK2SAVE", 2, 5), ("PTRANS", 2, 3),
    ("CARUSE", 3, 5), ("BUSUSE", 3, 4), ("WALKUSE", 3, 3), ("BIKE", 3, 2),
)
TIER_NAMES = ("socio", "household", "attitude", "mode")
SEX_LABELS = ["male", "female"]
SURVEY_DESIGN_SEED = 2208
SURVEY_ROWS = 1500
SURVEY_MISSING_SHARE = 0.04
# edge probability by tier distance (0 = within a tier)
SURVEY_EDGE_PROB = (0.2, 0.35, 0.2, 0.1)
SURVEY_MAX_COND = 2


def survey_design():
    """The fixed survey model: DAG, SCM weights and category cut points."""
    rng = np.random.default_rng(SURVEY_DESIGN_SEED)
    names = [n for n, _, _ in SURVEY_ITEMS]
    tiers = {n: t for n, t, _ in SURVEY_ITEMS}
    dag = MixedGraph(names, "dag")
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < SURVEY_EDGE_PROB[tiers[b] - tiers[a]]:
                dag.add_directed(a, b)
    spec = standardized_scm(dag, SURVEY_DESIGN_SEED, noise="laplace")
    # skewed but never empty categories: Dirichlet shares floored at 5 %
    cum_probs = {}
    for name, _, k in SURVEY_ITEMS:
        share = rng.dirichlet(np.full(k, 3.0))
        share = np.maximum(share, 0.05)
        cum_probs[name] = np.cumsum(share / share.sum())[:-1]
    return spec, cum_probs


def survey_schema():
    variables = []
    for name, tier, k in SURVEY_ITEMS:
        kind = "binary" if k == 2 else "ordinal"
        labels = SEX_LABELS if name == "R_SEX" else None
        variables.append(VariableSchema(name, kind, TIER_NAMES[tier], k, labels))
    rule = {"columns": [n for n, _, _ in SURVEY_ITEMS], "deny": list(MISSING_CODES)}
    return SchemaConfig(variables, [rule])


def survey_knowledge():
    return BackgroundKnowledge(
        tiers=[[n for n, t, _ in SURVEY_ITEMS if t == i] for i in range(len(TIER_NAMES))])


def _survey_codes(spec, cum_probs, seed, rows):
    """Cut each latent column at its sample quantiles into ordinal codes."""
    latent = sample_scm(ScmSpec(spec.dag, spec.weights, spec.noise, seed), rows)
    codes = np.empty((rows, len(SURVEY_ITEMS)), dtype=np.int64)
    for j, (name, _, _) in enumerate(SURVEY_ITEMS):
        x = latent.column(name)
        cuts = np.quantile(x, cum_probs[name])
        codes[:, j] = np.searchsorted(cuts, x, side="right")
    return codes


def _write_survey_csv(path, codes, rng):
    """Write codes with NHTS missing codes in a few rows; returns the kept mask."""
    rows, p = codes.shape
    hit = rng.random(rows) < SURVEY_MISSING_SHARE
    cells = codes.astype(object)
    for r in np.flatnonzero(hit):
        cells[r, rng.integers(p)] = int(rng.choice(MISSING_CODES))
    sex = [n for n, _, _ in SURVEY_ITEMS].index("R_SEX")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([n for n, _, _ in SURVEY_ITEMS])
        for row in cells:
            row = list(row)
            if row[sex] in (0, 1):
                row[sex] = SEX_LABELS[row[sex]]
            w.writerow(row)
    return ~hit


# -- continuous workloads -----------------------------------------------------

WIDE_DESIGN_SEED = 7
WIDE_P = 20
WIDE_ROWS = 1200
WIDE_MAX_COND = 2


def wide_design():
    return random_scm(WIDE_P, 3 / (WIDE_P - 1), WIDE_DESIGN_SEED, noise="uniform")


def _write_continuous_csv(path, names, values):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        w.writerows([repr(float(v)) for v in row] for row in values)


# -- entry point --------------------------------------------------------------

WORKLOADS = ("survey-ordinal", "wide-sparse")
REPLICATES = {"survey-ordinal": 8, "wide-sparse": 4}


def make_workload(name, seed, out_dir):
    """Generate the workload's replicate CSV files under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "survey-ordinal":
        spec, cum_probs = survey_design()
        w = Workload(survey_schema(), spec.dag, survey_knowledge(), SURVEY_MAX_COND, "polychoric")
    elif name == "wide-sparse":
        spec = wide_design()
        names = list(spec.dag.nodes)
        schema = SchemaConfig([VariableSchema(v, "continuous") for v in names], [])
        w = Workload(schema, spec.dag, None, WIDE_MAX_COND, "pearson")
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

    for k in range(REPLICATES[name]):
        rseed = seed * 1000 + k
        path = out_dir / f"{name}-{k}.csv"
        if name == "survey-ordinal":
            codes = _survey_codes(spec, cum_probs, rseed, SURVEY_ROWS)
            kept = _write_survey_csv(path, codes, np.random.default_rng([rseed, 1]))
            w.replicates.append(Replicate(path, codes[kept].astype(float), len(codes)))
        else:
            d = sample_scm(ScmSpec(spec.dag, spec.weights, spec.noise, rseed), WIDE_ROWS)
            _write_continuous_csv(path, d.names, d.values)
            w.replicates.append(Replicate(path, d.values, WIDE_ROWS))
    return w

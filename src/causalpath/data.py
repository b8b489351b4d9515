"""Survey-style data ingestion, cleaning rules, scaling, and correlations.

A Dataset couples an n x p numeric value matrix with a per-variable schema
(kind, role, levels) and a provenance log that records what every cleaning
step did. Correlation matrices carry their method and effective sample size
so downstream tests and scores know what they are working with.
"""
from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from .polychoric import polychoric_pair

logger = logging.getLogger(__name__)

KINDS = ("binary", "ordinal", "continuous")

_COND_LIMIT = 1e10  # condition number beyond which a correlation block is unusable


class DataError(ValueError):
    """Schema, file, or rule problem during ingestion."""


class MissingColumnError(DataError):
    pass


class UnmappableCellError(DataError):
    pass


class SingularConditioningError(DataError):
    """A correlation block is too ill-conditioned to invert; `.names` is the
    block, in the order it was asked for."""

    def __init__(self, names):
        self.names = tuple(names)
        super().__init__(f"near-singular correlation block {list(self.names)} "
                         f"(condition number > {_COND_LIMIT:.0e})")


@dataclass
class VariableSchema:
    """One variable: name, measurement kind, tier-mapping role, levels."""

    name: str
    kind: str
    role: str = ""
    levels: int | None = None
    level_labels: list[str] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"{self.name}: unknown kind {self.kind!r}")
        if self.kind == "binary":
            if self.levels is None:
                self.levels = 2
            if self.levels != 2:
                raise DataError(f"{self.name}: binary variables have exactly 2 levels")
        if self.kind == "ordinal":
            if self.levels is None or self.levels < 2:
                raise DataError(f"{self.name}: ordinal variables need >= 2 declared levels")
        if self.level_labels is not None and self.levels is not None:
            if len(self.level_labels) != self.levels:
                raise DataError(f"{self.name}: {len(self.level_labels)} labels for "
                                f"{self.levels} levels")

    def to_json_dict(self):
        d = {"name": self.name, "kind": self.kind, "role": self.role}
        if self.levels is not None and self.kind != "continuous":
            d["levels"] = self.levels
        if self.level_labels is not None:
            d["level_labels"] = list(self.level_labels)
        return d

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["name"], d["kind"], d.get("role", ""), d.get("levels"),
                   d.get("level_labels"))


@dataclass
class SchemaConfig:
    """Bundled schema plus cleaning rules: the single JSON config document."""

    variables: list[VariableSchema]
    cleaning: list[dict] = field(default_factory=list)

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DataError("duplicate variable names in schema")

    @property
    def names(self):
        return [v.name for v in self.variables]

    def to_json_dict(self):
        return {
            "variables": [v.to_json_dict() for v in self.variables],
            "cleaning": list(self.cleaning),
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls([VariableSchema.from_json_dict(v) for v in d["variables"]],
                   list(d.get("cleaning", ())))

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def save(self, path):
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


@dataclass
class Dataset:
    """Column-major numeric table with schema and a cleaning log."""

    schema: list[VariableSchema]
    values: np.ndarray
    provenance: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("values must be a 2-d matrix")
        if self.values.shape[1] != len(self.schema):
            raise DataError(f"{self.values.shape[1]} columns for {len(self.schema)} "
                            "schema variables")
        if self.values.size and not np.isfinite(self.values).all():
            raise DataError("non-finite values in dataset")

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]

    @property
    def names(self):
        return [v.name for v in self.schema]

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown column {name!r}") from None

    def column(self, name):
        return self.values[:, self.index(name)]

    def variable(self, name):
        return self.schema[self.index(name)]

    def log(self, message):
        self.provenance.append(message)
        logger.info("dataset: %s", message)


@dataclass
class CorrelationMatrix:
    """p x p correlation matrix with its method and sample size. `precision`
    inverts its blocks for Fisher-z and the BIC score."""

    names: list[str]
    matrix: np.ndarray
    method: str
    n: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.names), len(self.names)):
            raise DataError("matrix shape does not match names")
        self._pos = {nm: i for i, nm in enumerate(self.names)}
        if len(self._pos) != len(self.names):
            raise DataError("duplicate variable names")
        if not np.isfinite(m).all():
            raise DataError("non-finite correlation entries")
        if np.abs(m - m.T).max(initial=0.0) > 1e-12:
            raise DataError("correlation matrix not symmetric")
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 1.0)
        if m.size and (np.abs(m) > 1.0 + 1e-12).any():
            raise DataError("correlation entries outside [-1, 1]")
        self.matrix = np.clip(m, -1.0, 1.0)

    def index(self, name):
        try:
            return self._pos[name]
        except KeyError:
            raise DataError(f"unknown variable {name!r}") from None

    def precision(self, names):
        """Inverse of the block over `names`, rows in that order, from one
        symmetric eigendecomposition. Raises SingularConditioningError when
        max|eigenvalue| > _COND_LIMIT * min|eigenvalue|, the block's 2-norm
        condition number. An indefinite block is inverted all the same."""
        idx = [self.index(v) for v in names]
        lam, vec = np.linalg.eigh(self.matrix.take(idx, 0).take(idx, 1))
        size = np.abs(lam)
        if size.max() > _COND_LIMIT * size.min():
            raise SingularConditioningError(names)
        return (vec / lam) @ vec.T

    def value(self, a, b):
        return float(self.matrix[self.index(a), self.index(b)])

    def to_json_dict(self):
        return {
            "names": list(self.names),
            "method": self.method,
            "n": int(self.n),
            "matrix": [[float(v) for v in row] for row in self.matrix],
        }

    def to_csv(self):
        lines = ["," + ",".join(self.names)]
        for name, row in zip(self.names, self.matrix):
            lines.append(name + "," + ",".join(f"{v:.10g}" for v in row))
        return "\n".join(lines) + "\n"


def load_csv(path, schema):
    """Read an RFC-4180 CSV with a header row against a schema.

    Columns are matched by name (order-insensitive); CSV columns absent from
    the schema are ignored with a warning, schema columns absent from the CSV
    raise. Non-numeric cells are mapped through the variable's level_labels
    when possible and rejected otherwise.
    """
    if isinstance(schema, (str, Path)):
        schema = SchemaConfig.load(schema)
    variables = schema.variables if isinstance(schema, SchemaConfig) else list(schema)
    names = [v.name for v in variables]

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)

    header = [h.strip() for h in header]
    missing = [n for n in names if n not in header]
    if missing:
        raise MissingColumnError(f"{path}: columns missing from CSV: {missing}")
    extra = [h for h in header if h not in names]
    col_of = {n: header.index(n) for n in names}
    label_maps = {
        v.name: {lab: float(i) for i, lab in enumerate(v.level_labels)}
        for v in variables if v.level_labels
    }

    values = np.empty((len(rows), len(names)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} fields, "
                            f"expected {len(header)}")
        for c, name in enumerate(names):
            cell = row[col_of[name]].strip()
            try:
                values[r, c] = float(cell)
            except ValueError:
                mapped = label_maps.get(name, {}).get(cell)
                if mapped is None:
                    raise UnmappableCellError(
                        f"{path}: row {r + 2}, column {name!r}: "
                        f"unmappable value {cell!r}") from None
                values[r, c] = mapped

    d = Dataset(list(variables), values)
    d.log(f"loaded {d.n} rows x {d.p} columns from {path}")
    if extra:
        d.log(f"ignored columns not in schema: {sorted(extra)}")
        logger.warning("ignored CSV columns not in schema: %s", sorted(extra))
    return d


def _rule_mask(d, rule):
    cols = rule.get("columns")
    if cols is None:
        if "column" not in rule:
            raise DataError(f"cleaning rule without column(s): {rule}")
        cols = [rule["column"]]
    mask = np.ones(d.n, dtype=bool)
    for col in cols:
        x = d.column(col)  # raises on unknown column
        if "allow" in rule:
            mask &= np.isin(x, np.asarray(rule["allow"], dtype=float))
        if "deny" in rule:
            mask &= ~np.isin(x, np.asarray(rule["deny"], dtype=float))
        if "min" in rule:
            mask &= x >= float(rule["min"])
        if "max" in rule:
            mask &= x <= float(rule["max"])
    return mask


def clean(d, rules):
    """Apply row-filter rules (allow/deny lists, min/max ranges).

    Every surviving row satisfies all rules; the dropped count per rule and
    in total goes to the provenance log.
    """
    mask = np.ones(d.n, dtype=bool)
    out_log = []
    for rule in rules:
        rmask = _rule_mask(d, rule)
        out_log.append(f"rule {rule}: drops {int((~rmask & mask).sum())} further rows")
        mask &= rmask
    out = Dataset(list(d.schema), d.values[mask], list(d.provenance))
    for line in out_log:
        out.log(line)
    out.log(f"clean: kept {out.n} of {d.n} rows ({d.n - out.n} dropped)")
    return out


def scale_unit(d):
    """Min-max scale every column to [0, 1]; constant columns map to 0."""
    values = d.values.copy()
    constant = []
    for j, v in enumerate(d.schema):
        col = values[:, j]
        lo, hi = col.min(), col.max()
        if hi == lo:
            values[:, j] = 0.0
            constant.append(v.name)
        else:
            values[:, j] = (col - lo) / (hi - lo)
    out = Dataset(list(d.schema), values, list(d.provenance))
    out.log("scaled all columns to [0, 1]")
    if constant:
        out.log(f"constant columns mapped to 0: {constant}")
        logger.warning("constant columns in scale_unit: %s", constant)
    return out


def _corr_from_columns(cols, names, method, n):
    p = len(names)
    stds = cols.std(axis=0)
    constant = stds == 0
    if constant.any():
        logger.warning("%s correlation: constant columns set to 0: %s",
                       method, [names[i] for i in np.flatnonzero(constant)])
    with np.errstate(invalid="ignore", divide="ignore"):
        m = np.corrcoef(cols, rowvar=False).reshape(p, p)
    m = np.where(np.isfinite(m), m, 0.0)
    m[constant, :] = 0.0
    m[:, constant] = 0.0
    np.fill_diagonal(m, 1.0)
    m = np.clip((m + m.T) / 2.0, -1.0, 1.0)
    return CorrelationMatrix(list(names), m, method, n)


def pearson_matrix(d):
    """Plain product-moment correlations."""
    if d.n < 3:
        raise DataError("need at least 3 rows")
    return _corr_from_columns(d.values, d.names, "pearson", d.n)


def spearman_matrix(d):
    """Rank correlations with midrank ties."""
    if d.n < 3:
        raise DataError("need at least 3 rows")
    ranks = np.column_stack([rankdata(d.values[:, j]) for j in range(d.p)])
    return _corr_from_columns(ranks, d.names, "spearman", d.n)


def polychoric_matrix(d):
    """Pairwise two-step polychoric correlations for ordinal/binary data."""
    bad = [v.name for v in d.schema if v.kind == "continuous"]
    if bad:
        raise DataError(f"polychoric requires binary/ordinal columns; continuous: {bad}")
    p = d.p
    m = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            rho, _ = polychoric_pair(d.values[:, i], d.values[:, j])
            m[i, j] = m[j, i] = rho
    return CorrelationMatrix(d.names, m, "polychoric", d.n)


def correlation_matrix(d, method):
    """Dispatch by method name; `auto` picks polychoric when every column is
    binary/ordinal and falls back to Pearson otherwise."""
    if method == "auto":
        method = ("polychoric"
                  if all(v.kind in ("binary", "ordinal") for v in d.schema)
                  else "pearson")
    if method == "pearson":
        return pearson_matrix(d)
    if method == "spearman":
        return spearman_matrix(d)
    if method == "polychoric":
        return polychoric_matrix(d)
    raise DataError(f"unknown correlation method {method!r}")

"""Survey-style data ingestion, cleaning rules and correlations.

A Dataset couples an n x p numeric value matrix with a per-variable schema
(kind, role, levels) and a provenance log that records what every cleaning
step did. Correlation matrices carry their method and effective sample size
so downstream tests and scores know what they are working with.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .polychoric import polychoric_correlations

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

    def log(self, message):
        self.provenance.append(message)
        logger.info("dataset: %s", message)


@dataclass
class CorrelationMatrix:
    """p x p correlation matrix with its method and sample size, and the one
    reader of its blocks: Fisher-z asks `partial_correlation` and the BIC
    score `residual_variance`. Both read a certified block from a scalar
    Cholesky factor and any other from `precision`, which holds the
    conditioning rule. `notes` keeps the estimator's warnings, each prefixed
    by its column or pair, e.g. "A: ..." or "A-B: ..."."""

    names: list[str]
    matrix: np.ndarray
    method: str
    n: int
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.n >= 1:
            raise DataError(f"sample size n = {self.n} must be >= 1")
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
        self._rows = self.matrix.tolist()  # Python floats for _cholesky_row

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

    def _cholesky_row(self, names):
        """The last row of the Cholesky factor of the block over `names`, in
        that order; None when the block is not certified.

        With positive pivots d_i (the squared diagonal of the factor), the
        unit-diagonal k x k block has max eigenvalue <= trace = k and min
        eigenvalue >= det / k**(k - 1), det = prod(d_i), so its condition
        number is at most k**k / det. A block is certified only when every
        pivot is > 0 and k**k <= det * _COND_LIMIT / 10; the factor 10 covers
        rounding in the condition number `precision` computes, so `precision`
        accepts every certified block and is left every other one.
        """
        rows = self._rows
        idx = [self.index(v) for v in names]
        factor = []
        det = 1.0
        for i, a in enumerate(idx):
            row = rows[a]
            li = []
            for j in range(i):
                lj = factor[j]
                s = row[idx[j]]
                for m in range(j):
                    s -= li[m] * lj[m]
                li.append(s / lj[j])
            d = 1.0
            for v in li:
                d -= v * v
            if d <= 0.0:
                return None
            det *= d
            li.append(math.sqrt(d))
            factor.append(li)
        k = len(idx)
        if k ** k > det * (_COND_LIMIT / 10.0):
            return None
        return li

    def partial_correlation(self, x, y, z=()):
        """Partial correlation of x and y given z: l21 / sqrt(l21**2 + l22**2)
        from the last row of the certified (*z, x, y) factor, otherwise from
        the precision of the (x, y, *z) block; NaN when that block is
        indefinite and gives x or y a negative residual variance."""
        if x in z or y in z or x == y:
            raise DataError("x, y must be distinct and disjoint from z")
        row = self._cholesky_row([*z, x, y])
        if row is not None:
            l21, l22 = row[-2:]
            return l21 / math.sqrt(l21 * l21 + l22 * l22)
        prec = self.precision([x, y, *z])
        scale = prec[0, 0] * prec[1, 1]
        return float(-prec[0, 1] / np.sqrt(scale)) if scale > 0.0 else math.nan

    def residual_variance(self, node, parents=()):
        """Residual variance of node on parents: the last pivot of the certified
        (*parents, node) factor, or else 1 / precision[0, 0] of the (node,
        *parents) block, which is <= 0 when that block is indefinite."""
        row = self._cholesky_row([*parents, node])
        if row is not None:
            return row[-1] * row[-1]
        p00 = float(self.precision([node, *parents])[0, 0])
        return 1.0 / p00 if p00 else -math.inf

    def value(self, a, b):
        return float(self.matrix[self.index(a), self.index(b)])

    def to_json_dict(self):
        return {
            "names": list(self.names),
            "method": self.method,
            "n": int(self.n),
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "notes": list(self.notes),
        }


def _read_labelled(cells, level_labels):
    """Read a column cell by cell: each stripped cell is a number, else a
    level label (its index). Returns the values and the count of labels
    read, stopping at the first cell that is neither, so a short list marks
    that cell. A label that reads as a number stays that number, so only
    the other labels are looked up first, which spares one exception per
    label cell."""
    words = {}
    for code, label in enumerate(level_labels):
        try:
            float(label)
        except ValueError:
            words[label] = float(code)
    out, mapped = [], 0
    for cell in cells:
        cell = cell.strip()
        code = words.get(cell)
        if code is not None:
            out.append(code)
            mapped += 1
            continue
        try:
            out.append(float(cell))
        except ValueError:
            break
    return out, mapped


def load_csv(path, schema):
    """Read an RFC-4180 CSV with a header row against a schema.

    Columns are matched by name (order-insensitive); CSV columns absent from
    the schema are ignored with a warning, schema columns absent from the CSV
    raise. A leading UTF-8 byte-order mark, which spreadsheet "CSV UTF-8"
    exports write, is skipped, and so are blank lines (their count goes to
    the provenance log; row numbers in errors still count them).

    Conversion runs one column at a time: `float` reads a whole column, and
    only a column it refuses is read cell by cell, with non-numeric cells
    mapped through the variable's level_labels (the provenance log counts
    them per column) and rejected otherwise. The first fault in row order
    raises, the earlier schema column first within a row: a row with the
    wrong field count raises DataError, a cell neither read nor mapped
    UnmappableCellError.
    """
    if isinstance(schema, (str, Path)):
        schema = SchemaConfig.load(schema)
    variables = schema.variables if isinstance(schema, SchemaConfig) else list(schema)
    names = [v.name for v in variables]

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        records = list(reader)

    header = [h.strip() for h in header]
    dup = sorted({h for h in header if header.count(h) > 1})
    if dup:
        raise DataError(f"{path}: duplicated header names: {dup}")
    missing = [n for n in names if n not in header]
    if missing:
        raise MissingColumnError(f"{path}: columns missing from CSV: {missing}")
    extra = [h for h in header if h not in names]
    col_of = {n: header.index(n) for n in names}

    rows = [row for row in records if row]
    width = len(header)
    ragged = next((r for r, row in enumerate(rows) if len(row) != width), len(rows))
    columns = list(zip(*rows[:ragged])) or [()] * width
    values = np.empty((ragged, len(names)))
    fault = (ragged, len(names))  # (row, schema column); column p: the ragged row
    mapped = {}
    for c, v in enumerate(variables):
        cells = columns[col_of[v.name]]
        try:
            values[:, c] = np.fromiter(map(float, cells), float, ragged)
        except ValueError:
            out, mapped[v.name] = _read_labelled(cells, v.level_labels or ())
            if len(out) < ragged:
                fault = min(fault, (len(out), c))
            else:
                values[:, c] = out

    r, c = fault
    if r < len(rows):
        line = [k for k, row in enumerate(records, 2) if row][r]
        if c < len(names):
            cell = columns[col_of[names[c]]][r].strip()
            raise UnmappableCellError(f"{path}: row {line}, column {names[c]!r}: "
                                      f"unmappable value {cell!r}")
        raise DataError(f"{path}: row {line} has {len(rows[r])} fields, "
                        f"expected {width}")

    d = Dataset(list(variables), values)
    d.log(f"loaded {d.n} rows x {d.p} columns from {path}")
    if len(rows) < len(records):
        d.log(f"blank lines skipped: {len(records) - len(rows)}")
    for name, count in mapped.items():
        d.log(f"{name}: {count:,} cells mapped through level labels")
    if extra:
        d.log(f"ignored columns not in schema: {sorted(extra)}")
        logger.warning("ignored CSV columns not in schema: %s", sorted(extra))
    return d


_FILTERS = {"allow", "deny", "min", "max"}


def _rule_mask(d, rule):
    unknown = sorted(set(rule) - _FILTERS - {"column", "columns"})
    if unknown:
        raise DataError(f"cleaning rule {rule}: unknown keys {unknown}")
    cols = rule.get("columns")
    if isinstance(cols, str):
        raise DataError(f"cleaning rule {rule}: columns must be a list of names")
    if cols is None:
        if "column" not in rule:
            raise DataError(f"cleaning rule without column(s): {rule}")
        cols = [rule["column"]]
    if not _FILTERS & set(rule):
        raise DataError(f"cleaning rule {rule}: no allow, deny, min or max")
    try:
        allow = np.asarray(rule.get("allow", ()), dtype=float)
        deny = np.asarray(rule.get("deny", ()), dtype=float)
        lo = float(rule.get("min", -np.inf))
        hi = float(rule.get("max", np.inf))
    except (TypeError, ValueError):
        raise DataError(f"cleaning rule {rule}: non-numeric value") from None
    mask = np.ones(d.n, dtype=bool)
    for col in cols:
        x = d.column(col)  # raises on unknown column
        if "allow" in rule:
            mask &= np.isin(x, allow)
        mask &= ~np.isin(x, deny) & (x >= lo) & (x <= hi)
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


def _corr_from_columns(cols, names, method, n):
    p = len(names)
    with np.errstate(all="ignore"):
        constant = cols.std(axis=0) == 0
        m = np.corrcoef(cols, rowvar=False).reshape(p, p)
    if constant.any():
        logger.warning("%s correlation: constant columns set to 0: %s",
                       method, [names[i] for i in np.flatnonzero(constant)])
    m[constant, :] = 0.0
    m[:, constant] = 0.0
    return CorrelationMatrix(list(names), m, method, n)


def pearson_matrix(d):
    """Plain product-moment correlations."""
    if d.n < 3:
        raise DataError("need at least 3 rows")
    return _corr_from_columns(d.values, d.names, "pearson", d.n)


def polychoric_matrix(d):
    """Pairwise two-step polychoric correlations for ordinal/binary data,
    every pair solved at once. The result's `notes` name each column that
    shows fewer levels than its schema declares and keep every pair's
    estimator warnings; a matrix with a negative eigenvalue gets one more
    note, and is returned unrepaired."""
    bad = [v.name for v in d.schema if v.kind == "continuous"]
    if bad:
        raise DataError(f"polychoric requires binary/ordinal columns; continuous: {bad}")
    names = d.names
    m, warnings, levels = polychoric_correlations(d.values)
    notes = [f"{v.name}: {seen} of {v.levels} declared levels observed"
             for v, seen in zip(d.schema, levels.tolist()) if seen < v.levels]
    notes += [f"{names[i]}-{names[j]}: {w}" for (i, j), ws in warnings.items() for w in ws]
    low = np.linalg.eigvalsh(m).min(initial=1.0)
    if low < 0.0:
        notes.append(f"matrix indefinite: min eigenvalue {low:.4g}")
        logger.warning("polychoric: %s", notes[-1])
    return CorrelationMatrix(names, m, "polychoric", d.n, notes)


def correlation_matrix(d, method):
    """Dispatch by method name; `auto` picks polychoric when every column is
    binary/ordinal and falls back to Pearson otherwise."""
    if method == "auto":
        method = ("polychoric"
                  if all(v.kind in ("binary", "ordinal") for v in d.schema)
                  else "pearson")
    if method == "pearson":
        return pearson_matrix(d)
    if method == "polychoric":
        return polychoric_matrix(d)
    raise DataError(f"unknown correlation method {method!r}")

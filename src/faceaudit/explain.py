"""Explain per-individual error rates from attribute profiles.

Two complementary views: single-variable Pearson correlations between
each encoded attribute column and the rate, and a multiple linear
regression of the rate on all columns jointly.  Categorical attributes
enter as reference-coded dummies, booleans as 0/1, continuous
attributes raw (optionally standardised).

The design depends only on the profiles, so it is built once per audit
together with what every fit reuses: the profile row of each design row,
from which the response is gathered by index, and the columns that hold
one value, which the correlations skip and the regression drops.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from faceaudit.calibration import OperatingPoint
from faceaudit.cohort import ProfileTable
from faceaudit.errors import DataError
from faceaudit.schema import AttributeSchema
from faceaudit.stats import DesignMatrix, RegressionFit, fit_ols, pearson


def _column_plan(schema: AttributeSchema, reference_levels: Mapping[str, str]):
    """Yield (column_name, variable, dummy_level_index|None), protected first."""
    ordered = list(schema.protected)
    ordered += [name for name in schema.names() if name not in schema.protected]
    plan = []
    for name in ordered:
        var = schema.variable(name)
        if var.kind == "categorical":
            reference = reference_levels.get(name, var.levels[0])
            for idx, level in enumerate(var.levels):
                if level != reference:
                    plan.append((f"{name}={level}", var, idx))
        else:
            plan.append((name, var, None))
    return plan


@dataclass(frozen=True, eq=False)
class Design(DesignMatrix):
    """A regression design and what every fit against it reuses.

    ``rows`` holds the profile row of each design row; ``incomplete``
    names the identities left out for a missing value.  ``constant``
    names the explanatory columns that hold one value, and ``varying``
    is the design without them.
    """

    rows: np.ndarray
    incomplete: tuple[str, ...]
    constant: tuple[str, ...] = field(init=False)
    varying: DesignMatrix = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        m = self.matrix
        keep = [0, *(j for j in range(1, m.shape[1]) if not np.all(m[:, j] == m[0, j]))]
        varying = self
        if len(keep) < self.n_columns:
            names = tuple(self.column_names[j] for j in keep)
            varying = DesignMatrix(matrix=m[:, keep], column_names=names, row_ids=self.row_ids)
        constant = tuple(name for name in self.column_names if name not in varying.column_names)
        object.__setattr__(self, "varying", varying)
        object.__setattr__(self, "constant", constant)


def build_design(
    profiles: ProfileTable,
    schema: AttributeSchema,
    rows: np.ndarray | None = None,
    reference_levels: Mapping[str, str] | None = None,
    standardize: bool = False,
) -> Design:
    """Encode the complete-case profile ``rows`` (default: all) into a design.

    Profiles missing any schema variable are dropped and listed as
    incomplete.  ``reference_levels`` names the omitted dummy level of a
    categorical variable (default: its first level); ``standardize``
    z-scores continuous columns.  Raises when too few complete cases
    remain to leave at least one residual degree of freedom.
    """
    plan = _column_plan(schema, reference_levels or {})
    if rows is None:
        rows = np.arange(len(profiles.identities))
    values = profiles.values[rows]
    complete = ~np.isnan(values).any(axis=1)
    incomplete = tuple(sorted(profiles.identities[r] for r in rows[~complete].tolist()))
    rows, values = rows[complete], values[complete]
    n_columns = 1 + len(plan)
    if len(rows) < n_columns + 1:
        raise DataError(
            f"{len(rows)} complete cases cannot support {n_columns} design columns"
        )
    names = schema.names()
    matrix = np.ones((len(rows), n_columns), dtype=np.float64)
    for j, (_, var, level_idx) in enumerate(plan, start=1):
        raw = values[:, names.index(var.name)]
        if level_idx is not None:
            matrix[:, j] = (raw.astype(np.int64) == level_idx).astype(np.float64)
        else:
            matrix[:, j] = raw
            if standardize and var.is_continuous:
                sd = matrix[:, j].std()
                if sd > 0.0:
                    matrix[:, j] = (matrix[:, j] - matrix[:, j].mean()) / sd
    return Design(
        matrix=matrix,
        column_names=("intercept", *(name for name, _, _ in plan)),
        row_ids=tuple(profiles.identities[r] for r in rows.tolist()),
        rows=rows,
        incomplete=incomplete,
    )


def response_vector(
    design: Design, rates: Mapping[str, np.ndarray], metric: str
) -> np.ndarray:
    """The ``metric`` rates of the design rows, gathered from profile-aligned rates."""
    if metric not in ("far", "frr"):
        raise DataError(f"metric must be 'far' or 'frr', got {metric!r}")
    y = np.asarray(rates[metric], dtype=np.float64)[design.rows]
    missing = np.flatnonzero(np.isnan(y))
    if missing.size:
        ids = [design.row_ids[i] for i in missing[:5].tolist()]
        raise DataError(f"no rates for design rows: {ids}")
    return y


@dataclass(frozen=True)
class CorrelationEntry:
    column: str
    r: float
    p_value: float
    n: int


@dataclass(frozen=True)
class CorrelationReport:
    entries: tuple[CorrelationEntry, ...]
    skipped: tuple[str, ...]
    constant_response: bool

    def entry(self, column: str) -> CorrelationEntry:
        for e in self.entries:
            if e.column == column:
                return e
        raise KeyError(column)


def run_correlations(design: Design, y: np.ndarray) -> CorrelationReport:
    """Pearson r between each explanatory column and the response.

    Constant columns carry no signal and are skipped; a constant
    response makes every correlation undefined, which is flagged.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (design.n_rows,):
        raise DataError("response length must match the design rows")
    if np.all(y == y[0]):
        return CorrelationReport(
            entries=(), skipped=design.column_names[1:], constant_response=True
        )
    entries = []
    varying = design.varying
    for j, name in enumerate(varying.column_names[1:], start=1):
        result = pearson(varying.matrix[:, j], y)
        entries.append(CorrelationEntry(name, result.r, result.p_value, result.n))
    return CorrelationReport(
        entries=tuple(entries), skipped=design.constant, constant_response=False
    )


def run_regression(design: Design, y: np.ndarray) -> tuple[RegressionFit, tuple[str, ...]]:
    """Fit the joint linear model without the constant columns.

    Returns the fit plus the names of the dropped columns.  Rank
    deficiency beyond constant columns (e.g. collinear dummies) still
    raises, naming the offending columns.
    """
    return fit_ols(design.varying, y), design.constant


@dataclass(frozen=True)
class ExplanatoryReport:
    """Correlation and regression evidence for one metric at one threshold."""

    metric: str
    operating_point: OperatingPoint
    n_cases: int
    correlations: CorrelationReport
    regression: RegressionFit | None
    dropped_columns: tuple[str, ...]
    incomplete_identities: tuple[str, ...]


def explanatory_report(
    design: Design,
    rates: Mapping[str, np.ndarray],
    metric: str,
    operating_point: OperatingPoint,
) -> ExplanatoryReport:
    """Gather the response from ``rates``, then correlate and regress.

    ``rates`` maps each metric to per-identity rates aligned with the
    profile rows ``design`` was built from.  The design does not depend
    on the threshold, so one build serves every operating point.
    """
    y = response_vector(design, rates, metric)
    correlations = run_correlations(design, y)
    if correlations.constant_response:
        regression, dropped = None, ()
    else:
        regression, dropped = run_regression(design, y)
    return ExplanatoryReport(
        metric=metric,
        operating_point=operating_point,
        n_cases=design.n_rows,
        correlations=correlations,
        regression=regression,
        dropped_columns=dropped,
        incomplete_identities=design.incomplete,
    )

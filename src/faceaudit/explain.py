"""Explain per-individual error rates from attribute profiles.

Two complementary views: single-variable Pearson correlations between
each encoded attribute column and the rate, and a multiple linear
regression of the rate on all columns jointly.  Categorical attributes
enter as reference-coded dummies, booleans as 0/1, continuous
attributes raw (optionally standardised).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from faceaudit.calibration import OperatingPoint
from faceaudit.cohort import AttributeProfile
from faceaudit.errors import DataError, SchemaError
from faceaudit.metrics import IndividualRates
from faceaudit.schema import AttributeSchema
from faceaudit.stats import DesignMatrix, RegressionFit, fit_ols, pearson


@dataclass(frozen=True)
class EncodingConfig:
    """Controls dummy coding and scaling of the design matrix.

    ``reference_levels`` overrides the omitted level per categorical
    variable (default: the first schema level).  ``standardize``
    z-scores continuous columns; dummies and booleans stay 0/1.
    """

    reference_levels: dict[str, str] = field(default_factory=dict)
    standardize: bool = False


def _column_plan(schema: AttributeSchema, config: EncodingConfig):
    """Yield (column_name, variable, dummy_level_index|None), protected first."""
    ordered = list(schema.protected_names)
    ordered += [name for name in schema.names() if name not in schema.protected_names]
    plan = []
    for name in ordered:
        var = schema.variable(name)
        if var.kind == "categorical":
            reference = config.reference_levels.get(name, var.levels[0])
            if reference not in var.levels:
                raise SchemaError(
                    f"reference level {reference!r} is not a level of {name!r}"
                )
            for idx, level in enumerate(var.levels):
                if level != reference:
                    plan.append((f"{name}={level}", var, idx))
        else:
            plan.append((name, var, None))
    return plan


def build_design(
    profiles: list[AttributeProfile],
    schema: AttributeSchema,
    config: EncodingConfig | None = None,
) -> tuple[DesignMatrix, tuple[str, ...]]:
    """Encode complete-case profiles into a regression design.

    Profiles missing any schema variable are dropped and returned as the
    second element.  Raises when too few complete cases remain to leave
    at least one residual degree of freedom.
    """
    config = config or EncodingConfig()
    plan = _column_plan(schema, config)
    names = set(schema.names())
    complete = [p for p in profiles if names <= set(p.values)]
    complete_ids = {p.identity_id for p in complete}
    incomplete = tuple(sorted(p.identity_id for p in profiles if p.identity_id not in complete_ids))
    n_columns = 1 + len(plan)
    if len(complete) < n_columns + 1:
        raise DataError(
            f"{len(complete)} complete cases cannot support {n_columns} design columns"
        )
    matrix = np.ones((len(complete), n_columns), dtype=np.float64)
    for j, (_, var, level_idx) in enumerate(plan, start=1):
        raw = np.array([p.values[var.name] for p in complete], dtype=np.float64)
        if level_idx is not None:
            matrix[:, j] = (raw.astype(np.int64) == level_idx).astype(np.float64)
        else:
            matrix[:, j] = raw
            if config.standardize and var.is_continuous:
                sd = matrix[:, j].std()
                if sd > 0.0:
                    matrix[:, j] = (matrix[:, j] - matrix[:, j].mean()) / sd
    design = DesignMatrix(
        matrix=matrix,
        column_names=("intercept", *(name for name, _, _ in plan)),
        row_ids=tuple(p.identity_id for p in complete),
    )
    return design, incomplete


def response_vector(
    design: DesignMatrix, rates: list[IndividualRates], metric: str
) -> np.ndarray:
    """Rate values aligned to the design rows."""
    if metric not in ("far", "frr"):
        raise DataError(f"metric must be 'far' or 'frr', got {metric!r}")
    by_id = {r.identity_id: getattr(r, metric) for r in rates}
    missing = [i for i in design.row_ids if i not in by_id]
    if missing:
        raise DataError(f"no rates for design rows: {missing[:5]}")
    return np.array([by_id[i] for i in design.row_ids], dtype=np.float64)


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


def run_correlations(design: DesignMatrix, y: np.ndarray) -> CorrelationReport:
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
    skipped = []
    for j, name in enumerate(design.column_names):
        if j == 0:
            continue
        col = design.matrix[:, j]
        if np.all(col == col[0]):
            skipped.append(name)
            continue
        result = pearson(col, y)
        entries.append(
            CorrelationEntry(column=name, r=result.r, p_value=result.p_value, n=result.n)
        )
    return CorrelationReport(
        entries=tuple(entries), skipped=tuple(skipped), constant_response=False
    )


def run_regression(
    design: DesignMatrix, y: np.ndarray
) -> tuple[RegressionFit, tuple[str, ...]]:
    """Fit the joint linear model, dropping constant columns first.

    Returns the fit plus the names of any dropped columns.  Rank
    deficiency beyond constant columns (e.g. collinear dummies) still
    raises, naming the offending columns.
    """
    keep = [0]
    dropped = []
    for j, name in enumerate(design.column_names):
        if j == 0:
            continue
        col = design.matrix[:, j]
        if np.all(col == col[0]):
            dropped.append(name)
        else:
            keep.append(j)
    if dropped:
        design = DesignMatrix(
            matrix=design.matrix[:, keep],
            column_names=tuple(design.column_names[j] for j in keep),
            row_ids=design.row_ids,
        )
    return fit_ols(design, y), tuple(dropped)


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
    design: DesignMatrix,
    incomplete: tuple[str, ...],
    rates: list[IndividualRates],
    metric: str,
    operating_point: OperatingPoint,
) -> ExplanatoryReport:
    """Align rates to a built design, then correlate and regress.

    ``design`` and ``incomplete`` are what ``build_design`` returns for
    the profiles of the rated identities.  The design does not depend
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
        incomplete_identities=incomplete,
    )

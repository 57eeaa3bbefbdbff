"""Explain per-individual error rates from attribute profiles.

Two complementary views: single-variable Pearson correlations between
each encoded attribute column and the rate, and a multiple linear
regression of the rate on all columns jointly.  Categorical attributes
enter as reference-coded dummies, booleans as 0/1, continuous
attributes raw (optionally standardised).

The design depends only on the profiles, so it is built once per audit
and every fit reuses it.  ``build_design`` leaves out the columns that
hold one value as it encodes and names them: the correlations skip
them and the regression drops them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from faceaudit.calibration import OperatingPoint
from faceaudit.cohort import ProfileTable
from faceaudit.errors import DataError
from faceaudit.schema import AttributeSchema
from faceaudit.stats import CorrelationResult, DesignMatrix, RegressionFit, fit_ols, pearson


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
    """A regression design: the intercept and the encoded columns that vary.

    ``encoded`` names every encoded column in plan order, ``constant``
    those left out for holding one value.  ``rows`` holds the profile row
    of each design row; ``incomplete`` names the identities left out.
    """

    rows: np.ndarray
    incomplete: tuple[str, ...]
    encoded: tuple[str, ...]
    constant: tuple[str, ...]


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
    keep, constant = [0], []
    for j, (name, var, level_idx) in enumerate(plan, start=1):
        raw = values[:, names.index(var.name)]
        if level_idx is not None:
            matrix[:, j] = (raw.astype(np.int64) == level_idx).astype(np.float64)
        else:
            matrix[:, j] = raw
            if standardize and var.is_continuous:
                sd = matrix[:, j].std()
                if sd > 0.0:
                    matrix[:, j] = (matrix[:, j] - matrix[:, j].mean()) / sd
        if np.all(matrix[:, j] == matrix[0, j]):
            constant.append(name)
        else:
            keep.append(j)
    encoded = ("intercept", *(name for name, _, _ in plan))
    return Design(
        # The layout is kept: fit_ols's last bits, so report.json's bytes, follow
        # the memory order, C here and Fortran in the copy matrix[:, keep] makes.
        # The criterion-10 and readme-every-key golden designs leave columns out.
        matrix=matrix[:, keep] if constant else matrix,
        column_names=tuple(encoded[j] for j in keep),
        row_ids=tuple(profiles.identities[r] for r in rows.tolist()),
        rows=rows,
        incomplete=incomplete,
        encoded=encoded[1:],
        constant=tuple(constant),
    )


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson r with each design column but the intercept, keyed by
    column in design order; ``skipped`` names the columns left out."""

    entries: Mapping[str, CorrelationResult]
    skipped: tuple[str, ...]
    constant_response: bool


def run_correlations(design: Design, y: np.ndarray) -> CorrelationReport:
    """Pearson r between each explanatory column and the response.

    Constant columns carry no signal and are skipped; a constant
    response makes every correlation undefined, which is flagged.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (design.n_rows,):
        raise DataError("response length must match the design rows")
    if np.all(y == y[0]):
        return CorrelationReport(entries={}, skipped=design.encoded, constant_response=True)
    entries = {
        name: pearson(design.matrix[:, j], y)
        for j, name in enumerate(design.column_names[1:], start=1)
    }
    return CorrelationReport(entries=entries, skipped=design.constant, constant_response=False)


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
    on the threshold, so one build serves every operating point.  A
    constant response is not regressed; rank deficiency in the design
    (e.g. collinear dummies) raises, naming the offending columns.
    """
    if metric not in ("far", "frr"):
        raise DataError(f"metric must be 'far' or 'frr', got {metric!r}")
    y = np.asarray(rates[metric], dtype=np.float64)[design.rows]
    missing = np.flatnonzero(np.isnan(y))
    if missing.size:
        ids = [design.row_ids[i] for i in missing[:5].tolist()]
        raise DataError(f"no rates for design rows: {ids}")
    correlations = run_correlations(design, y)
    regression = None if correlations.constant_response else fit_ols(design, y)
    return ExplanatoryReport(
        metric=metric,
        operating_point=operating_point,
        n_cases=design.n_rows,
        correlations=correlations,
        regression=regression,
        dropped_columns=() if regression is None else design.constant,
        incomplete_identities=design.incomplete,
    )

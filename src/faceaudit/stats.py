"""Self-contained statistics kernel.

Special functions (log-gamma, regularized incomplete beta and gamma),
tail probabilities for the Student-t, chi-square and F distributions,
Pearson correlation with significance, the Kruskal-Wallis H test with
tie correction, and ordinary least squares with per-coefficient
inference.  Everything here is pure and reentrant; numpy is used for
array work and the QR factorization, the scalar special functions are
implemented locally (Lanczos approximation, Lentz continued fractions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from faceaudit.errors import DataError, NumericalError, RankDeficiencyError

_EPS = 1e-15
_MAX_ITER = 500

# Lanczos coefficients, g = 7, n = 9.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (Lanczos, g=7)."""
    if not x > 0.0:
        raise NumericalError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the approximation in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _off_zero(x: float) -> float:
    """``x``, or 1e-300 when it is closer to zero, as Lentz's method needs."""
    return 1e-300 if abs(x) < 1e-300 else x


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericalError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0.0 and b > 0.0):
        raise NumericalError(f"reg_incomplete_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise NumericalError(f"reg_incomplete_beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # symmetry switch keeps the continued fraction fast-converging
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma via its power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - ln_gamma(a))
    raise NumericalError(f"incomplete gamma series failed for a={a}, x={x}")


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized incomplete gamma via continued fraction (x >= a + 1)."""
    b = x + 1.0 - a
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _off_zero(an * d + b)
        c = _off_zero(b + an / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - ln_gamma(a))
    raise NumericalError(f"incomplete gamma continued fraction failed for a={a}, x={x}")


def chi_square_sf(x: float, dof: int) -> float:
    """P(X >= x) for a chi-square variable with `dof` degrees of freedom."""
    if dof < 1:
        raise NumericalError(f"chi_square_sf requires dof >= 1, got {dof}")
    if x < 0.0:
        raise NumericalError(f"chi_square_sf requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    a = 0.5 * dof
    half = 0.5 * x
    if half < a + 1.0:
        return 1.0 - _gamma_p_series(a, half)
    return _gamma_q_contfrac(a, half)


def student_t_sf_two_sided(t: float, dof: int) -> float:
    """Two-sided tail P(|T| >= |t|) of Student's t with `dof` degrees of freedom."""
    if dof < 1:
        raise NumericalError(f"student_t_sf_two_sided requires dof >= 1, got {dof}")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return reg_incomplete_beta(0.5 * dof, 0.5, x)


def f_sf(f: float, dof1: int, dof2: int) -> float:
    """P(F >= f) for an F variable with (dof1, dof2) degrees of freedom."""
    if dof1 < 1 or dof2 < 1:
        raise NumericalError(f"f_sf requires dof >= 1, got ({dof1}, {dof2})")
    if math.isnan(f):
        return math.nan
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = dof2 / (dof2 + dof1 * f)
    return reg_incomplete_beta(0.5 * dof2, 0.5 * dof1, x)


@dataclass(frozen=True)
class CorrelationResult:
    """Sample Pearson correlation with a two-sided t-test p-value."""

    r: float
    p_value: float
    n: int


def pearson(x, y) -> CorrelationResult:
    """Pearson correlation of two equal-length samples (n >= 3).

    The p-value is two-sided, from t = r * sqrt((n-2) / (1-r^2)) with
    n-2 degrees of freedom.  Raises on constant input (r undefined).
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
        raise DataError("pearson requires two 1-d samples of equal length")
    n = xs.size
    if n < 3:
        raise DataError(f"pearson requires n >= 3, got n={n}")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise DataError("pearson is undefined for a constant sample")
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    denom = 1.0 - r * r
    if denom <= 0.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / denom)
        p = student_t_sf_two_sided(t, n - 2)
    return CorrelationResult(r=r, p_value=p, n=n)


def _midranks(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Mid-ranks of a pooled sample and the tie-correction sum (t^3 - t)."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # Runs of equal sorted values span positions i..j; each gets rank (i+j)/2 + 1.
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.size] - 1
    runs = ends - starts + 1
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, runs)
    return ranks, float(np.sum(runs**3 - runs))


def kruskal_wallis(samples) -> tuple[float, float]:
    """Kruskal-Wallis H and chi-square p-value for k >= 2 samples.

    Uses mid-ranks for ties and the standard tie correction
    1 - sum(t^3 - t) / (N^3 - N); if every pooled observation is
    identical, H is defined as 0 with p = 1.
    """
    groups = [np.asarray(s, dtype=float).ravel() for s in samples]
    if len(groups) < 2:
        raise DataError("kruskal_wallis requires at least two samples")
    if any(g.size == 0 for g in groups):
        raise DataError("kruskal_wallis requires non-empty samples")
    pooled = np.concatenate(groups)
    n_total = pooled.size
    if n_total < 3:
        raise DataError("kruskal_wallis requires at least 3 observations in total")
    ranks, tie_sum = _midranks(pooled)
    correction = 1.0 - tie_sum / (n_total**3 - n_total)
    if correction == 0.0:
        # all observations identical
        return 0.0, 1.0
    h = 0.0
    offset = 0
    mean_rank = 0.5 * (n_total + 1)
    for g in groups:
        r_mean = float(ranks[offset : offset + g.size].mean())
        h += g.size * (r_mean - mean_rank) ** 2
        offset += g.size
    h *= 12.0 / (n_total * (n_total + 1))
    h /= correction
    return h, chi_square_sf(h, len(groups) - 1)


@dataclass(frozen=True)
class DesignMatrix:
    """Regression design: intercept column first, one row per individual."""

    matrix: np.ndarray
    column_names: tuple[str, ...]
    row_ids: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2:
            raise DataError("design matrix must be 2-d")
        if m.shape[1] != len(self.column_names):
            raise DataError("column_names length does not match matrix width")
        if m.shape[0] != len(self.row_ids):
            raise DataError("row_ids length does not match matrix height")
        if len(set(self.column_names)) != len(self.column_names):
            raise DataError("design column names must be unique")
        if not np.isfinite(m).all():
            raise DataError("design matrix contains non-finite entries")
        if self.column_names and self.column_names[0] != "intercept":
            raise DataError("first design column must be the intercept")
        if m.size and not np.all(m[:, 0] == 1.0):
            raise DataError("intercept column must be all ones")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _qr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q, R, R^-1) of the design, factored once for every response
        fitted against it; a rank-deficient design raises each time."""
        q, r = np.linalg.qr(self.matrix)
        diag = np.abs(np.diag(r))
        bad = diag <= _RANK_TOL * diag.max()
        if bad.any():
            raise RankDeficiencyError([self.column_names[i] for i in np.flatnonzero(bad)])
        return q, r, np.linalg.solve(r, np.eye(self.n_columns))


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit with per-coefficient inference and residual diagnostics."""

    column_names: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    residuals: np.ndarray
    r_squared: float
    f_statistic: float
    f_p_value: float
    dof_residual: int
    n_rows: int = field(default=0)

    def _index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self._index(name)])

    def p_value(self, name: str) -> float:
        return float(self.p_values[self._index(name)])


_RANK_TOL = 1e-10


def fit_ols(design: DesignMatrix, y) -> RegressionFit:
    """Least-squares fit of y on the design via QR factorization, which
    the design computes once and keeps for every later fit.

    Standard errors come from s^2 * diag((X'X)^-1) computed through the
    triangular factor, t statistics use dof = rows - columns, and the
    global F test covers all non-intercept coefficients.  Raises
    RankDeficiencyError naming the dependent column(s) when a diagonal
    of R falls below 1e-10 times the largest diagonal.
    """
    yv = np.asarray(y, dtype=float).ravel()
    x = design.matrix
    n, p = x.shape
    if yv.size != n:
        raise DataError(f"response length {yv.size} does not match {n} design rows")
    if not np.isfinite(yv).all():
        raise DataError("response contains non-finite values")
    if n <= p:
        raise DataError(f"fit requires more rows than columns, got {n} rows x {p} columns")

    q, r, r_inv = design._qr
    beta = np.linalg.solve(r, q.T @ yv)
    residuals = yv - x @ beta
    dof = n - p
    rss = float(residuals @ residuals)
    s2 = rss / dof

    xtx_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    std_errors = np.sqrt(s2 * xtx_inv_diag)

    t_stats = np.empty(p)
    p_values = np.empty(p)
    for j in range(p):
        if std_errors[j] == 0.0:
            t_stats[j] = 0.0 if beta[j] == 0.0 else math.copysign(math.inf, beta[j])
        else:
            t_stats[j] = beta[j] / std_errors[j]
        p_values[j] = student_t_sf_two_sided(float(t_stats[j]), dof)

    tss = float(np.sum((yv - yv.mean()) ** 2))
    tiny = _RANK_TOL * max(1.0, float(yv @ yv))
    if tss <= tiny:
        r_squared = 1.0 if rss <= tiny else 0.0
    else:
        r_squared = 1.0 - rss / tss

    dof_model = p - 1
    if dof_model == 0 or tss <= tiny:
        f_statistic = 0.0
        f_p_value = 1.0
    elif rss <= tiny:
        f_statistic = math.inf
        f_p_value = 0.0
    else:
        f_statistic = ((tss - rss) / dof_model) / s2
        f_p_value = f_sf(f_statistic, dof_model, dof)

    return RegressionFit(
        column_names=design.column_names,
        coefficients=beta,
        std_errors=std_errors,
        t_stats=t_stats,
        p_values=p_values,
        residuals=residuals,
        r_squared=r_squared,
        f_statistic=f_statistic,
        f_p_value=f_p_value,
        dof_residual=dof,
        n_rows=n,
    )

"""Numerical kernel tests: special functions, correlation, rank tests, OLS.

Reference values come from scipy/mpmath evaluated at test-writing time or
from hand evaluation of the defining formulas; the library itself never
imports them.
"""

import math

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given, settings
from hypothesis import strategies as st

from faceaudit.errors import DataError, NumericalError, RankDeficiencyError
from faceaudit.stats import (
    DesignMatrix,
    chi_square_sf,
    f_sf,
    fit_ols,
    kruskal_wallis,
    ln_gamma,
    pearson,
    reg_incomplete_beta,
    student_t_sf_two_sided,
)


class TestLnGamma:
    def test_factorial_values(self):
        # ln((n-1)!) for small integers, exact arithmetic
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-12)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)
        assert ln_gamma(11.0) == pytest.approx(math.log(3628800.0), abs=1e-10)

    def test_half_integer(self):
        # Gamma(1/2) = sqrt(pi)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_against_math_lgamma_small_range(self):
        for x in np.linspace(0.5, 50.0, 200):
            assert abs(ln_gamma(float(x)) - math.lgamma(float(x))) <= 1e-10

    def test_against_math_lgamma_large_range_relative(self):
        # absolute 1e-10 is below float64 resolution once lnGamma ~ 1e7,
        # so large arguments are held to a tight relative bound instead
        for x in (1e3, 1e4, 1e5, 1e6):
            want = math.lgamma(x)
            assert abs(ln_gamma(x) - want) <= 1e-13 * abs(want)

    def test_reflection_below_half(self):
        for x in (0.1, 0.25, 0.49):
            assert ln_gamma(x) == pytest.approx(math.lgamma(x), abs=1e-10)

    def test_pole_rejected(self):
        with pytest.raises(NumericalError):
            ln_gamma(0.0)
        with pytest.raises(NumericalError):
            ln_gamma(-3.0)


class TestIncompleteBeta:
    def test_closed_form_value(self):
        # I_0.5(2,3) = 11/16, from expanding the integral polynomial
        assert reg_incomplete_beta(2.0, 3.0, 0.5) == pytest.approx(0.6875, abs=1e-12)

    def test_boundaries(self):
        assert reg_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case_is_identity(self):
        for x in (0.1, 0.37, 0.9):
            assert reg_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_oracle_grid(self):
        # frozen from mpmath.betainc(a, b, 0, x, regularized=True), dps=40
        cases = [
            (0.5, 0.5, 0.25, 0.3333333333333333),
            (2.0, 5.0, 0.3, 0.579825),
            (7.0, 3.0, 0.8, 0.7381975040000001),
            (15.0, 12.0, 0.55, 0.4713282980395647),
        ]
        for a, b, x, want in cases:
            assert reg_incomplete_beta(a, b, x) == pytest.approx(want, abs=1e-10)

    @given(
        a=st.floats(0.3, 20.0),
        b=st.floats(0.3, 20.0),
        x=st.floats(0.01, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b, x):
        lhs = reg_incomplete_beta(a, b, x)
        rhs = 1.0 - reg_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(a=st.floats(0.3, 20.0), b=st.floats(0.3, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_x(self, a, b):
        xs = np.linspace(0.05, 0.95, 10)
        vals = [reg_incomplete_beta(a, b, float(x)) for x in xs]
        assert all(u <= v + 1e-12 for u, v in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(NumericalError):
            reg_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(NumericalError):
            reg_incomplete_beta(1.0, 2.0, 1.5)


class TestIncompleteGamma:
    # chi_square_sf(x, 2a) = 1 - P(a, x / 2), with P the lower regularized
    # incomplete gamma function.
    def test_exponential_case(self):
        # P(1, x) = 1 - exp(-x)
        for x in (0.2, 1.0, 4.0):
            assert chi_square_sf(2 * x, 2) == pytest.approx(math.exp(-x), abs=1e-13)

    def test_boundary(self):
        assert chi_square_sf(0.0, 6) == 1.0

    def test_oracle_values(self):
        # frozen from mpmath.gammainc(a, 0, x, regularized=True), dps=40
        cases = [
            (0.5, 0.5, 0.6826894921370859),
            (3.0, 2.0, 0.3233235838169365),
            (10.0, 12.0, 0.7576078383294877),
            (25.0, 20.0, 0.1567726218262377),
        ]
        for a, x, want in cases:
            assert chi_square_sf(2 * x, int(2 * a)) == pytest.approx(1 - want, abs=1e-12)

    def test_series_and_continued_fraction_agree_at_switch(self):
        # the implementation switches representation at x / 2 = a + 1
        a = 4.0
        lo = chi_square_sf(2 * (a + 1) - 2e-9, int(2 * a))
        hi = chi_square_sf(2 * (a + 1) + 2e-9, int(2 * a))
        assert abs(hi - lo) < 1e-8


class TestTailFunctions:
    def test_t_cauchy_quartile(self):
        # dof 1 is Cauchy: two-sided tail beyond |t|=1 is exactly 1/2
        assert student_t_sf_two_sided(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_t_zero_and_infinity(self):
        assert student_t_sf_two_sided(0.0, 5) == 1.0
        assert student_t_sf_two_sided(math.inf, 5) == 0.0

    def test_t_sign_symmetric(self):
        assert student_t_sf_two_sided(-2.3, 7) == student_t_sf_two_sided(2.3, 7)

    def test_t_oracle_grid(self):
        for dof in range(1, 31):
            for t in (0.1, 0.8, 1.5, 2.5, 4.0, 7.0):
                want = 2 * float(ss.t.sf(t, dof))
                assert student_t_sf_two_sided(t, dof) == pytest.approx(want, abs=1e-10)

    def test_chi2_median_of_two_dof(self):
        # dof 2 is exponential(1/2): SF(2 ln 2) = 1/2
        assert chi_square_sf(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-12)

    def test_chi2_oracle_grid(self):
        for dof in range(1, 31):
            for x in (0.1, 1.0, 4.0, 10.0, 25.0, 50.0):
                want = float(ss.chi2.sf(x, dof))
                assert chi_square_sf(x, dof) == pytest.approx(want, abs=1e-10)

    def test_f_oracle_grid(self):
        for d1 in (1, 2, 5, 21):
            for d2 in (1, 4, 30, 120):
                for f in (0.2, 1.0, 3.0, 8.0):
                    want = float(ss.f.sf(f, d1, d2))
                    assert f_sf(f, d1, d2) == pytest.approx(want, abs=1e-10)

    @given(dof=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_t_monotone_in_magnitude(self, dof):
        ts = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [student_t_sf_two_sided(t, dof) for t in ts]
        assert all(u >= v - 1e-12 for u, v in zip(vals, vals[1:]))


class TestPearson:
    def test_hand_value(self):
        # centered products: cov = 1.0, sd_x = sd_y = sqrt(5/4)... -> r = 0.8
        result = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
        assert result.r == pytest.approx(0.8, abs=1e-12)
        assert result.p_value == pytest.approx(0.2, abs=1e-12)
        assert result.n == 4

    def test_perfect_correlation(self):
        result = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert result.r == pytest.approx(1.0, abs=1e-12)
        assert result.p_value == pytest.approx(0.0, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=25)
            y = rng.normal(size=25) + 0.3 * x
            want_r, want_p = ss.pearsonr(x, y)
            got = pearson(x, y)
            assert got.r == pytest.approx(want_r, abs=1e-12)
            assert got.p_value == pytest.approx(want_p, abs=1e-10)

    def test_constant_input_rejected(self):
        with pytest.raises(DataError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            pearson([1.0, 2.0], [3.0, 4.0])

    @given(
        st.lists(
            st.floats(-100, 100).map(lambda v: round(v, 6)),
            min_size=4,
            max_size=20,
        ),
        st.floats(0.1, 10.0),
        st.floats(-5.0, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, xs, scale, shift):
        rng = np.random.default_rng(3)
        x = np.asarray(xs)
        if np.ptp(x) < 1e-5:
            return
        y = rng.normal(size=len(x))
        if np.ptp(y) == 0:
            return
        base = pearson(x, y)
        scaled = pearson(scale * x + shift, y)
        assert scaled.r == pytest.approx(base.r, abs=1e-8)


class TestKruskalWallis:
    def test_disjoint_integer_groups(self):
        h, p = kruskal_wallis([np.arange(1.0, 6.0), np.arange(6.0, 11.0)])
        assert h == pytest.approx(6.818181818, abs=1e-6)
        assert p == pytest.approx(0.00902, abs=1e-4)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            groups = [
                rng.integers(0, 6, size=rng.integers(5, 15)).astype(float)
                for _ in range(3)
            ]
            want = ss.kruskal(*groups)
            h, p = kruskal_wallis(groups)
            assert h == pytest.approx(want.statistic, abs=1e-10)
            assert p == pytest.approx(want.pvalue, abs=1e-10)

    def test_all_identical_is_null(self):
        h, p = kruskal_wallis([np.full(5, 2.0), np.full(7, 2.0)])
        assert h == 0.0
        assert p == 1.0

    def test_needs_two_groups(self):
        with pytest.raises(DataError):
            kruskal_wallis([np.arange(5.0)])

    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            kruskal_wallis([np.arange(5.0), np.array([])])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_label_permutation_of_pooled_identical_values(self, seed):
        # relabelling which group an observation belongs to changes H,
        # but permuting values WITHIN groups never does
        rng = np.random.default_rng(seed)
        a = rng.normal(size=8)
        b = rng.normal(size=6)
        h1, p1 = kruskal_wallis([a, b])
        h2, p2 = kruskal_wallis([rng.permutation(a), rng.permutation(b)])
        assert h1 == pytest.approx(h2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)


def _design(matrix, names=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    if names is None:
        names = ("intercept",) + tuple(f"x{i}" for i in range(1, matrix.shape[1]))
    rows = tuple(f"r{i}" for i in range(matrix.shape[0]))
    return DesignMatrix(matrix=matrix, column_names=tuple(names), row_ids=rows)


class TestDesignMatrix:
    def test_requires_intercept_first(self):
        bad = np.column_stack([np.arange(4.0), np.ones(4)])
        with pytest.raises(DataError):
            _design(bad)

    def test_rejects_nonfinite(self):
        m = np.ones((4, 2))
        m[2, 1] = np.nan
        with pytest.raises(DataError):
            _design(m)

    def test_rejects_duplicate_names(self):
        m = np.ones((4, 2))
        with pytest.raises(DataError):
            _design(m, names=("intercept", "intercept"))


class TestFitOls:
    def test_design_factored_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        responses = [rng.normal(size=40) for _ in range(4)]
        fresh = [fit_ols(_design(X), y) for y in responses]  # one design per fit
        qr, calls = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda m: calls.append(m) or qr(m))
        design = _design(X)
        shared = [fit_ols(design, y) for y in responses]
        assert len(calls) == 1
        for a, b in zip(fresh, shared):
            for name in ("coefficients", "std_errors", "t_stats", "p_values", "residuals"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            for name in ("r_squared", "f_statistic", "f_p_value"):
                assert getattr(a, name) == getattr(b, name)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        beta = np.array([1.5, -2.0, 0.25, 4.0])
        fit = fit_ols(_design(X), X @ beta)
        assert np.abs(np.array(fit.coefficients) - beta).max() < 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_inference_matches_manual_oracle(self):
        rng = np.random.default_rng(42)
        n, p = 60, 5
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        beta = np.array([0.5, 1.0, -2.0, 0.0, 3.0])
        y = X @ beta + rng.normal(scale=0.3, size=n)
        fit = fit_ols(_design(X), y)

        beta_hat, *_ = np.linalg.lstsq(X, y, rcond=None)
        resid = y - X @ beta_hat
        dof = n - p
        s2 = resid @ resid / dof
        se = np.sqrt(np.diag(s2 * np.linalg.inv(X.T @ X)))
        tstats = beta_hat / se
        pvals = 2 * ss.t.sf(np.abs(tstats), dof)
        assert np.abs(np.array(fit.coefficients) - beta_hat).max() < 1e-10
        assert np.abs(np.array(fit.std_errors) - se).max() < 1e-10
        assert np.abs(np.array(fit.t_stats) - tstats).max() < 1e-8
        assert np.abs(np.array(fit.p_values) - pvals).max() < 1e-10
        assert fit.dof_residual == dof

    def test_f_statistic_matches_manual_oracle(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        y = X @ np.array([1.0, 0.5, 0.0]) + rng.normal(scale=0.5, size=50)
        fit = fit_ols(_design(X), y)
        resid = np.asarray(fit.residuals)
        rss = resid @ resid
        tss = ((y - y.mean()) ** 2).sum()
        F = ((tss - rss) / 2) / (rss / (50 - 3))
        assert fit.f_statistic == pytest.approx(F, rel=1e-10)
        assert fit.f_p_value == pytest.approx(float(ss.f.sf(F, 2, 47)), abs=1e-12)

    def test_exactly_collinear_column_named(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        X = np.column_stack([X, X[:, 1] + X[:, 2]])
        with pytest.raises(RankDeficiencyError) as err:
            fit_ols(_design(X), rng.normal(size=30))
        assert "x3" in str(err.value)
        assert err.value.columns == ("x3",)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(13)
        X = np.column_stack([np.ones(45), rng.normal(size=(45, 4))])
        y = rng.normal(size=45)
        fit = fit_ols(_design(X), y)
        assert np.abs(X.T @ np.asarray(fit.residuals)).max() < 1e-9

    def test_intercept_only_model(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        fit = fit_ols(_design(np.ones((4, 1))), y)
        assert fit.coefficients[0] == pytest.approx(3.0)
        assert fit.f_statistic == 0.0
        assert fit.f_p_value == 1.0

    def test_needs_residual_dof(self):
        X = np.column_stack([np.ones(3), np.arange(3.0), np.arange(3.0) ** 2])
        with pytest.raises(DataError):
            fit_ols(_design(X), np.arange(3.0))

    def test_named_accessors(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        fit = fit_ols(_design(X), rng.normal(size=20))
        assert fit.coefficient("x1") == fit.coefficients[1]
        assert fit.p_value("x1") == fit.p_values[1]
        with pytest.raises(KeyError):
            fit.coefficient("missing")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_r_squared_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(25), rng.normal(size=(25, 2))])
        y = rng.normal(size=25)
        fit = fit_ols(_design(X), y)
        assert -1e-12 <= fit.r_squared <= 1.0 + 1e-12

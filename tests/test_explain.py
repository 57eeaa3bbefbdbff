"""Tests for the rate-explanation layer: encoding, correlations, regression."""

import numpy as np
import pytest
import scipy.stats

from conftest import (
    profile_rows,
    profile_table,
    scored_trials,
    small_config,
    synth_cohort,
    trial_set,
)
from faceaudit.errors import DataError, RankDeficiencyError, SchemaError
from faceaudit.explain import build_design, explanatory_report, run_correlations
from faceaudit.calibration import OperatingPoint
from faceaudit.metrics import trial_census
from faceaudit.pipeline import AuditOptions, run_audit
from faceaudit.schema import default_schema
from faceaudit.stats import fit_ols, pearson

SCHEMA = default_schema()

EXPECTED_COLUMNS = (
    "intercept",
    "gender=woman",
    "ethnicity=black",
    "ethnicity=caucasian",
    "age",
    "mustache",
    "beard",
    "sideburns",
    "eye_makeup",
    "lip_makeup",
    "head_wear",
    "glasses",
    "roll",
    "yaw",
    "pitch",
    "forehead_occluded",
    "eyes_occluded",
    "mouth_occluded",
    "exposure",
    "blur",
    "smile",
    "noise",
)


def random_rows(n, seed=0):
    """{identity: values} of complete-case profiles with values drawn
    inside each variable's range."""
    rng = np.random.default_rng(seed)
    rows = {}
    for i in range(n):
        values = {}
        for var in SCHEMA.variables:
            if var.kind == "categorical":
                values[var.name] = float(rng.integers(len(var.levels)))
            elif var.kind == "boolean":
                values[var.name] = float(rng.integers(2))
            else:
                lo, hi = var.bounds()
                values[var.name] = float(rng.uniform(lo, hi))
        rows[f"id{i:03d}"] = values
    return rows


def random_profiles(n, seed=0):
    return profile_table(random_rows(n, seed))


def rates_for(profiles, fn, seed=0):
    """{"far": ..., "frr": ...} aligned with the profile rows; FAR follows
    ``fn`` of the identity's values."""
    rng = np.random.default_rng(seed)
    far, frr = [], []
    for values in profile_rows(profiles).values():
        far.append(float(np.clip(fn(values) + rng.normal(0, 0.01), 0, 1)))
        frr.append(float(rng.uniform(0, 1)))
    return {"far": np.array(far), "frr": np.array(frr)}


def with_values(rows, **values):
    """``rows`` with ``values`` set in every profile."""
    return profile_table({identity: {**row, **values} for identity, row in rows.items()})


class TestBuildDesign:
    def test_column_count_and_order(self):
        design = build_design(random_profiles(30), SCHEMA)
        assert design.incomplete == ()
        assert design.matrix.shape == (30, 22)
        assert len(design.column_names) == 22
        assert design.column_names[0] == "intercept"
        # protected variables lead, in schema protected order
        assert design.column_names[1:5] == (
            "gender=woman",
            "ethnicity=black",
            "ethnicity=caucasian",
            "age",
        )
        assert set(design.column_names) == set(EXPECTED_COLUMNS)

    def test_intercept_is_ones(self):
        design = build_design(random_profiles(25), SCHEMA)
        np.testing.assert_array_equal(design.matrix[:, 0], np.ones(25))

    def test_dummy_encoding(self):
        profiles = random_profiles(30)
        design = build_design(profiles, SCHEMA)
        j = design.column_names.index("ethnicity=black")
        raw = profiles.values[:, SCHEMA.names().index("ethnicity")]
        np.testing.assert_array_equal(design.matrix[:, j], (raw == 1.0).astype(float))
        # asian is the reference: both dummies zero
        k = design.column_names.index("ethnicity=caucasian")
        asian_rows = raw == 0.0
        assert not design.matrix[asian_rows, j].any()
        assert not design.matrix[asian_rows, k].any()

    def test_reference_level_override(self):
        design = build_design(random_profiles(30), SCHEMA, reference_levels={"gender": "woman"})
        assert "gender=man" in design.column_names
        assert "gender=woman" not in design.column_names

    def test_unknown_reference_rejected(self):
        # run_audit checks the levels against the schema before it builds a design
        trials = trial_set([("a_0", "a_1")], {"a_0": "a", "a_1": "a"})
        options = AuditOptions(explain=True, reference_levels={"gender": "other"})
        with pytest.raises(SchemaError, match=r"reference_levels\['gender'\]: .* no level 'other'"):
            run_audit(trial_census(trials, np.array([0.5])), random_profiles(30), SCHEMA, options)

    def test_incomplete_profiles_dropped(self):
        rows = random_rows(30)
        rows["gap01"] = dict(list(rows["id000"].items())[:5])
        design = build_design(profile_table(rows), SCHEMA)
        assert design.incomplete == ("gap01",)
        assert design.n_rows == 30
        assert "gap01" not in design.row_ids

    def test_too_few_complete_cases_rejected(self):
        with pytest.raises(DataError):
            build_design(random_profiles(20), SCHEMA)  # 22 columns need >= 23 rows

    def test_standardize_scales_continuous_only(self):
        design = build_design(random_profiles(40), SCHEMA, standardize=True)
        age = design.matrix[:, design.column_names.index("age")]
        assert abs(age.mean()) < 1e-10
        assert age.std() == pytest.approx(1.0)
        dummy = design.matrix[:, design.column_names.index("gender=woman")]
        assert set(np.unique(dummy)) <= {0.0, 1.0}
        flag = design.matrix[:, design.column_names.index("eyes_occluded")]
        assert set(np.unique(flag)) <= {0.0, 1.0}

    def test_row_ids_track_profiles(self):
        profiles = random_profiles(25)
        design = build_design(profiles, SCHEMA)
        assert design.row_ids == profiles.identities


class TestResponseVector:
    """The response ``explanatory_report`` gathers from profile-aligned rates."""

    OP = OperatingPoint(tau=0.4, far=0.05, frr=0.1, policy="eer")

    def test_alignment(self):
        profiles = random_profiles(25)
        # design rows in another order than the profile rows
        design = build_design(profiles, SCHEMA, rows=np.arange(25)[::-1])
        rates = rates_for(profiles, lambda v: 0.05 + 0.4 * v["blur"])
        report = explanatory_report(design, rates, "far", self.OP)
        by_id = dict(zip(profiles.identities, rates["far"]))
        y = np.array([by_id[i] for i in design.row_ids])
        assert repr(report.correlations) == repr(run_correlations(design, y))
        assert repr(report.regression) == repr(fit_ols(design, y))

    def test_missing_rate_rejected(self):
        profiles = random_profiles(25)
        design = build_design(profiles, SCHEMA)
        rates = rates_for(profiles, lambda v: 0.5)
        rates["far"][-1] = np.nan  # the last identity has no rates
        with pytest.raises(DataError, match="id024"):
            explanatory_report(design, rates, "far", self.OP)

    def test_missing_rates_named_up_to_five(self):
        profiles = random_profiles(25)
        design = build_design(profiles, SCHEMA)
        rates = rates_for(profiles, lambda v: 0.5)
        rates["far"][:7] = np.nan
        want = "no rates for design rows: ['id000', 'id001', 'id002', 'id003', 'id004']"
        with pytest.raises(DataError) as exc:
            explanatory_report(design, rates, "far", self.OP)
        assert str(exc.value) == want

    def test_bad_metric_rejected(self):
        profiles = random_profiles(25)
        design = build_design(profiles, SCHEMA)
        with pytest.raises(DataError):
            explanatory_report(design, rates_for(profiles, lambda v: 0.5), "precision", self.OP)


class TestRunCorrelations:
    def test_matches_reference_pearson(self):
        profiles = random_profiles(40, seed=3)
        design = build_design(profiles, SCHEMA)
        rng = np.random.default_rng(5)
        y = rng.uniform(size=40)
        report = run_correlations(design, y)
        assert not report.constant_response
        assert tuple(report.entries) == design.column_names[1:]
        for column, entry in report.entries.items():
            col = design.matrix[:, design.column_names.index(column)]
            want_r, want_p = scipy.stats.pearsonr(col, y)
            assert entry.r == pytest.approx(want_r, abs=1e-10)
            assert entry.p_value == pytest.approx(want_p, abs=1e-10)
            assert entry.n == 40

    def test_skips_intercept(self):
        profiles = random_profiles(30)
        design = build_design(profiles, SCHEMA)
        report = run_correlations(design, np.random.default_rng(0).uniform(size=30))
        assert "intercept" not in report.entries

    def test_constant_column_skipped(self):
        profiles = with_values(random_rows(30), blur=0.5)  # constant across the cohort
        design = build_design(profiles, SCHEMA)
        report = run_correlations(design, np.random.default_rng(0).uniform(size=30))
        assert "blur" in report.skipped
        assert "blur" not in report.entries

    def test_constant_response_flagged(self):
        design = build_design(random_profiles(30), SCHEMA)
        report = run_correlations(design, np.full(30, 0.25))
        assert report.constant_response
        assert report.entries == {}
        assert len(report.skipped) == 21

    def test_entry_lookup(self):
        design = build_design(random_profiles(30), SCHEMA)
        y = np.random.default_rng(1).uniform(size=30)
        report = run_correlations(design, y)
        j = design.column_names.index("blur")
        assert report.entries["blur"].r == pearson(design.matrix[:, j], y).r
        with pytest.raises(KeyError):
            report.entries["nonexistent"]

    def test_length_mismatch_rejected(self):
        design = build_design(random_profiles(30), SCHEMA)
        with pytest.raises(DataError):
            run_correlations(design, np.zeros(31))


class TestRunRegression:
    """``fit_ols`` on the design, as ``explanatory_report`` regresses."""

    def test_planted_coefficients_recovered(self):
        profiles = random_profiles(200, seed=7)
        design = build_design(profiles, SCHEMA)
        j_blur = design.column_names.index("blur")
        j_yaw = design.column_names.index("yaw")
        y = 0.1 + 0.6 * design.matrix[:, j_blur] + 0.002 * design.matrix[:, j_yaw]
        fit = fit_ols(design, y)
        assert design.constant == ()
        assert fit.coefficient("blur") == pytest.approx(0.6, abs=1e-8)
        assert fit.coefficient("yaw") == pytest.approx(0.002, abs=1e-8)
        assert fit.coefficient("intercept") == pytest.approx(0.1, abs=1e-8)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_constant_columns_dropped_not_fatal(self):
        profiles = with_values(random_rows(60), smile=0.0)
        rates = {"far": np.random.default_rng(2).uniform(size=60), "frr": np.zeros(60)}
        op = OperatingPoint(tau=0.4, far=0.05, frr=0.1, policy="eer")
        report = explanatory_report(build_design(profiles, SCHEMA), rates, "far", op)
        assert report.dropped_columns == ("smile",)
        assert "smile" not in report.regression.column_names
        assert len(report.regression.column_names) == 21

    def test_collinear_columns_still_raise(self):
        # two perfectly collinear continuous columns cannot be separated
        rows = random_rows(60)
        profiles = profile_table({i: {**row, "noise": row["blur"]} for i, row in rows.items()})
        design = build_design(profiles, SCHEMA)
        y = np.random.default_rng(3).uniform(size=60)
        with pytest.raises(RankDeficiencyError):
            fit_ols(design, y)

    def test_matches_reference_implementation(self):
        profiles = random_profiles(100, seed=11)
        design = build_design(profiles, SCHEMA)
        rng = np.random.default_rng(13)
        y = rng.uniform(size=100)
        fit = fit_ols(design, y)
        want, *_ = np.linalg.lstsq(design.matrix, y, rcond=None)
        np.testing.assert_allclose(fit.coefficients, want, atol=1e-10)


class TestExplanatoryReport:
    def test_end_to_end_recovers_planted_effect(self):
        profiles = random_profiles(120, seed=17)
        rates = rates_for(profiles, lambda v: 0.05 + 0.4 * v["blur"], seed=19)
        op = OperatingPoint(tau=0.4, far=0.05, frr=0.1, policy="eer")
        report = explanatory_report(build_design(profiles, SCHEMA), rates, "far", op)
        assert report.metric == "far"
        assert report.n_cases == 120
        assert report.operating_point is op
        blur_r = report.correlations.entries["blur"]
        assert blur_r.r > 0.5
        assert blur_r.p_value < 0.01
        assert report.regression is not None
        assert report.regression.coefficient("blur") == pytest.approx(0.4, abs=0.05)
        assert report.regression.p_value("blur") < 0.01

    def test_only_rated_profiles_enter(self):
        # the audit builds the design over rated identities only: complete
        # profiles of identities without trials stay out of it
        config = small_config(
            identities_per_group={("man", "asian"): 14, ("woman", "asian"): 14}
        )
        cohort, result = synth_cohort(config)
        trials, scores = scored_trials(cohort)
        profiles = profile_table({**profile_rows(result.profiles), **random_rows(12)})
        options = AuditOptions(policies=("eer", "far@0.01"), explain=True)
        results = run_audit(trial_census(trials, scores), profiles, SCHEMA, options)
        for analysis in results["analyses"]:
            assert analysis["explain"]["frr"]["n_cases"] == 28

    def test_constant_response_skips_regression(self):
        profiles = random_profiles(40)
        rates = {"far": np.zeros(40), "frr": np.zeros(40)}
        op = OperatingPoint(tau=0.4, far=0.0, frr=0.0, policy="far@0.001")
        report = explanatory_report(build_design(profiles, SCHEMA), rates, "far", op)
        assert report.correlations.constant_response
        assert report.regression is None

    def test_constant_response_skips_every_encoded_column(self):
        # a constant column and a constant response: every encoded column
        # is skipped, in plan order, and none is dropped from a regression
        plan = build_design(random_profiles(40), SCHEMA).column_names[1:]
        profiles = with_values(random_rows(40), smile=0.0)
        rates = {"far": np.zeros(40), "frr": np.zeros(40)}
        op = OperatingPoint(tau=0.4, far=0.0, frr=0.0, policy="far@0.001")
        report = explanatory_report(build_design(profiles, SCHEMA), rates, "far", op)
        assert report.correlations.constant_response
        assert report.correlations.skipped == plan
        assert report.regression is None
        assert report.dropped_columns == ()

    def test_constant_columns_left_out_in_plan_order(self):
        plan = build_design(random_profiles(40), SCHEMA).column_names[1:]
        profiles = with_values(random_rows(40), smile=0.0, gender=0.0, blur=0.5)
        design = build_design(profiles, SCHEMA)
        assert design.encoded == plan
        assert design.constant == ("gender=woman", "blur", "smile")
        assert design.column_names == ("intercept", *(c for c in plan if c not in design.constant))
        assert design.matrix.shape == (40, 19)
        assert not any(np.all(column == column[0]) for column in design.matrix.T[1:])
        rates = rates_for(profiles, lambda v: 0.05 + 0.4 * v["yaw"] / 90)
        op = OperatingPoint(tau=0.4, far=0.05, frr=0.1, policy="eer")
        report = explanatory_report(design, rates, "far", op)
        assert report.correlations.skipped == design.constant
        assert tuple(report.correlations.entries) == design.column_names[1:]
        assert report.regression.column_names == design.column_names
        assert report.dropped_columns == design.constant

    def test_incomplete_identities_surface(self):
        profiles = profile_table({**random_rows(40), "gap": {"blur": 0.2}})
        rates = rates_for(profiles, lambda v: 0.3)
        op = OperatingPoint(tau=0.4, far=0.05, frr=0.1, policy="eer")
        report = explanatory_report(build_design(profiles, SCHEMA), rates, "far", op)
        assert report.incomplete_identities == ("gap",)

    def test_bad_metric_rejected(self):
        op = OperatingPoint(tau=0.4, far=0.05, frr=0.1, policy="eer")
        with pytest.raises(DataError):
            explanatory_report(build_design(random_profiles(30), SCHEMA), {}, "tpr", op)

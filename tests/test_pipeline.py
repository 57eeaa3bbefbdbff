"""Tests for audit orchestration: options, profiles, result shape."""

import numpy as np
import pytest

from conftest import scored_trials, small_config, synth_cohort
from faceaudit.errors import DataError
from faceaudit.pipeline import AuditOptions, audit_cohort, profiles_from_rows, run_audit
from faceaudit.schema import default_schema
from faceaudit.trials import TrialPolicy


@pytest.fixture(scope="module")
def cohort_and_scores():
    config = small_config(
        identities_per_group={("man", "asian"): 14, ("woman", "asian"): 14}
    )
    cohort, _ = synth_cohort(config)
    trials, scores = scored_trials(cohort)
    return cohort, trials, scores


class TestAuditOptions:
    def test_defaults(self):
        options = AuditOptions()
        assert options.policies == ("eer",)
        assert options.group_by == ("gender", "ethnicity")
        assert options.explain is False

    def test_empty_policies_rejected(self):
        with pytest.raises(DataError):
            AuditOptions(policies=())

    def test_duplicate_policies_rejected(self):
        with pytest.raises(DataError):
            AuditOptions(policies=("eer", "eer"))


class TestProfilesFromRows:
    def test_groups_by_identity(self):
        schema = default_schema()
        rows = {
            "a_0": {"blur": 0.2, "smile": 0.5},
            "a_1": {"blur": 0.4},
            "b_0": {"blur": 0.9},
        }
        identity_of = {"a_0": "a", "a_1": "a", "b_0": "b"}
        profiles = profiles_from_rows(rows, identity_of, schema)
        assert [p.identity_id for p in profiles] == ["a", "b"]
        assert profiles[0].values["blur"] == pytest.approx(0.3)
        assert profiles[0].coverage["smile"] == pytest.approx(0.5)
        assert profiles[1].values["blur"] == pytest.approx(0.9)

    def test_rows_without_identity_ignored(self):
        schema = default_schema()
        rows = {"a_0": {"blur": 0.2}, "stray": {"blur": 0.8}}
        profiles = profiles_from_rows(rows, {"a_0": "a"}, schema)
        assert [p.identity_id for p in profiles] == ["a"]


class TestRunAudit:
    def test_result_census(self, cohort_and_scores):
        cohort, trials, scores = cohort_and_scores
        results = audit_cohort(
            cohort, trials, scores, default_schema(), AuditOptions(), seed=5
        )
        assert results.n_identities == 28
        assert results.n_genuine == 28 * 6
        assert results.n_impostor == 28 * 50
        assert results.seed == 5
        assert len(results.analyses) == 1
        assert results.notes["multiple_comparison_correction"] == "none"

    def test_one_analysis_per_policy(self, cohort_and_scores):
        cohort, trials, scores = cohort_and_scores
        options = AuditOptions(policies=("eer", "far@0.01", "far@0.001"))
        results = audit_cohort(cohort, trials, scores, default_schema(), options)
        assert [a.operating_point.policy for a in results.analyses] == [
            "eer",
            "far@0.01",
            "far@0.001",
        ]

    def test_group_rates_match_manual_recount(self, cohort_and_scores):
        from faceaudit.metrics import individual_rates

        cohort, trials, scores = cohort_and_scores
        results = audit_cohort(cohort, trials, scores, default_schema(), AuditOptions())
        analysis = results.analyses[0]
        rates, _ = individual_rates(trials, scores, analysis.operating_point.tau)
        by_id = {r.identity_id: r for r in rates}
        for g in analysis.groups:
            if g.is_empty:
                continue
            far = np.mean([by_id[i].far for i in g.member_ids])
            assert g.far == pytest.approx(far, abs=1e-12)

    def test_explain_disabled_by_default(self, cohort_and_scores):
        cohort, trials, scores = cohort_and_scores
        results = audit_cohort(cohort, trials, scores, default_schema(), AuditOptions())
        assert results.analyses[0].explain == {}

    def test_explain_reports_when_enabled(self, cohort_and_scores):
        cohort, trials, scores = cohort_and_scores
        options = AuditOptions(explain=True)
        results = audit_cohort(cohort, trials, scores, default_schema(), options)
        explain = results.analyses[0].explain
        assert set(explain) == {"far", "frr"}
        assert explain["far"].n_cases == 28

    def test_explain_failure_recorded_not_fatal(self):
        # eight identities cannot support a 22-column design
        config = small_config(
            identities_per_group={("man", "asian"): 4, ("woman", "asian"): 4}
        )
        cohort, _ = synth_cohort(config)
        trials, scores = scored_trials(
            cohort, policy=TrialPolicy(negatives_per_identity=20)
        )
        options = AuditOptions(explain=True)
        results = audit_cohort(cohort, trials, scores, default_schema(), options)
        skipped = results.analyses[0].skipped_analyses
        assert "explain_far" in skipped and "explain_frr" in skipped
        assert results.analyses[0].explain == {}

    def test_missing_scores_rejected(self, cohort_and_scores):
        cohort, trials, scores = cohort_and_scores
        holey = scores.copy()
        holey[0] = np.nan
        with pytest.raises(DataError):
            audit_cohort(cohort, trials, holey, default_schema(), AuditOptions())

    def test_length_mismatch_rejected(self, cohort_and_scores):
        cohort, trials, scores = cohort_and_scores
        with pytest.raises(DataError):
            audit_cohort(cohort, trials, scores[:-1], default_schema(), AuditOptions())

    def test_continuous_group_by_rejected(self, cohort_and_scores):
        cohort, trials, scores = cohort_and_scores
        from faceaudit.errors import SchemaError

        with pytest.raises(SchemaError):
            audit_cohort(
                cohort,
                trials,
                scores,
                default_schema(),
                AuditOptions(group_by=("age",)),
            )

    def test_run_audit_with_external_profiles(self, cohort_and_scores):
        cohort, trials, scores = cohort_and_scores
        schema = default_schema()
        rows = {image_id: attrs.values for image_id, attrs in cohort.images.items()}
        identity_of = {r.image_id: r.identity_id for r in cohort.records.values()}
        profiles = profiles_from_rows(rows, identity_of, schema)
        direct = run_audit(trials, scores, profiles, schema, AuditOptions())
        wrapped = audit_cohort(cohort, trials, scores, schema, AuditOptions())
        assert direct.analyses[0].operating_point == wrapped.analyses[0].operating_point
        for a, b in zip(direct.analyses[0].groups, wrapped.analyses[0].groups):
            assert a.n_members == b.n_members
            if not a.is_empty:
                assert a.far == pytest.approx(b.far, abs=1e-15)

"""Tests for audit orchestration: options, profiles, result shape."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    attribute_table,
    cohort_audit,
    cohort_of,
    profile_rows,
    profile_table,
    scored_trials,
    small_config,
    synth_cohort,
    trial_set,
)
from faceaudit.cohort import aggregate_profiles
from faceaudit.errors import DataError
from faceaudit.metrics import group_membership, individual_rates, trial_census
from faceaudit.pipeline import AuditOptions, profiles_from_rows, run_audit
from faceaudit.report import dump_payload
from faceaudit.schema import default_schema
from faceaudit.trials import TrialPolicy, TrialSet

# The operating points of the benchmark's explain workload.
BENCH_POLICIES = (
    "eer", "far@0.1", "far@0.05", "far@0.02", "far@0.01", "far@0.005", "far@0.002", "far@0.001"
)


@pytest.fixture(scope="module")
def cohort_and_scores():
    config = small_config(
        identities_per_group={("man", "asian"): 14, ("woman", "asian"): 14}
    )
    cohort, result = synth_cohort(config)
    trials, scores = scored_trials(cohort)
    return result, trials, scores


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

    @pytest.mark.parametrize("policy", ["far@2", "frr@0.1", "far@x"])
    def test_malformed_policy_rejected(self, policy):
        with pytest.raises(DataError, match="^policies: "):
            AuditOptions(policies=("eer", policy))


class TestProfilesFromRows:
    def test_groups_by_identity(self):
        schema = default_schema()
        rows = {
            "a_0": {"blur": 0.2, "smile": 0.5},
            "a_1": {"blur": 0.4},
            "b_0": {"blur": 0.9},
        }
        identity_of = {"a_0": "a", "a_1": "a", "b_0": "b"}
        trials = trial_set([("a_0", "a_1"), ("a_0", "b_0")], identity_of)
        profiles = profiles_from_rows(attribute_table(rows), trials, schema)
        assert profiles.identities == ("a", "b")
        values = profile_rows(profiles)
        assert values["a"]["blur"] == pytest.approx(0.3)
        assert values["a"]["smile"] == 0.5  # from the one image that has it
        assert values["b"]["blur"] == pytest.approx(0.9)

    def test_rows_without_identity_ignored(self):
        schema = default_schema()
        rows = {"a_0": {"blur": 0.2}, "stray": {"blur": 0.8}}
        trials = trial_set([("a_0", "b_0")], {"a_0": "a", "b_0": "b"})
        profiles = profiles_from_rows(attribute_table(rows), trials, schema)
        # b has no rows: its profile is all missing, as on the embeddings path
        assert profile_rows(profiles) == {"a": {"blur": 0.2}, "b": {}}


class TestRunAudit:
    def test_result_census(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        results = cohort_audit(result, trials, scores, AuditOptions(), seed=5)
        assert results["census"] == {
            "n_identities": 28, "n_genuine_pairs": 28 * 6, "n_impostor_pairs": 28 * 50
        }
        assert results["seed"] == 5
        assert len(results["analyses"]) == 1
        assert results["notes"]["multiple_comparison_correction"] == "none"

    def test_seed_defaults_to_none(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        census = trial_census(trials, scores)
        results = run_audit(census, result.profiles, default_schema(), AuditOptions())
        assert results["seed"] is None

    def test_one_analysis_per_policy(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        options = AuditOptions(policies=("eer", "far@0.01", "far@0.001"))
        results = cohort_audit(result, trials, scores, options)
        assert [a["operating_point"]["policy"] for a in results["analyses"]] == [
            "eer",
            "far@0.01",
            "far@0.001",
        ]

    def test_group_rates_match_manual_recount(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        results = cohort_audit(result, trials, scores, AuditOptions())
        analysis = results["analyses"][0]
        census = trial_census(trials, scores)
        far, _ = individual_rates(census, analysis["operating_point"]["tau"])
        by_id = dict(zip(census.identities, far))
        profiles = result.profiles
        # every profiled identity is rated, so each cell's members are its rows
        membership = group_membership(profiles, ("gender", "ethnicity"), default_schema())
        for g, (group, members) in zip(analysis["groups"], membership.cells, strict=True):
            assert g["label"] == group.label and g["n_members"] == len(members)
            if not len(members):
                continue
            want = np.mean([by_id[profiles.identities[i]] for i in members])
            assert g["far"] == pytest.approx(want, abs=1e-12)

    def test_explain_disabled_by_default(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        results = cohort_audit(result, trials, scores, AuditOptions())
        assert results["analyses"][0]["explain"] == {}

    def test_explain_reports_when_enabled(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        options = AuditOptions(explain=True)
        results = cohort_audit(result, trials, scores, options)
        explain = results["analyses"][0]["explain"]
        assert set(explain) == {"far", "frr"}
        assert explain["far"]["n_cases"] == 28

    def test_explain_failure_recorded_not_fatal(self):
        # eight identities cannot support a 22-column design
        config = small_config(
            identities_per_group={("man", "asian"): 4, ("woman", "asian"): 4}
        )
        cohort, result = synth_cohort(config)
        trials, scores = scored_trials(
            cohort, policy=TrialPolicy(negatives_per_identity=20)
        )
        options = AuditOptions(explain=True)
        results = cohort_audit(result, trials, scores, options)
        skipped = results["analyses"][0]["skipped_analyses"]
        assert "explain_far" in skipped and "explain_frr" in skipped
        assert results["analyses"][0]["explain"] == {}

    def test_rank_deficiency_recorded_not_fatal(self):
        # two cells that differ in both gender and ethnicity: the design's
        # gender=woman and ethnicity=caucasian columns are the same column
        cohort, result = synth_cohort(small_config())
        trials, scores = scored_trials(cohort)
        options = AuditOptions(policies=("eer", "far@0.01"), explain=True)
        results = cohort_audit(result, trials, scores, options)
        for analysis in results["analyses"]:
            assert analysis["explain"] == {}
            for metric in ("far", "frr"):
                message = analysis["skipped_analyses"][f"explain_{metric}"]
                assert message == (
                    "design matrix is rank deficient; dependent column(s): ethnicity=caucasian"
                )
            assert set(analysis["kruskal"]) == {"far", "frr"}
            cells = [g for g in analysis["groups"] if None not in g["levels"] and g["n_members"]]
            assert [g["n_members"] for g in cells] == [12, 12]

    def test_missing_scores_rejected(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        holey = scores.copy()
        holey[0] = np.nan
        with pytest.raises(DataError):
            cohort_audit(result, trials, holey, AuditOptions())

    def test_length_mismatch_rejected(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        with pytest.raises(DataError):
            cohort_audit(result, trials, scores[:-1], AuditOptions())

    def test_continuous_group_by_rejected(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        from faceaudit.errors import SchemaError

        with pytest.raises(SchemaError):
            cohort_audit(result, trials, scores, AuditOptions(group_by=("age",)))

    def test_run_audit_with_external_profiles(self, cohort_and_scores):
        result, trials, scores = cohort_and_scores
        schema = default_schema()
        profiles = profiles_from_rows(result.attributes, trials, schema)
        direct = run_audit(trial_census(trials, scores), profiles, schema, AuditOptions())
        wrapped = cohort_audit(result, trials, scores, AuditOptions())
        (direct,), (wrapped,) = direct["analyses"], wrapped["analyses"]
        assert direct["operating_point"] == wrapped["operating_point"]
        for a, b in zip(direct["groups"], wrapped["groups"]):
            assert a["n_members"] == b["n_members"]
            if a["n_members"]:
                assert a["far"] == pytest.approx(b["far"], abs=1e-15)


@pytest.fixture(scope="module")
def mixed_audit():
    """Trials and profiles with every kind of identity the audit sets apart:
    one excluded (genuine trials only), one unassigned and incomplete (no
    ethnicity), one incomplete (no blur), one skipped (a single image)."""
    config = small_config(
        identities_per_group={
            ("man", "asian"): 8,
            ("woman", "black"): 8,
            ("man", "caucasian"): 8,
            ("woman", "asian"): 8,
        }
    )
    _, result = synth_cohort(config)
    # the first identity keeps one of its images
    records, attributes = result.records, result.attributes
    keep = [0, *range(4, len(records))]
    identity_ids = [records.identities[code] for code in records.identity_codes]
    cohort = cohort_of((records.image_ids[i], identity_ids[i], records.vectors[i]) for i in keep)
    lone_rows = dataclasses.replace(
        attributes,
        image_ids=tuple(attributes.image_ids[i] for i in keep),
        values=attributes.values[keep],
    )
    with pytest.warns(UserWarning, match="fewer than two images"):
        trials, scores = scored_trials(cohort)
    excluded = trials.identities[3]
    keep = trials.genuine | (trials.identity_codes[trials.pairs[:, 0]] != 3)
    trials = TrialSet(
        trials.image_ids,
        trials.identity_codes,
        trials.identities,
        trials.pairs[keep],
        trials.skipped_identities,
    )
    rows = profile_rows(aggregate_profiles(cohort, lone_rows, default_schema()))
    identities = list(rows)
    del rows[identities[5]]["ethnicity"]
    del rows[identities[6]]["blur"]
    return trials, scores[keep], profile_table(rows), excluded


class TestHoistedState:
    def test_policy_alone_equals_policy_among_many(self, mixed_audit):
        trials, scores, profiles, _ = mixed_audit
        schema = default_schema()
        options = AuditOptions(policies=tuple(reversed(BENCH_POLICIES)), explain=True)
        together = run_audit(trial_census(trials, scores), profiles, schema, options)
        by_policy = {a["operating_point"]["policy"]: a for a in together["analyses"]}
        for policy in BENCH_POLICIES:
            one = dataclasses.replace(options, policies=(policy,))
            alone = run_audit(trial_census(trials, scores), profiles, schema, one)
            assert dump_payload(alone["analyses"][0]) == dump_payload(by_policy[policy])
            assert alone["exclusions"] == together["exclusions"]

    def test_set_apart_identities_reported(self, mixed_audit):
        trials, scores, profiles, excluded = mixed_audit
        options = AuditOptions(policies=BENCH_POLICIES, explain=True)
        results = run_audit(trial_census(trials, scores), profiles, default_schema(), options)
        exclusions = results["exclusions"]
        assert exclusions["no_usable_trials"] == [excluded]
        assert exclusions["unassigned"] == [profiles.identities[5]]
        assert len(exclusions["skipped_identities"]) == 1
        incomplete = list(profiles.identities[5:7])
        for analysis in results["analyses"]:
            report = analysis["explain"]["far"]
            assert report["incomplete_identities"] == incomplete
            # the excluded and the skipped identities have no rates
            assert report["n_cases"] == len(profiles.identities) - 4

    def test_design_failure_reaches_every_policy(self):
        config = small_config(
            identities_per_group={("man", "asian"): 4, ("woman", "asian"): 4}
        )
        cohort, result = synth_cohort(config)
        trials, scores = scored_trials(
            cohort, policy=TrialPolicy(negatives_per_identity=20)
        )
        options = AuditOptions(policies=("eer", "far@0.1", "far@0.01"), explain=True)
        results = cohort_audit(result, trials, scores, options)
        messages = {
            (a["skipped_analyses"]["explain_far"], a["skipped_analyses"]["explain_frr"])
            for a in results["analyses"]
        }
        assert len(messages) == 1
        (far_message, frr_message), = messages
        assert far_message == frr_message and "complete cases" in far_message

"""Orchestration: wire cohort, trials, calibration, metrics, and explain
into the report document, the dict ``report.json`` holds.  This module
builds the document, calling ``faceaudit.report``'s builders as it makes
each record; ``report.emit_bundle`` writes and renders it.

An audit does its threshold-free work once: the trial census (trials
split by kind, sorted by score and counted per identity) serves every
threshold policy, group membership is assigned once, and the
explanatory design is built once.  Each policy then computes only what
depends on its threshold: a binary search of the census's sorted
scores for the threshold, two counts per identity for the rates, and
index gathers of those rate arrays for the group means, the
Kruskal-Wallis samples and the regression response.

Every step here is deterministic given (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from faceaudit import __version__
from faceaudit.calibration import calibrate, parse_policy
from faceaudit.cohort import AttributeTable, ImageTable, ProfileTable, aggregate_profiles, positions
from faceaudit.errors import DataError, RankDeficiencyError
from faceaudit.explain import build_design, explanatory_report
from faceaudit.metrics import (
    TrialCensus,
    extreme_delta,
    group_membership,
    group_rates,
    individual_rates,
    kruskal_pairwise,
    one_axis_deltas,
)
from faceaudit.report import (
    delta_payload,
    explain_payload,
    group_payload,
    kruskal_payload,
    op_payload,
)
from faceaudit.schema import AttributeSchema

_METRICS = ("far", "frr")


@dataclass(frozen=True)
class AuditOptions:
    """Analysis knobs shared by the audit/explain entry points."""

    policies: tuple[str, ...] = ("eer",)
    group_by: tuple[str, ...] = ("gender", "ethnicity")
    explain: bool = False
    standardize: bool = False
    reference_levels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.policies:
            raise DataError("policies must name at least one threshold policy")
        if len(set(self.policies)) != len(self.policies):
            raise DataError("policies must be distinct")
        for policy in self.policies:
            try:
                parse_policy(policy)
            except DataError as exc:
                raise DataError(f"policies: {exc}") from None
        if not self.group_by:
            raise DataError("group_by: needs at least one attribute")
        if len(set(self.group_by)) != len(self.group_by):
            raise DataError("group_by: attributes must be distinct")


def profiles_from_rows(
    table: AttributeTable, images: ImageTable, schema: AttributeSchema
) -> ProfileTable:
    """The profiles of the trial identities, for audits without embeddings."""
    return aggregate_profiles(images, table, schema)


def run_audit(
    census: TrialCensus,
    profiles: ProfileTable,
    schema: AttributeSchema,
    options: AuditOptions,
    seed: int | None = None,
) -> dict:
    """The report document of the scored trials in ``census``: calibrate
    per policy, then compute group rates, gaps, tests, and (optionally)
    the explanatory analyses.  The document is the dict ``report.json``
    holds, with NaN where the file has null.  ``seed`` is the trial
    generator seed, recorded in the document; None when no seed played
    a role, as for trials read from a file.

    Everything per identity lives in the rows of ``profiles``: the rates
    of each policy are moved there from the census's identity codes, NaN
    for a profiled identity without rates.  The explanatory design is
    built over the rated identities, who are the same at every
    threshold."""
    schema.check_grouping(options.group_by, options.reference_levels)
    membership = group_membership(profiles, options.group_by, schema)
    code = positions(census.identities, profiles.identities)  # -1: no trials
    found = code >= 0
    design = design_error = None
    if options.explain:
        rated = np.flatnonzero(found & census.rated[code])
        try:
            design = build_design(
                profiles, schema, rated, options.reference_levels, options.standardize
            )
        except DataError as exc:
            design_error = str(exc)

    analyses = []
    for policy in options.policies:
        op = calibrate(census.genuine_scores, census.impostor_scores, policy)
        rates = {
            metric: np.where(found, values[code], np.nan)
            for metric, values in zip(_METRICS, individual_rates(census, op.tau))
        }
        groups = group_rates(rates["far"], rates["frr"], membership)

        skipped: dict[str, str] = {}
        try:
            deltas = {f"extreme_{m}": delta_payload(extreme_delta(groups, m)) for m in _METRICS}
        except DataError as exc:
            deltas = {"extreme_far": None, "extreme_frr": None}
            skipped["deltas"] = str(exc)
        deltas["one_axis"] = list(map(delta_payload, one_axis_deltas(groups)))

        kruskal = {}
        testable = [g for g in groups if not g.group.is_union and g.n_members >= 2]
        if len(testable) >= 2:
            for metric in _METRICS:
                samples = {g.group.label: rates[metric][g.members] for g in testable}
                kruskal[metric] = kruskal_payload(kruskal_pairwise(samples))
        else:
            skipped["kruskal"] = "fewer than two groups with two or more members"

        explain = {}
        if options.explain:
            for metric in _METRICS:
                if design_error is not None:
                    skipped[f"explain_{metric}"] = design_error
                    continue
                try:
                    report = explanatory_report(design, rates, metric, op)
                except (DataError, RankDeficiencyError) as exc:
                    skipped[f"explain_{metric}"] = str(exc)
                else:
                    explain[metric] = explain_payload(report)
        analyses.append(
            {
                "operating_point": op_payload(op),
                "groups": list(map(group_payload, groups)),
                "deltas": deltas,
                "kruskal": kruskal,
                "explain": explain,
                "skipped_analyses": skipped,
            }
        )
    return {
        "tool": {"name": "faceaudit", "version": __version__},
        "seed": seed,
        "group_by": list(options.group_by),
        "census": {
            "n_identities": int(np.count_nonzero(census.n_genuine + census.n_impostor)),
            "n_genuine_pairs": len(census.genuine_scores),
            "n_impostor_pairs": len(census.impostor_scores),
        },
        "exclusions": {
            "no_usable_trials": list(census.excluded),
            "unassigned": list(membership.unassigned),
            "skipped_identities": list(census.skipped_identities),
        },
        "notes": {"multiple_comparison_correction": "none"},
        "analyses": analyses,
    }

"""Orchestration: wire cohort, trials, calibration, metrics, and explain
into one audit result object that the report layer can render.

Every step here is deterministic given (inputs, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from faceaudit import __version__
from faceaudit.calibration import OperatingPoint, calibrate
from faceaudit.cohort import AttributeProfile, Cohort, aggregate_profiles, aggregate_rows
from faceaudit.errors import DataError
from faceaudit.explain import EncodingConfig, ExplanatoryReport, explanatory_report
from faceaudit.metrics import (
    FairnessDelta,
    GroupRates,
    GroupSpec,
    PairwiseTests,
    extreme_delta,
    group_rates,
    individual_rates,
    kruskal_pairwise,
    one_axis_deltas,
)
from faceaudit.schema import AttributeSchema
from faceaudit.trials import TrialSet

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
            raise DataError("at least one threshold policy is required")
        if len(set(self.policies)) != len(self.policies):
            raise DataError("threshold policies must be distinct")


@dataclass(frozen=True)
class DeltaSummary:
    """Extreme and single-axis rate gaps at one operating point."""

    extreme_far: FairnessDelta | None
    extreme_frr: FairnessDelta | None
    one_axis: tuple[FairnessDelta, ...]


@dataclass(frozen=True)
class PolicyAnalysis:
    """Everything computed at one operating point."""

    operating_point: OperatingPoint
    groups: tuple[GroupRates, ...]
    deltas: DeltaSummary
    kruskal: dict[str, PairwiseTests]
    explain: dict[str, ExplanatoryReport]
    skipped_analyses: dict[str, str]


@dataclass(frozen=True)
class AuditResults:
    """Full audit output: cohort census plus one analysis per policy."""

    tool_version: str
    seed: int
    group_by: tuple[str, ...]
    n_identities: int
    n_genuine: int
    n_impostor: int
    excluded_identities: tuple[str, ...]
    unassigned_identities: tuple[str, ...]
    skipped_identities: tuple[str, ...]
    analyses: tuple[PolicyAnalysis, ...]
    notes: dict[str, str] = field(default_factory=dict)


def profiles_from_rows(
    rows_by_image: dict[str, dict[str, float]],
    identity_of: dict[str, str],
    schema: AttributeSchema,
) -> list[AttributeProfile]:
    """Aggregate per-image attribute dicts into per-identity profiles.

    Used when auditing precomputed scores without embeddings; the
    identity map then comes from the trial file itself.
    """
    grouped: dict[str, list[dict[str, float]]] = {}
    for image_id, values in rows_by_image.items():
        if image_id in identity_of:
            grouped.setdefault(identity_of[image_id], []).append(values)
    profiles = []
    for identity_id in sorted(grouped):
        values, coverage = aggregate_rows(grouped[identity_id], schema)
        profiles.append(
            AttributeProfile(identity_id=identity_id, values=values, coverage=coverage)
        )
    return profiles


def run_audit(
    trials: TrialSet,
    scores: np.ndarray,
    profiles: list[AttributeProfile],
    schema: AttributeSchema,
    options: AuditOptions,
    seed: int = 0,
) -> AuditResults:
    """Calibrate per policy, then compute group rates, gaps, tests, and
    (optionally) the explanatory analyses.  ``seed`` is the trial
    generator seed, recorded in the results."""
    if len(scores) != len(trials.pairs):
        raise DataError(f"{len(scores)} scores for {len(trials.pairs)} pairs")
    if not np.isfinite(scores).all():
        raise DataError("audit requires fully scored trials (no missing scores)")
    spec = GroupSpec(attributes=tuple(options.group_by))
    spec.validate(schema)
    labels = trials.genuine
    genuine = scores[labels]
    impostor = scores[~labels]
    encoding = EncodingConfig(
        reference_levels=dict(options.reference_levels), standardize=options.standardize
    )

    analyses = []
    excluded: tuple[str, ...] = ()
    unassigned: tuple[str, ...] = ()
    for policy in options.policies:
        op = calibrate(genuine, impostor, policy)
        rates, excluded = individual_rates(trials, scores, op.tau)
        groups, unassigned = group_rates(rates, profiles, spec, schema)

        skipped: dict[str, str] = {}
        try:
            ext_far = extreme_delta(groups, "far")
            ext_frr = extreme_delta(groups, "frr")
        except DataError as exc:
            ext_far = ext_frr = None
            skipped["deltas"] = str(exc)
        deltas = DeltaSummary(
            extreme_far=ext_far, extreme_frr=ext_frr, one_axis=one_axis_deltas(groups)
        )

        by_id = {r.identity_id: r for r in rates}
        kruskal: dict[str, PairwiseTests] = {}
        testable = [
            g for g in groups if not g.group.is_union and g.n_members >= 2
        ]
        if len(testable) >= 2:
            for metric in _METRICS:
                samples = {
                    g.group.label: np.array(
                        [getattr(by_id[i], metric) for i in g.member_ids]
                    )
                    for g in testable
                }
                kruskal[metric] = kruskal_pairwise(samples)
        else:
            skipped["kruskal"] = "fewer than two groups with two or more members"

        explain: dict[str, ExplanatoryReport] = {}
        if options.explain:
            for metric in _METRICS:
                try:
                    explain[metric] = explanatory_report(
                        profiles, rates, schema, metric, op, encoding
                    )
                except DataError as exc:
                    skipped[f"explain_{metric}"] = str(exc)
        analyses.append(
            PolicyAnalysis(
                operating_point=op,
                groups=tuple(groups),
                deltas=deltas,
                kruskal=kruskal,
                explain=explain,
                skipped_analyses=skipped,
            )
        )
    return AuditResults(
        tool_version=__version__,
        seed=seed,
        group_by=tuple(options.group_by),
        n_identities=len(np.unique(trials.probe_codes)),
        n_genuine=int(labels.sum()),
        n_impostor=int((~labels).sum()),
        excluded_identities=excluded,
        unassigned_identities=unassigned,
        skipped_identities=trials.skipped_identities,
        analyses=tuple(analyses),
        notes={"multiple_comparison_correction": "none"},
    )


def audit_cohort(
    cohort: Cohort,
    trials: TrialSet,
    scores: np.ndarray,
    schema: AttributeSchema,
    options: AuditOptions,
    seed: int = 0,
) -> AuditResults:
    """Convenience wrapper when embeddings and attributes are in memory."""
    profiles = aggregate_profiles(cohort, schema)
    return run_audit(trials, scores, profiles, schema, options, seed)

"""Per-individual error rates, demographic groups, and fairness gaps.

Individual rates are computed from that identity's own trials at a fixed
threshold.  A group's rate is the unweighted mean over its member
individuals, so every individual counts equally regardless of how many
trials they contributed.  Fairness deltas are signed differences of
group rates; distributional gaps are tested with Kruskal-Wallis on the
per-individual rates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from faceaudit.cohort import AttributeProfile
from faceaudit.errors import DataError, SchemaError
from faceaudit.schema import AttributeSchema
from faceaudit.stats import kruskal_wallis
from faceaudit.trials import TrialSet


@dataclass(frozen=True)
class IndividualRates:
    """Error rates of one identity at a fixed threshold."""

    identity_id: str
    far: float
    frr: float
    n_genuine: int
    n_impostor: int


def individual_rates(
    trials: TrialSet, scores: np.ndarray, tau: float
) -> tuple[list[IndividualRates], tuple[str, ...]]:
    """Per-identity FAR and FRR at ``tau``.

    FAR is the fraction of the identity's impostor pairs accepted, FRR
    the fraction of its genuine pairs rejected.  Identities lacking
    either kind of trial have an undefined rate and are excluded;
    their ids are returned separately.
    """
    if len(scores) != len(trials.pairs):
        raise DataError(f"{len(scores)} scores for {len(trials.pairs)} pairs")
    probe = trials.probe_codes
    genuine = trials.genuine
    accepted = np.asarray(scores) > tau

    def count(mask: np.ndarray) -> list[int]:
        return np.bincount(probe[mask], minlength=len(trials.identities)).tolist()

    n_gen, n_imp = count(genuine), count(~genuine)
    rejected_gen, accepted_imp = count(genuine & ~accepted), count(~genuine & accepted)
    rates = []
    excluded = []
    for code, ident in enumerate(trials.identities):
        if n_gen[code] == 0 or n_imp[code] == 0:
            if n_gen[code] or n_imp[code]:
                excluded.append(ident)
            continue
        rates.append(
            IndividualRates(
                identity_id=ident,
                far=accepted_imp[code] / n_imp[code],
                frr=rejected_gen[code] / n_gen[code],
                n_genuine=n_gen[code],
                n_impostor=n_imp[code],
            )
        )
    return rates, tuple(excluded)


def rated_identities(trials: TrialSet) -> tuple[str, ...]:
    """The identities ``individual_rates`` rates, at any threshold.

    An identity is rated when it has both genuine and impostor trials;
    trial counts alone decide that, never the threshold.
    """
    probe, genuine = trials.probe_codes, trials.genuine
    has_genuine = np.bincount(probe[genuine], minlength=len(trials.identities)) > 0
    has_impostor = np.bincount(probe[~genuine], minlength=len(trials.identities)) > 0
    rated = (has_genuine & has_impostor).tolist()
    return tuple(ident for ident, ok in zip(trials.identities, rated) if ok)


@dataclass(frozen=True)
class GroupSpec:
    """Which attributes partition the cohort into demographic groups."""

    attributes: tuple[str, ...]

    def __post_init__(self):
        if not self.attributes:
            raise DataError("grouping requires at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise DataError("grouping attributes must be distinct")

    def validate(self, schema: AttributeSchema) -> None:
        for name in self.attributes:
            var = schema.variable(name)
            if var.kind not in ("categorical", "boolean"):
                raise SchemaError(
                    f"cannot group by {name!r}: grouping needs a discrete variable"
                )


@dataclass(frozen=True)
class Group:
    """One cell of the grouping grid; ``None`` marks a union over an attribute."""

    attributes: tuple[str, ...]
    levels: tuple[str | None, ...]

    def __post_init__(self):
        if len(self.attributes) != len(self.levels):
            raise DataError("group needs one level slot per attribute")

    @property
    def label(self) -> str:
        return ",".join(level if level is not None else "all" for level in self.levels)

    @property
    def is_union(self) -> bool:
        return any(level is None for level in self.levels)


def table_grid(spec: GroupSpec, schema: AttributeSchema) -> list[Group]:
    """All grid cells including per-attribute unions, unions last."""
    spec.validate(schema)
    axes = [(*schema.variable(name).discrete_levels(), None) for name in spec.attributes]
    return [Group(spec.attributes, combo) for combo in itertools.product(*axes)]


def assign_levels(
    profiles: list[AttributeProfile], spec: GroupSpec, schema: AttributeSchema
) -> tuple[dict[str, tuple[str, ...]], tuple[str, ...]]:
    """Concrete level tuple per identity; ids missing an attribute go unassigned."""
    spec.validate(schema)
    assigned: dict[str, tuple[str, ...]] = {}
    unassigned: list[str] = []
    for profile in profiles:
        levels: list[str] = []
        for name in spec.attributes:
            value = profile.values.get(name)
            if value is None:
                break
            var = schema.variable(name)
            if var.kind == "categorical":
                levels.append(var.levels[int(value)])
            else:
                levels.append(str(int(value)))
        else:
            assigned[profile.identity_id] = tuple(levels)
            continue
        unassigned.append(profile.identity_id)
    return assigned, tuple(sorted(unassigned))


@dataclass(frozen=True)
class GroupRates:
    """Macro-averaged rates of one group; NaN rates mean the group is empty.

    ``member_ids`` may be empty on deserialized results; ``n_members``
    is authoritative.
    """

    group: Group
    far: float
    frr: float
    n_members: int
    member_ids: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.n_members == 0


@dataclass(frozen=True)
class GroupMembership:
    """Every grid cell paired with its member identity ids, sorted.

    Membership depends only on the profiles, so one instance serves
    ``group_rates`` at every threshold.
    """

    cells: tuple[tuple[Group, tuple[str, ...]], ...]
    unassigned: tuple[str, ...]


def group_membership(
    profiles: list[AttributeProfile], spec: GroupSpec, schema: AttributeSchema
) -> GroupMembership:
    """Bucket each assigned identity under the cells that contain it.

    An identity with levels (l1, ..., lk) belongs to the 2^k cells that
    keep or union (``None``) each level, so one pass over the identities
    fills the whole grid.  Identities missing a grouping attribute are
    reported as unassigned.
    """
    assigned, unassigned = assign_levels(profiles, spec, schema)
    grid = table_grid(spec, schema)
    buckets: dict[tuple[str | None, ...], list[str]] = {group.levels: [] for group in grid}
    for identity in sorted(assigned):
        for key in itertools.product(*((level, None) for level in assigned[identity])):
            members = buckets.get(key)
            if members is not None:
                members.append(identity)
    return GroupMembership(
        cells=tuple((group, tuple(buckets[group.levels])) for group in grid),
        unassigned=unassigned,
    )


def group_rates(
    rates: list[IndividualRates], membership: GroupMembership
) -> list[GroupRates]:
    """Mean rates for every grid cell over its members that have rates.

    Individuals without rates (excluded upstream) simply never appear in
    a group.  Means run over the members in sorted identity order.
    """
    position = {r.identity_id: i for i, r in enumerate(rates)}
    far = np.array([r.far for r in rates], dtype=np.float64)
    frr = np.array([r.frr for r in rates], dtype=np.float64)
    out = []
    for group, ids in membership.cells:
        members = tuple(i for i in ids if i in position)
        if members:
            rows = [position[i] for i in members]
            cell_far = float(np.mean(far[rows]))
            cell_frr = float(np.mean(frr[rows]))
        else:
            cell_far = cell_frr = math.nan
        out.append(
            GroupRates(
                group=group,
                far=cell_far,
                frr=cell_frr,
                n_members=len(members),
                member_ids=members,
            )
        )
    return out


@dataclass(frozen=True)
class FairnessDelta:
    """Signed rate gap between two groups: rate(a) - rate(b)."""

    group_a: str
    group_b: str
    delta_far: float
    delta_frr: float


def fairness_delta(a: GroupRates, b: GroupRates) -> FairnessDelta:
    if a.is_empty or b.is_empty:
        empty = a.group.label if a.is_empty else b.group.label
        raise DataError(f"cannot take a fairness delta against empty group {empty!r}")
    return FairnessDelta(
        group_a=a.group.label,
        group_b=b.group.label,
        delta_far=a.far - b.far,
        delta_frr=a.frr - b.frr,
    )


def one_axis_deltas(groups: list[GroupRates]) -> tuple[FairnessDelta, ...]:
    """Deltas between every pair of groups differing on exactly one attribute.

    This covers marginal comparisons (one level vs another with the rest
    collapsed) and within-cell comparisons (one level vs another with
    the rest held fixed), the contrasts where composition effects and
    sign reversals show up.  Pairs touching an empty group are skipped.
    """
    out = []
    for i, a in enumerate(groups):
        for b in groups[i + 1 :]:
            differing = sum(
                1 for la, lb in zip(a.group.levels, b.group.levels) if la != lb
            )
            if differing == 1 and not a.is_empty and not b.is_empty:
                out.append(fairness_delta(a, b))
    return tuple(out)


def extreme_delta(groups: list[GroupRates], metric: str) -> FairnessDelta:
    """Largest gap on one metric between concrete (non-union) cells."""
    if metric not in ("far", "frr"):
        raise DataError(f"metric must be 'far' or 'frr', got {metric!r}")
    cells = [g for g in groups if not g.group.is_union and not g.is_empty]
    if len(cells) < 2:
        raise DataError("need at least two populated groups to compare")
    hi = max(cells, key=lambda g: getattr(g, metric))
    lo = min(cells, key=lambda g: getattr(g, metric))
    return fairness_delta(hi, lo)


@dataclass(frozen=True)
class PairwiseTests:
    """Symmetric matrix of Kruskal-Wallis p-values over group pairs."""

    labels: tuple[str, ...]
    h_values: np.ndarray
    p_values: np.ndarray

    def p_value(self, label_a: str, label_b: str) -> float:
        i = self.labels.index(label_a)
        j = self.labels.index(label_b)
        return float(self.p_values[i, j])


def kruskal_pairwise(samples: dict[str, np.ndarray]) -> PairwiseTests:
    """Test every pair of groups for a rate-distribution difference.

    Each group needs at least two observations.  The diagonal holds
    p = 1 (a group is indistinguishable from itself).
    """
    labels = tuple(samples)
    if len(labels) < 2:
        raise DataError("pairwise testing requires at least two groups")
    arrays = []
    for label in labels:
        arr = np.asarray(samples[label], dtype=np.float64)
        if arr.size < 2:
            raise DataError(f"group {label!r} has fewer than two observations")
        arrays.append(arr)
    n = len(labels)
    h_values = np.zeros((n, n))
    p_values = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            h, p = kruskal_wallis([arrays[i], arrays[j]])
            h_values[i, j] = h_values[j, i] = h
            p_values[i, j] = p_values[j, i] = p
    return PairwiseTests(labels=labels, h_values=h_values, p_values=p_values)

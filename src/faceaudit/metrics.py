"""Per-individual error rates, demographic groups, and fairness gaps.

Individual rates are computed from that identity's own trials at a fixed
threshold.  They are arrays aligned with identity codes: the
threshold-free ``TrialCensus`` splits the trials by kind, sorts each
kind by score and counts it per identity once.  At a threshold the
accepted impostor trials are then a suffix of their column and the
rejected genuine trials a prefix of theirs, so ``individual_rates``
needs one binary search and one count per rate.  A group's
rate is the unweighted mean over its member individuals, so every
individual counts equally regardless of how many trials they
contributed; members are profile rows, gathered by index.  Fairness
deltas are signed differences of group rates; distributional gaps are
tested with Kruskal-Wallis on the per-individual rates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from faceaudit.cohort import ProfileTable
from faceaudit.errors import DataError
from faceaudit.schema import AttributeSchema
from faceaudit.stats import kruskal_wallis
from faceaudit.trials import TrialSet


@dataclass(frozen=True, eq=False)
class TrialCensus:
    """The threshold-free part of per-identity rates.

    Trials are split by kind into their probes' identity codes and
    scores, each kind sorted by ascending score, and counted per
    identity.  The sorted score columns are also what
    ``calibration.calibrate`` searches.  An identity is rated when it
    has both genuine and impostor trials; one with trials of one kind
    only is excluded.  ``skipped_identities`` are those the trial set
    left out, for too few images.
    """

    identities: tuple[str, ...]
    genuine_probes: np.ndarray  # int32 identity code of each genuine trial's probe
    genuine_scores: np.ndarray  # ascending
    impostor_probes: np.ndarray
    impostor_scores: np.ndarray  # ascending
    n_genuine: np.ndarray  # per identity code
    n_impostor: np.ndarray
    skipped_identities: tuple[str, ...] = ()

    @property
    def rated(self) -> np.ndarray:
        return (self.n_genuine > 0) & (self.n_impostor > 0)

    @property
    def excluded(self) -> tuple[str, ...]:
        which = np.flatnonzero((self.n_genuine > 0) != (self.n_impostor > 0))
        return tuple(map(self.identities.__getitem__, which.tolist()))


def trial_census(trials: TrialSet, scores: np.ndarray) -> TrialCensus:
    """Split ``trials`` and their ``scores`` by kind, sort each kind by
    score and count it per identity.  Every pair needs a finite score.

    The census holds copies only, so the trials' pairs and the scores
    may be freed once it is built."""
    if len(scores) != len(trials.pairs):
        raise DataError(f"{len(scores)} scores for {len(trials.pairs)} pairs")
    scores = np.asarray(scores)
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    n = len(trials.identities)
    genuine_probes, genuine_scores = _by_score(trials, scores, trials.genuine)
    impostor_probes, impostor_scores = _by_score(trials, scores, ~trials.genuine)
    return TrialCensus(
        identities=trials.identities,
        genuine_probes=genuine_probes,
        genuine_scores=genuine_scores,
        impostor_probes=impostor_probes,
        impostor_scores=impostor_scores,
        n_genuine=np.bincount(genuine_probes, minlength=n),
        n_impostor=np.bincount(impostor_probes, minlength=n),
        skipped_identities=trials.skipped_identities,
    )


def _by_score(trials: TrialSet, scores: np.ndarray, kind: np.ndarray):
    """The probe identity codes and the scores of the trials of one
    ``kind``, by ascending score."""
    rows = np.flatnonzero(kind)
    rows = rows[np.argsort(scores[rows])]
    kind_scores = scores[rows]
    probe_images = trials.pairs[rows, 0]
    del rows  # at most three arrays of this length alive at once
    return trials.identity_codes[probe_images], kind_scores


def individual_rates(census: TrialCensus, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-identity (FAR, FRR) at ``tau``, aligned with ``census.identities``.

    FAR is the fraction of the identity's impostor pairs accepted
    (score > tau), FRR the fraction of its genuine pairs rejected.  The
    rates of identities that are not rated are NaN.
    """
    n = len(census.identities)
    # Scores ascend: impostor trials from k on are accepted, genuine ones before r rejected.
    k = np.searchsorted(census.impostor_scores, tau, side="right")
    r = np.searchsorted(census.genuine_scores, tau, side="right")
    accepted = np.bincount(census.impostor_probes[k:], minlength=n)
    rejected = np.bincount(census.genuine_probes[:r], minlength=n)
    rated = census.rated
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.where(rated, accepted / census.n_impostor, np.nan)
        frr = np.where(rated, rejected / census.n_genuine, np.nan)
    return far, frr


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


def table_grid(group_by: tuple[str, ...], schema: AttributeSchema) -> list[Group]:
    """All grid cells over the discrete attributes ``group_by``, including
    per-attribute unions, unions last."""
    axes = [(*schema.variable(name).discrete_levels(), None) for name in group_by]
    return [Group(tuple(group_by), combo) for combo in itertools.product(*axes)]


@dataclass(frozen=True)
class GroupRates:
    """Macro-averaged rates of one group; NaN rates mean the group is empty.

    ``members`` holds the profile rows of the members, in identity
    order, and ``n_members`` counts them.
    """

    group: Group
    far: float
    frr: float
    n_members: int
    members: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp), compare=False)

    @property
    def is_empty(self) -> bool:
        return self.n_members == 0


@dataclass(frozen=True, eq=False)
class GroupMembership:
    """Every grid cell paired with the profile rows of its members, ascending.

    Membership depends only on the profiles, so one instance serves
    ``group_rates`` at every threshold.
    """

    identities: tuple[str, ...]  # of the profile rows
    cells: tuple[tuple[Group, np.ndarray], ...]
    unassigned: tuple[str, ...]


def group_membership(
    profiles: ProfileTable, group_by: tuple[str, ...], schema: AttributeSchema
) -> GroupMembership:
    """Bucket the profile rows under every grid cell that contains them.

    An identity's level codes are its profile values of the grouping
    attributes; a cell keeps the rows whose codes match each of its
    concrete levels.  Identities missing a grouping attribute are
    reported as unassigned.
    """
    grid = table_grid(group_by, schema)
    names = schema.names()
    codes = profiles.values[:, [names.index(name) for name in group_by]]
    assigned = ~np.isnan(codes).any(axis=1)
    levels = [schema.variable(name).discrete_levels() for name in group_by]
    cells = []
    for group in grid:
        match = assigned
        for k, level in enumerate(group.levels):
            if level is not None:
                match = match & (codes[:, k] == levels[k].index(level))
        cells.append((group, np.flatnonzero(match)))
    unassigned = np.flatnonzero(~assigned).tolist()
    return GroupMembership(
        identities=profiles.identities,
        cells=tuple(cells),
        unassigned=tuple(map(profiles.identities.__getitem__, unassigned)),
    )


def group_rates(
    far: np.ndarray, frr: np.ndarray, membership: GroupMembership
) -> list[GroupRates]:
    """Mean rates for every grid cell over its members that have rates.

    ``far`` and ``frr`` are aligned with the membership's profile rows,
    NaN for an identity without rates, which then never appears in a
    group.  Means run over the members in identity order.  A cell whose
    rows all have rates keeps the membership's row array as its members.
    """
    rated = ~np.isnan(far)
    out = []
    for group, rows in membership.cells:
        keep = rated[rows]
        members = rows if keep.all() else rows[keep]
        if members.size:
            cell_far = float(np.mean(far[members]))
            cell_frr = float(np.mean(frr[members]))
        else:
            cell_far = cell_frr = math.nan
        out.append(
            GroupRates(
                group=group, far=cell_far, frr=cell_frr, n_members=members.size, members=members
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

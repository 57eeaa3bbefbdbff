"""Verification trial construction and scoring.

Each identity contributes genuine (same-identity) and impostor
(cross-identity) image pairs.  With the default policy an identity with
four images yields all 6 unordered genuine pairs and 50 impostor pairs.
Scores are cosine similarities in [-1, 1]; a pair is accepted when the
score is strictly greater than the decision threshold.

Trials are columnar: a ``TrialSet`` is an image table plus an integer
array of (probe, reference) image rows, one row per trial.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from faceaudit.cohort import Cohort
from faceaudit.errors import DataError, TrialError

_POSITIVE_MODES = ("all_pairs_capped", "sample")


@dataclass(frozen=True)
class TrialPolicy:
    """How many pairs to draw per identity and how to draw them.

    ``positives_per_identity=None`` keeps every genuine pair.  With
    ``positive_mode="all_pairs_capped"`` genuine pairs are enumerated
    exhaustively and subsampled only when they exceed the cap;
    ``"sample"`` draws the cap directly with replacement disabled.
    """

    positives_per_identity: int | None = 6
    negatives_per_identity: int = 50
    positive_mode: str = "all_pairs_capped"

    def __post_init__(self):
        if self.positive_mode not in _POSITIVE_MODES:
            raise TrialError(
                f"positive_mode must be one of {_POSITIVE_MODES}, got {self.positive_mode!r}"
            )
        if self.positives_per_identity is not None and self.positives_per_identity < 1:
            raise TrialError("positives_per_identity must be positive or None")
        if self.negatives_per_identity < 0:
            raise TrialError("negatives_per_identity must be >= 0")
        if self.positive_mode == "sample" and self.positives_per_identity is None:
            raise TrialError("positive_mode='sample' requires an explicit positive count")


@dataclass(frozen=True, eq=False)
class TrialSet:
    """Trials as rows of an image table.

    ``image_ids`` lists the images identity by identity, identities in
    sorted order; ``identity_codes[i]`` indexes ``identities`` with the
    identity of image ``i``.  Trial ``k`` compares the images in rows
    ``pairs[k] = (probe, reference)``; it is genuine when both images
    share an identity.
    """

    image_ids: tuple[str, ...]
    identity_codes: np.ndarray  # int, one per image
    identities: tuple[str, ...]  # sorted
    pairs: np.ndarray  # int, shape (n_pairs, 2)
    skipped_identities: tuple[str, ...] = field(default=())

    @classmethod
    def from_image_pairs(
        cls, pairs: Sequence[tuple[str, str]], identity_of: Mapping[str, str]
    ) -> TrialSet:
        """Trials over the images ``pairs`` name, labelled by ``identity_of``."""
        images: dict[str, list[str]] = {}
        for image in sorted({image for pair in pairs for image in pair}):
            images.setdefault(identity_of[image], []).append(image)
        image_ids, codes, identities = _image_table(images)
        row_of = {image: row for row, image in enumerate(image_ids)}
        rows = array("q", (row_of[image] for pair in pairs for image in pair))
        return cls(image_ids, codes, identities, np.array(rows, dtype=np.intp).reshape(-1, 2))

    @cached_property
    def genuine(self) -> np.ndarray:
        """Boolean mask aligned with ``pairs``: True for same-identity trials."""
        codes = self.identity_codes[self.pairs]
        return codes[:, 0] == codes[:, 1]

    @property
    def probe_codes(self) -> np.ndarray:
        """Identity code of each trial's probe image."""
        return self.identity_codes[self.pairs[:, 0]]

    @property
    def n_genuine(self) -> int:
        return int(self.genuine.sum())

    @property
    def n_impostor(self) -> int:
        return len(self.pairs) - self.n_genuine

    def identity_of(self) -> dict[str, str]:
        """Image id to identity name, for every image in the table."""
        return {
            image: self.identities[code]
            for image, code in zip(self.image_ids, self.identity_codes.tolist())
        }


def _image_table(
    images_by_identity: Mapping[str, Sequence[str]],
) -> tuple[tuple[str, ...], np.ndarray, tuple[str, ...]]:
    """(image ids, identity code per image, identity names), identities sorted."""
    identities = tuple(sorted(images_by_identity))
    image_ids = tuple(image for ident in identities for image in images_by_identity[ident])
    sizes = [len(images_by_identity[ident]) for ident in identities]
    return image_ids, np.repeat(np.arange(len(identities), dtype=np.intp), sizes), identities


def _genuine_pairs(start: int, n_own: int, policy: TrialPolicy, rng) -> list[tuple[int, int]]:
    """Genuine pairs among the ``n_own`` image rows beginning at ``start``."""
    all_pairs = [
        (start + i, start + j) for i in range(n_own) for j in range(i + 1, n_own)
    ]
    cap = policy.positives_per_identity
    if policy.positive_mode == "sample":
        cap = min(cap, len(all_pairs))
    elif cap is None or len(all_pairs) <= cap:
        return all_pairs
    chosen = rng.choice(len(all_pairs), size=cap, replace=False)
    return [all_pairs[i] for i in sorted(chosen)]


def _impostor_pairs(
    identity: str, start: int, n_own: int, n_images: int, policy: TrialPolicy, rng
) -> list[tuple[int, int]]:
    """Draw distinct cross-identity pairs by rejection sampling.

    Each draw picks one of this identity's images uniformly and one
    image of any other identity uniformly; duplicates of an already
    drawn (probe, reference) pair are rejected and redrawn.  The
    identity's own rows are ``start .. start + n_own - 1``; the second
    draw indexes the remaining rows and skips over that block.
    """
    need = policy.negatives_per_identity
    if need == 0:
        return []
    n_other = n_images - n_own
    if n_own * n_other < need:
        raise TrialError(
            f"identity {identity!r}: only {n_own * n_other} distinct impostor pairs "
            f"available, policy requires {need}"
        )
    seen: set[int] = set()
    pairs: list[tuple[int, int]] = []
    while len(pairs) < need:
        probe = start + int(rng.integers(n_own))
        reference = int(rng.integers(n_other))
        if reference >= start:
            reference += n_own
        key = probe * n_images + reference
        if key in seen:
            continue
        seen.add(key)
        pairs.append((probe, reference))
    return pairs


def generate_trials(cohort: Cohort, policy: TrialPolicy, seed: int) -> TrialSet:
    """Build the full trial list, iterating identities in sorted order.

    Identities with fewer than two images cannot form genuine pairs and
    are skipped with a warning; their images still serve as impostor
    references.  The same (cohort, policy, seed) triple always yields
    the same pair list.
    """
    skipped = tuple(sorted(k for k, v in cohort.identities.items() if len(v) < 2))
    for identity in skipped:
        warnings.warn(f"identity {identity!r} has fewer than two images; skipped", stacklevel=2)
    if len(cohort.identities) - len(skipped) < 2:
        raise DataError("need at least two identities with two or more images each")

    image_ids, codes, identities = _image_table(cohort.identities)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = array("q")  # (probe, reference) image rows, flattened
    start = 0
    for identity in identities:
        n_own = len(cohort.identities[identity])
        if n_own >= 2:
            for pair in _genuine_pairs(start, n_own, policy, rng):
                rows.extend(pair)
            for pair in _impostor_pairs(identity, start, n_own, len(image_ids), policy, rng):
                rows.extend(pair)
        start += n_own
    return TrialSet(
        image_ids=image_ids,
        identity_codes=codes,
        identities=identities,
        pairs=np.array(rows, dtype=np.intp).reshape(-1, 2),
        skipped_identities=skipped,
    )


def score_trials(cohort: Cohort, trials: TrialSet, chunk_size: int = 4096) -> np.ndarray:
    """Cosine similarity per pair, float64, aligned with ``trials.pairs``.

    Scoring is chunked for memory; each score depends only on its own
    two vectors, so the chunk size never changes the result.
    """
    vectors = np.array(
        [cohort.vector(image_id) for image_id in trials.image_ids], dtype=np.float64
    ).reshape(len(trials.image_ids), cohort.dim)
    norms = np.linalg.norm(vectors, axis=1)
    used = trials.pairs.ravel()
    zero = np.flatnonzero(norms[used] == 0.0)
    if zero.size:
        which = trials.image_ids[used[zero[0]]]
        raise DataError(f"cannot score zero-norm embedding {which!r}")
    scores = np.empty(len(trials.pairs), dtype=np.float64)
    for start in range(0, len(trials.pairs), chunk_size):
        probe, reference = trials.pairs[start : start + chunk_size].T
        scores[start : start + len(probe)] = np.clip(
            np.einsum("ij,ij->i", vectors[probe], vectors[reference])
            / (norms[probe] * norms[reference]),
            -1.0,
            1.0,
        )
    return scores


_CSV_HEADER = ["probe_image_id", "reference_image_id", "label", "score"]
_LABELS = {True: "genuine", False: "impostor"}


def write_trials_csv(
    path: str | Path, trials: TrialSet, scores: np.ndarray | None = None
) -> None:
    """Export pairs as delimited text; the score cell is empty when unscored."""
    if scores is not None and len(scores) != len(trials.pairs):
        raise DataError(f"{len(scores)} scores for {len(trials.pairs)} pairs")
    # Rows are produced lazily, so no per-row Python objects pile up.
    probes = map(trials.image_ids.__getitem__, trials.pairs[:, 0])
    references = map(trials.image_ids.__getitem__, trials.pairs[:, 1])
    labels = map(_LABELS.__getitem__, trials.genuine.tolist())
    cells = repeat("") if scores is None else map(repr, map(float, scores))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        writer.writerows(zip(probes, references, labels, cells))


def _identities_from_labels(
    pairs: list[tuple[str, str]], stated_genuine: list[bool]
) -> dict[str, str]:
    """Recover an image-to-identity map from genuine-pair connectivity.

    Genuine pairs link images of one identity; connected components of
    that graph are identities.  Images appearing only in impostor pairs
    form singleton components.  Components are labelled by their
    lexicographically smallest member, which keeps the map deterministic.
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for (probe, reference), genuine in zip(pairs, stated_genuine):
        for image in (probe, reference):
            parent.setdefault(image, image)
        if genuine:
            ra, rb = find(probe), find(reference)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return {image: find(image) for image in parent}


def read_trials_csv(
    path: str | Path, identity_of: dict[str, str] | None = None
) -> tuple[TrialSet, np.ndarray]:
    """Read pairs back; returns (trials, scores), unscored cells as NaN.

    The file format carries no identity column.  When ``identity_of``
    is given it supplies the labels (and the stated genuine/impostor
    labels are checked against it); otherwise identities are
    reconstructed from genuine-pair connectivity, which reproduces the
    original grouping up to renaming.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty trial file") from None
        if header != _CSV_HEADER:
            raise DataError(f"{path}: unrecognised trial file header {header!r}")
        pairs: list[tuple[str, str]] = []
        stated_genuine: list[bool] = []
        scores: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 cells, got {len(row)}")
            if row[2] not in ("genuine", "impostor"):
                raise DataError(f"{path}:{lineno}: bad label {row[2]!r}")
            pairs.append((row[0], row[1]))
            stated_genuine.append(row[2] == "genuine")
            try:
                scores.append(float(row[3]) if row[3].strip() else float("nan"))
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad score {row[3]!r}") from None
    if identity_of is None:
        mapping = _identities_from_labels(pairs, stated_genuine)
    else:
        mapping = identity_of
    for i, ((probe, reference), stated) in enumerate(zip(pairs, stated_genuine), start=2):
        try:
            probe_ident = mapping[probe]
            ref_ident = mapping[reference]
        except KeyError as exc:
            raise DataError(f"{path}: unknown image_id {exc} in row {i}") from None
        if identity_of is not None:
            if stated != (probe_ident == ref_ident):
                raise DataError(f"{path}: row {i} label contradicts the identity map")
        if probe == reference:
            raise DataError(
                f"{path}: row {i}: genuine pair cannot reuse image {probe!r} on both sides"
            )
    return TrialSet.from_image_pairs(pairs, mapping), np.asarray(scores, dtype=np.float64)

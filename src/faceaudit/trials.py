"""Verification trial construction and scoring.

Each identity contributes genuine (same-identity) and impostor
(cross-identity) image pairs.  With the default policy an identity with
four images yields all 6 unordered genuine pairs and 50 impostor pairs.
Scores are cosine similarities in [-1, 1]; a pair is accepted when the
score is strictly greater than the decision threshold.

Trials are columnar: a ``TrialSet`` is an image table, laid out as the
cohort's, plus an integer array of (probe, reference) image rows, one
row per trial.
"""

from __future__ import annotations

import csv
import gc
import warnings
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import count, islice, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from faceaudit.cohort import Cohort, ImageTable, csv_cells, positions
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

    def n_genuine(self, n_own: int) -> int:
        """How many genuine pairs an identity with ``n_own`` images gets."""
        n_all, cap = n_own * (n_own - 1) // 2, self.positives_per_identity
        return n_all if cap is None else min(n_all, cap)


@dataclass(frozen=True, eq=False)
class TrialSet(ImageTable):
    """Trials as rows of an image table.

    Trial ``k`` compares the images in rows ``pairs[k] = (probe,
    reference)``; it is genuine when both images share an identity.
    """

    pairs: np.ndarray  # int, shape (n_pairs, 2)
    skipped_identities: tuple[str, ...] = field(default=())

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


@cache
def _upper_pairs(n_own: int) -> np.ndarray:
    """Every (i, j) with i < j < ``n_own``, ordered by i, then j; shared, so read-only."""
    pairs = np.stack(np.triu_indices(n_own, k=1), axis=1)
    pairs.flags.writeable = False
    return pairs


def _genuine_pairs(start: int, n_own: int, policy: TrialPolicy, rng) -> np.ndarray:
    """Genuine pairs among the ``n_own`` image rows beginning at ``start``."""
    pairs = _upper_pairs(n_own)
    size = policy.n_genuine(n_own)
    if policy.positive_mode == "sample" or size < len(pairs):
        pairs = pairs[np.sort(rng.choice(len(pairs), size=size, replace=False))]
    return start + pairs


def _impostor_pairs(
    identity: str, start: int, n_own: int, n_images: int, policy: TrialPolicy, rng
) -> np.ndarray:
    """Draw distinct cross-identity pairs by rejection sampling.

    Each draw picks one of this identity's images uniformly and one
    image of any other identity uniformly; duplicates of an already
    drawn (probe, reference) pair are rejected and redrawn.  The
    identity's own rows are ``start .. start + n_own - 1``; the second
    draw indexes the remaining rows and skips over that block.  One
    ``integers`` call, bounds alternating ``(n_own, n_other)``, draws
    every missing pair; it takes the values one call per value would,
    and redraws only the shortfall, so the stream is unchanged.
    """
    need = policy.negatives_per_identity
    n_other = n_images - n_own
    if n_own * n_other < need:
        raise TrialError(
            f"identity {identity!r}: only {n_own * n_other} distinct impostor pairs "
            f"available, policy requires {need}"
        )
    keys: dict[int, None] = {}  # probe * n_images + reference, first draws first
    while len(keys) < need:
        bounds = np.tile((n_own, n_other), need - len(keys))
        probe, reference = rng.integers(0, bounds).reshape(-1, 2).T
        reference += (reference >= start) * n_own
        keys.update(dict.fromkeys(((start + probe) * n_images + reference).tolist()))
    return np.stack(np.divmod(np.fromiter(keys, np.intp, need), n_images), axis=1)


def generate_trials(cohort: Cohort, policy: TrialPolicy, seed: int) -> TrialSet:
    """Build the full trial list over the cohort's image table,
    identities in sorted order.

    Identities with fewer than two images cannot form genuine pairs and
    are skipped with a warning; their images still serve as impostor
    references.  The same (cohort, policy, seed) triple always yields
    the same pair list.
    """
    sizes = np.bincount(cohort.identity_codes, minlength=len(cohort.identities)).tolist()
    skipped = tuple(k for k, size in zip(cohort.identities, sizes) if size < 2)
    for identity in skipped:
        warnings.warn(f"identity {identity!r} has fewer than two images; skipped", stacklevel=2)
    if len(cohort.identities) - len(skipped) < 2:
        raise DataError("need at least two identities with two or more images each")

    n_images = len(cohort.image_ids)
    rng = np.random.Generator(np.random.PCG64(seed))
    n_pairs = sum(policy.n_genuine(n) + policy.negatives_per_identity for n in sizes if n >= 2)
    pairs = np.empty((n_pairs, 2), dtype=np.intp)
    start = row = 0
    for identity, n_own in zip(cohort.identities, sizes):
        if n_own >= 2:
            for block in (
                _genuine_pairs(start, n_own, policy, rng),
                _impostor_pairs(identity, start, n_own, n_images, policy, rng),
            ):
                pairs[row : row + len(block)] = block
                row += len(block)
        start += n_own
    return TrialSet(
        image_ids=cohort.image_ids,
        identity_codes=cohort.identity_codes,
        identities=cohort.identities,
        pairs=pairs,
        skipped_identities=skipped,
    )


def score_trials(cohort: Cohort, trials: TrialSet, chunk_size: int = 4096) -> np.ndarray:
    """Cosine similarity per pair, float64, aligned with ``trials.pairs``.

    Vectors are gathered from the float32 matrix into float64 one chunk
    at a time, so no float64 copy of the matrix is made; each score
    depends only on its own two vectors, so the chunk size never changes
    the result.
    """
    at = positions(cohort.image_ids, trials.image_ids)
    if (at < 0).any():
        image = trials.image_ids[int(np.argmin(at))]
        raise DataError(f"cannot score image {image!r}: it has no embedding")
    vectors = cohort.vectors
    blocks = range(0, len(vectors), chunk_size)
    norms = np.concatenate(
        [np.linalg.norm(vectors[b : b + chunk_size].astype(float), axis=1) for b in blocks]
    )
    pairs = at[trials.pairs]
    used = pairs.ravel()
    zero = np.flatnonzero(norms[used] == 0.0)
    if zero.size:
        which = cohort.image_ids[used[zero[0]]]
        raise DataError(f"cannot score zero-norm embedding {which!r}")
    scores = np.empty(len(pairs), dtype=np.float64)
    # float64 rows of one chunk, reused: a fresh allocation per chunk costs page faults
    gathered = np.empty((2, min(chunk_size, len(pairs)), vectors.shape[1]))
    for start in range(0, len(pairs), chunk_size):
        probe, reference = pairs[start : start + chunk_size].T
        u, v = gathered[:, : len(probe)]
        u[...] = vectors[probe]
        v[...] = vectors[reference]
        scores[start : start + len(probe)] = np.clip(
            np.einsum("ij,ij->i", u, v) / (norms[probe] * norms[reference]), -1.0, 1.0
        )
    return scores


_CSV_HEADER = ["probe_image_id", "reference_image_id", "label", "score"]
_LABELS = {True: "genuine", False: "impostor"}
_GENUINE = {"genuine": 1, "impostor": 0}
_CHUNK_ROWS = 32768


def write_trials_csv(
    path: str | Path, trials: TrialSet, scores: np.ndarray | None = None
) -> None:
    """Export pairs as delimited text; the score cell is empty when unscored."""
    if scores is not None and len(scores) != len(trials.pairs):
        raise DataError(f"{len(scores)} scores for {len(trials.pairs)} pairs")
    # Rows are produced lazily, so no per-row Python objects pile up;
    # each image id is quoted once, as csv.writer would quote it.
    ids = csv_cells(trials.image_ids)
    probes = map(ids.__getitem__, trials.pairs[:, 0])
    references = map(ids.__getitem__, trials.pairs[:, 1])
    labels = map(_LABELS.__getitem__, trials.genuine.tolist())
    cells = repeat("") if scores is None else map(float.__repr__, np.asarray(scores, float))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_CSV_HEADER) + "\n")
        fh.writelines(map("{},{},{},{}\n".format, probes, references, labels, cells))


def _line_of(path: str | Path, index: int) -> int:
    """File line of trial row ``index``, counted as ``read_trials_csv``
    counts lines.  The file is read again, so only error paths pay."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = (lineno for lineno, row in enumerate(csv.reader(fh), start=1) if row)
        return next(islice(lines, index + 1, None))  # + 1 skips the header


def _score(cell: str) -> float:
    if "_" in cell:  # float() reads "0_5" as 5.0
        raise ValueError(cell)
    return float(cell) if cell.strip() else float("nan")


def _raise_row_fault(path: str | Path, chunk: list[list[str]], first_line: int) -> NoReturn:
    """Raise the first fault of a chunk of trial rows, checked row by row."""
    for lineno, row in enumerate(chunk, start=first_line):
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 cells, got {len(row)}")
        if row[2] not in _GENUINE:
            raise DataError(f"{path}:{lineno}: bad label {row[2]!r}")
        try:
            _score(row[3])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad score {row[3]!r}") from None
    raise AssertionError("no faulty row in the chunk")


def _parse_trials(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """(image ids by code, (probe, reference) codes, stated genuine, scores).

    Rows are read in chunks of ``_CHUNK_ROWS``; each chunk's image ids
    are interned straight to integer codes, numbered in order of first
    appearance, so no per-row Python objects outlive their chunk.
    """
    code_of: dict[str, int] = defaultdict(count().__next__)  # a new id gets the next code
    probe_codes, reference_codes, scores = array("q"), array("q"), array("d")
    labels = bytearray()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty trial file") from None
        if header != _CSV_HEADER:
            raise DataError(f"{path}: unrecognised trial file header {header!r}")
        for first_line in count(2, _CHUNK_ROWS):  # file line of the chunk's first row
            chunk = list(islice(reader, _CHUNK_ROWS))
            if not chunk:
                break
            rows = list(filter(None, chunk))
            if not rows:
                continue
            if set(map(len, rows)) != {4}:
                _raise_row_fault(path, chunk, first_line)
            probes, references, label_cells, score_cells = zip(*rows)
            try:
                labels += bytes(map(_GENUINE.get, label_cells))  # a bad label is a TypeError
                if "_" in "".join(score_cells):  # float() reads "0_5" as 5.0
                    raise ValueError(score_cells)
                try:
                    scores += array("d", map(float, score_cells))
                except ValueError:  # empty (unscored) cells read as NaN
                    scores += array("d", map(_score, score_cells))
            except (TypeError, ValueError):
                _raise_row_fault(path, chunk, first_line)
            probe_codes.extend(map(code_of.__getitem__, probes))
            reference_codes.extend(map(code_of.__getitem__, references))
    pairs = np.stack([np.array(probe_codes), np.array(reference_codes)], axis=1).astype(np.intp)
    genuine = np.frombuffer(labels, dtype=np.uint8).astype(bool)
    return list(code_of), pairs, genuine, np.array(scores, dtype=np.float64)


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Union-find root of each of ``n`` nodes joined by ``edges`` rows."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in edges.tolist():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(n)], dtype=np.intp)


def read_trials_csv(
    path: str | Path, table: ImageTable | None = None
) -> tuple[TrialSet, np.ndarray]:
    """Read pairs back; returns (trials, scores), unscored cells as NaN.

    The file format carries no identity column.  When an image
    ``table``, such as a cohort, is given it supplies the labels (and
    the stated genuine/impostor labels are checked against it), and the
    trials keep the identities the file names; otherwise identities are the
    connected components of the genuine pairs, each named by its
    smallest image id, which reproduces the original grouping up to
    renaming when the genuine pairs connect each identity's images.
    """
    enabled = gc.isenabled()
    gc.disable()  # the parse makes many objects and no reference cycles
    try:
        names, pairs, stated, scores = _parse_trials(path)
    finally:
        if enabled:
            gc.enable()
    n = len(names)
    by_name = sorted(range(n), key=names.__getitem__)  # image codes in image id order
    rank = np.empty(n, dtype=np.intp)
    rank[by_name] = np.arange(n)
    same = pairs[:, 0] == pairs[:, 1]
    unknown, contradicts = np.zeros_like(pairs, dtype=bool), np.zeros_like(same)
    if table is None:
        root = _components(n, pairs[stated])
        smallest = np.full(n, n, dtype=np.intp)  # rank of each component's smallest id
        np.minimum.at(smallest, root, rank)
        firsts, codes = np.unique(smallest[root], return_inverse=True)
        identities = tuple(names[by_name[r]] for r in firsts.tolist())
    else:
        at = positions(table.image_ids, names)
        labels = np.where(at >= 0, table.identity_codes[at], -1)
        used = np.unique(labels[at >= 0])
        identities = tuple(map(table.identities.__getitem__, used.tolist()))
        codes = np.where(at >= 0, np.searchsorted(used, labels), -1)
        pair_codes = codes[pairs]
        unknown = pair_codes < 0
        contradicts = stated != (pair_codes[:, 0] == pair_codes[:, 1])
    faults = np.flatnonzero(unknown.any(axis=1) | contradicts | same)
    if faults.size:
        i = int(faults[0])
        where = f"{path}:{_line_of(path, i)}"
        if unknown[i].any():
            image = names[pairs[i, 0] if unknown[i, 0] else pairs[i, 1]]
            raise DataError(f"{where}: unknown image_id {image!r}")
        if contradicts[i]:
            raise DataError(f"{where}: label contradicts the identity map")
        raise DataError(
            f"{where}: genuine pair cannot reuse image {names[pairs[i, 0]]!r} on both sides"
        )
    # The image table: identity by identity, each identity's images sorted.
    order = np.lexsort((rank, codes))
    row = np.empty(n, dtype=np.intp)
    row[order] = np.arange(n)
    trials = TrialSet(
        image_ids=tuple(map(names.__getitem__, order.tolist())),
        identity_codes=codes[order],
        identities=identities,
        pairs=row[pairs],
    )
    return trials, scores

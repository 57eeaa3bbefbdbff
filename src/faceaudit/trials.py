"""Verification trial construction and scoring.

Each identity contributes genuine (same-identity) and impostor
(cross-identity) image pairs.  With the default policy an identity with
four images yields all 6 unordered genuine pairs and 50 impostor pairs.
Scores are cosine similarities in [-1, 1]; a pair is accepted when the
score is strictly greater than the decision threshold.

Trials are columnar: a ``TrialSet`` is an image table, laid out as the
cohort's, plus an int32 array of (probe, reference) image rows, one
row per trial.
"""

from __future__ import annotations

import gc
import math
import warnings
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import chain, count, islice
from pathlib import Path
from typing import NoReturn

import numpy as np

from faceaudit.cohort import WRITE_CELLS, Cohort, ImageTable, csv_cells, float_cells, positions
from faceaudit.errors import DataError, TrialError
from faceaudit.inputs import csv_columns, csv_header, decimal, open_text


@dataclass(frozen=True)
class TrialPolicy:
    """How many pairs to draw per identity.

    Genuine pairs are enumerated exhaustively and subsampled without
    replacement only when they exceed ``positives_per_identity``;
    ``None`` keeps every genuine pair.
    """

    positives_per_identity: int | None = 6
    negatives_per_identity: int = 50

    def __post_init__(self):
        if self.positives_per_identity is not None and self.positives_per_identity < 1:
            raise TrialError("positives_per_identity must be positive or None")
        if self.negatives_per_identity < 0:
            raise TrialError("negatives_per_identity must be >= 0")

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

    pairs: np.ndarray  # int32, shape (n_pairs, 2)
    skipped_identities: tuple[str, ...] = field(default=())

    @cached_property
    def genuine(self) -> np.ndarray:
        """Boolean mask aligned with ``pairs``: True for same-identity trials."""
        codes = self.identity_codes
        return codes[self.pairs[:, 0]] == codes[self.pairs[:, 1]]

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
    if size < len(pairs):
        pairs = pairs[np.sort(rng.choice(len(pairs), size=size, replace=False))]
    return start + pairs


@lru_cache(maxsize=256)
def _bounds(n_own: int, n_other: int, count: int) -> np.ndarray:
    """``integers`` bounds of ``count`` (probe, reference) draws,
    alternating ``(n_own, n_other)``; shared, so read-only."""
    bounds = np.tile((n_own, n_other), count)
    bounds.flags.writeable = False
    return bounds


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
        bounds = _bounds(n_own, n_other, need - len(keys))
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
    pairs = np.empty((n_pairs, 2), dtype=np.int32)
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


_GATHER_BYTES = 1 << 20  # per float64 scratch buffer of score_trials


def score_trials(cohort: Cohort, trials: TrialSet) -> np.ndarray:
    """Cosine similarity per pair, float64, aligned with ``trials.pairs``.

    Vectors are gathered from the float32 matrix into float64 one chunk
    of rows at a time, so no float64 copy of the matrix is made.  A chunk
    holds as many rows as fit in 1 MiB of float64, whatever the
    dimension; each score depends only on its own two vectors, so the
    chunk size never changes the result.
    """
    at = positions(cohort.image_ids, trials.image_ids)
    if (at < 0).any():
        image = trials.image_ids[int(np.argmin(at))]
        raise DataError(f"cannot score image {image!r}: it has no embedding")
    vectors = cohort.vectors
    chunk_size = max(1, _GATHER_BYTES // (8 * vectors.shape[1]))
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
    gathered = np.empty((2, max(2, min(chunk_size, len(pairs))), vectors.shape[1]))
    for start in range(0, len(pairs), chunk_size):
        chunk = pairs[start : start + chunk_size]
        n = len(chunk)
        if n == 1:  # einsum sums a lone row of over 8,192 values in another order
            chunk = chunk.repeat(2, axis=0)
        probe, reference = chunk.T
        u, v = gathered[:, : len(probe)]
        u[...] = vectors[probe]
        v[...] = vectors[reference]
        cosine = np.einsum("ij,ij->i", u, v) / (norms[probe] * norms[reference])
        scores[start : start + n] = np.clip(cosine[:n], -1.0, 1.0)
    return scores


_CSV_HEADER = ["probe_image_id", "reference_image_id", "label", "score"]
_GENUINE = {"genuine": 1, "impostor": 0}


def write_trials_csv(
    path: str | Path, trials: TrialSet, scores: np.ndarray | None = None
) -> None:
    """Export pairs as delimited text; an absent or NaN score is an empty cell."""
    if scores is not None and len(scores) != len(trials.pairs):
        raise DataError(f"{len(scores)} scores for {len(trials.pairs)} pairs")
    scores = np.full(len(trials.pairs), np.nan) if scores is None else np.asarray(scores, float)
    # Rows are built WRITE_CELLS cells at a time, so no per-row Python
    # objects pile up; each image id is quoted once, as csv.writer would.
    ids = csv_cells(trials.image_ids)
    labels = ("impostor", "genuine")
    step = WRITE_CELLS // len(_CSV_HEADER)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_CSV_HEADER) + "\n")
        for start in range(0, len(trials.pairs), step):
            stop = start + step
            probes, references = trials.pairs[start:stop].T.tolist()
            genuine = trials.genuine[start:stop].tolist()
            rows = zip(probes, references, genuine, float_cells(scores[start:stop]))
            fh.write("".join([f"{ids[p]},{ids[r]},{labels[g]},{cell}\n" for p, r, g, cell in rows]))


def _score(cell: str) -> float:
    """An empty cell is unscored (NaN); any other must be a finite decimal."""
    if not cell.strip():
        return math.nan
    if not math.isfinite(value := decimal(cell)):
        raise ValueError(f"not a finite score: {cell!r}")
    return value


def _raise_row_fault(path: str | Path, lines: Sequence[int], columns: list) -> NoReturn:
    """Raise the first label or score fault of a block of trial rows,
    checking row by row; ``lines`` are the rows' file lines."""
    for lineno, label, cell in zip(lines, columns[2], columns[3]):
        if label not in _GENUINE:
            raise DataError(f"{path}:{lineno}: bad label {label!r}")
        try:
            _score(cell)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad score {cell!r}") from None
    raise AssertionError("no faulty row in the trial block")


def _parse_trials(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, list]:
    """(image ids by code, (probe, reference) codes, stated genuine,
    scores, the file lines of each block's rows from ``csv_columns``).

    Rows are read a block of columns at a time; each block's image ids
    are interned straight to integer codes, numbered in order of first
    appearance, so no cell outlives its block.  Each row's two codes are
    stored side by side, so the code buffer is the int32 pair array.
    """
    code_of: dict[str, int] = defaultdict(count().__next__)  # a new id gets the next code
    codes, scores = array("i"), array("d")
    labels, line_blocks = bytearray(), []
    with open_text(path) as fh:
        header = csv_header(fh, path, "trial")
        if header != _CSV_HEADER:
            raise DataError(f"{path}: unrecognised trial file header {header!r}")
        for lines, columns in csv_columns(fh, len(_CSV_HEADER), path):
            probes, references, label_cells, score_cells = columns
            try:
                labels += bytes(map(_GENUINE.get, label_cells))  # a bad label is a TypeError
                try:  # float() reads "0_5" as 5.0, and "nan" or "inf" are no scores
                    block = array("d", map(float, score_cells))
                    if "_" in "".join(score_cells) or not np.isfinite(block).all():
                        raise ValueError(score_cells)
                except ValueError:  # empty (unscored) cells read as NaN; _score refuses the rest
                    block = array("d", map(_score, score_cells))
                scores += block
            except (TypeError, ValueError):
                _raise_row_fault(path, lines, columns)
            line_blocks.append(lines)
            both = [None] * (2 * len(probes))
            both[::2], both[1::2] = probes, references
            codes.extend(map(code_of.__getitem__, both))
    pairs = np.frombuffer(codes, dtype=np.intc).reshape(-1, 2)  # C int is int32
    genuine = np.frombuffer(labels, dtype=np.bool_)
    return list(code_of), pairs, genuine, np.frombuffer(scores, dtype=np.float64), line_blocks


def _components(n: int, edges: np.ndarray) -> np.ndarray:
    """Union-find root of each of ``n`` nodes joined by ``edges`` rows."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for start in range(0, len(edges), 4096):  # no Python list of every edge at once
        for a, b in edges[start : start + 4096].tolist():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(n)], dtype=np.intp)


def read_trials_csv(
    path: str | Path, table: ImageTable | None = None
) -> tuple[TrialSet, np.ndarray]:
    """Read pairs back; returns (trials, scores), unscored cells as NaN.

    The file format carries no identity column.  When an image
    ``table``, such as a cohort, is given it supplies the labels, and the
    trials keep the identities the file names; otherwise identities are the
    connected components of the genuine pairs, each named by its
    smallest image id, which reproduces the original grouping up to
    renaming when the genuine pairs connect each identity's images.
    Either way a row that names an image outside ``table``, compares an
    image with itself, or states a label the identities contradict is
    refused, named by the file line recorded in the one read of the file.
    """
    enabled = gc.isenabled()
    gc.disable()  # the parse makes many objects and no reference cycles
    try:
        names, pairs, stated, scores, line_blocks = _parse_trials(path)
    finally:
        if enabled:
            gc.enable()
    n = len(names)
    by_name = sorted(range(n), key=names.__getitem__)  # image codes in image id order
    rank = np.empty(n, dtype=np.intp)
    rank[by_name] = np.arange(n)
    if table is None:
        root = _components(n, pairs[stated])
        smallest = np.full(n, n, dtype=np.intp)  # rank of each component's smallest id
        np.minimum.at(smallest, root, rank)
        firsts, codes = np.unique(smallest[root], return_inverse=True)
        identities = tuple(names[by_name[r]] for r in firsts.tolist())
        source = "the genuine pairs"
    else:
        at = positions(table.image_ids, names)
        labels = np.where(at >= 0, table.identity_codes[at], -1)
        used = np.flatnonzero(np.bincount(labels[at >= 0]))  # as np.unique, without numpy.ma
        identities = tuple(map(table.identities.__getitem__, used.tolist()))
        codes = np.where(at >= 0, np.searchsorted(used, labels), -1).astype(np.int32)
        source = "the identity map"
    # The image table: identity by identity, each identity's images sorted.
    order = np.lexsort((rank, codes))
    row = np.empty(n, dtype=np.int32)
    row[order] = np.arange(n)
    # A slice at a time, rows are checked and their image codes become
    # table rows in place: row[pairs] would be a second pair array.
    step = 1 << 15
    for start in range(0, len(pairs), step):
        part = pairs[start : start + step]
        probe, reference = codes[part[:, 0]], codes[part[:, 1]]
        faulty = (probe < 0) | (reference < 0) | (part[:, 0] == part[:, 1])
        faulty |= stated[start : start + step] != (probe == reference)
        if faulty.any():
            i = int(faulty.argmax())
            where = f"{path}:{next(islice(chain.from_iterable(line_blocks), start + i, None))}"
            a, b = part[i].tolist()
            if min(codes[a], codes[b]) < 0:
                raise DataError(f"{where}: unknown image_id {names[a if codes[a] < 0 else b]!r}")
            if a == b:
                raise DataError(f"{where}: pair compares image {names[a]!r} with itself")
            raise DataError(f"{where}: label contradicts {source}")
        part[...] = row[part]
    trials = TrialSet(
        image_ids=tuple(map(names.__getitem__, order.tolist())),
        identity_codes=codes[order].astype(np.int32),
        identities=identities,
        pairs=pairs,
    )
    return trials, scores

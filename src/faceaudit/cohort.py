"""Cohort ingestion: embeddings, per-image attributes, per-individual profiles.

File formats
------------
Embeddings, binary: magic ``FREB`` + version byte 0x01, then little-endian
u32 record count and u32 dimension, then per record a u16-length-prefixed
UTF-8 image_id, a u16-length-prefixed UTF-8 identity_id, and ``dim``
little-endian float32 values.

Embeddings, tabular: delimited text, one row per record:
``image_id, identity_id, v0, ..., v{dim-1}`` (no header).  Components
are plain decimals; one holding ``_`` is rejected, although ``float()``
reads ``1_0`` as 10.  Either format reads into one ``EmbeddingTable``:
the ids in file order and one float32 ``(n_images, dim)`` matrix.

Attributes: delimited text with a header row ``image_id`` followed by
schema variable names, each at most once, in any order; an empty cell
means the value is missing.  Categorical cells may hold either the
level name or its index.  In memory the rows form one
``AttributeTable`` with its columns in schema order.

Cohorts: a ``Cohort`` is the image table trials use (images identity by
identity, identities sorted, each identity's images sorted) with the
embedding matrix in the same row order, plus the ``AttributeTable``.

Profiles: each identity aggregates its images' rows in sorted image-id
order, so neither the row nor the column order of the file changes a
profile; continuous means are ``np.mean`` of the present values.  The
profiles of a cohort form one ``ProfileTable``, a row per identity.
"""

from __future__ import annotations

import csv
import math
import operator
import struct
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat, tee
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

import numpy as np

from faceaudit.errors import DataError, SchemaError
from faceaudit.schema import AttributeSchema, Variable

_MAGIC = b"FREB"
_VERSION = 1


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """The records of one embedding file, in file order: image
    ``image_ids[i]`` of identity ``identity_ids[i]`` has the embedding
    ``vectors[i]``."""

    image_ids: tuple[str, ...]
    identity_ids: tuple[str, ...]
    vectors: np.ndarray  # float32, shape (n_images, dim)

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float32)
        object.__setattr__(self, "vectors", vectors)
        if not len(self.image_ids) == len(self.identity_ids) == len(vectors):
            raise DataError("embedding table columns differ in length")
        if len(vectors) and (vectors.ndim != 2 or vectors.shape[1] < 1):
            raise DataError(f"embedding for {self.image_ids[0]!r} must be a 1-d vector")
        bad = np.flatnonzero(~np.isfinite(vectors).all(axis=-1))
        if bad.size:
            raise DataError(f"embedding for {self.image_ids[bad[0]]!r} contains non-finite values")

    def __len__(self) -> int:
        return len(self.image_ids)


@dataclass(frozen=True, eq=False)
class AttributeTable:
    """Per-image attribute values, one row per image.

    ``values[i, j]`` holds schema variable ``j`` of image ``image_ids[i]``;
    NaN marks a missing value.
    """

    image_ids: tuple[str, ...]
    values: np.ndarray  # float64, shape (n_images, n_vars), schema order


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Per-identity attribute profiles, one row per identity.

    ``values[i, j]`` aggregates schema variable ``j`` over the images of
    ``identities[i]`` as ``aggregate_table`` does: the mean of the
    present values for a continuous variable, the mode for a boolean
    (ties to 1) or categorical one (ties to the lowest level index).
    NaN marks a variable with no present value, so an identity without
    attribute rows has an all-NaN row.  ``coverage[i, j]`` is the
    fraction of the identity's images with the value present.
    Identities are sorted, so row order is identity order.
    """

    identities: tuple[str, ...]
    values: np.ndarray  # float64, shape (n_identities, n_vars), schema order
    coverage: np.ndarray  # float64, shape (n_identities, n_vars)

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.identities, self.identities[1:])):
            raise DataError("profile identities must be sorted and distinct")


def positions(names: Sequence[str], keys: Sequence[str]) -> np.ndarray:
    """Position of each of ``keys`` in ``names``; -1 where it is absent."""
    at = dict(zip(names, range(len(names))))
    return np.fromiter(map(at.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))


@dataclass(frozen=True, eq=False)
class ImageTable:
    """Images listed identity by identity, identities in sorted order.

    ``identity_codes[i]`` indexes ``identities`` with the identity of
    image ``image_ids[i]``.
    """

    image_ids: tuple[str, ...]
    identity_codes: np.ndarray  # int, one per image
    identities: tuple[str, ...]  # sorted


@dataclass(frozen=True, eq=False)
class Cohort(ImageTable):
    """Immutable in-memory cohort; safe to share across readers.

    The image table holds every embedded image, each identity's images
    sorted; ``vectors[i]`` is the embedding of ``image_ids[i]``.
    ``images`` holds the attribute rows; an image may have none.
    """

    vectors: np.ndarray  # float32, shape (n_images, dim)
    images: AttributeTable


def write_embeddings_binary(path: str | Path, table: EmbeddingTable) -> None:
    if not len(table):
        raise DataError("refusing to write an empty embedding file")
    rows = table.vectors.astype("<f4", copy=False)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(struct.pack("<II", *rows.shape))
        for image_id, identity_id, row in zip(table.image_ids, table.identity_ids, rows):
            for text in (image_id, identity_id):
                raw = text.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise DataError(f"id too long for format: {text[:32]!r}...")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
            fh.write(row.tobytes())


def read_embeddings_binary(path: str | Path) -> EmbeddingTable:
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise DataError(f"{path}: bad magic bytes, not an embedding file")
    if len(data) > 4 and data[4] != _VERSION:  # a missing byte reads as truncation below
        raise DataError(f"{path}: unsupported version {data[4]}")
    offset = 5
    try:
        count, dim = struct.unpack_from("<II", data, offset)
        offset += 8
        if count * (4 + 4 * dim) > len(data) - offset:  # each record's least size
            raise ValueError(f"{count} records of dimension {dim} need more bytes")
        ids: tuple[list[str], list[str]] = ([], [])
        vectors = np.empty((count, dim), dtype=np.float32)
        for row in range(count):
            for column in ids:
                (id_len,) = struct.unpack_from("<H", data, offset)
                offset += 2
                column.append(data[offset : offset + id_len].decode("utf-8"))
                offset += id_len
            vectors[row] = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
            offset += 4 * dim
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise DataError(f"{path}: truncated or corrupt embedding file: {exc}") from exc
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes after last record")
    return EmbeddingTable(tuple(ids[0]), tuple(ids[1]), vectors)


def _component(cell: str) -> float:
    if "_" in cell:  # float() reads "1_0" as 10.0
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def read_embeddings_text(path: str | Path, delimiter: str = ",") -> EmbeddingTable:
    ids: tuple[list[str], list[str]] = ([], [])
    components = array("d")
    dim = 0
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise DataError(f"{path}:{lineno}: expected image_id, identity_id, values...")
            try:
                components.extend(map(_component, row[2:]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad vector component: {exc}") from exc
            width = len(row) - 2
            dim = dim or width
            if width != dim:
                raise DataError(f"dimension mismatch: {row[0]!r} has {width}, expected {dim}")
            ids[0].append(row[0])
            ids[1].append(row[1])
    vectors = np.frombuffer(components, dtype=np.float64).astype(np.float32)
    return EmbeddingTable(tuple(ids[0]), tuple(ids[1]), vectors.reshape(len(ids[0]), dim))


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read embeddings from either the binary or the tabular format."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return read_embeddings_binary(path)
    return read_embeddings_text(path)


def _parse_cell(var: Variable, raw: str) -> float:
    raw = raw.strip()
    if var.kind == "categorical" and raw in var.levels:
        return float(var.levels.index(raw))
    try:
        if "_" in raw:  # float() reads "1_0" as 10.0
            raise ValueError(raw)
        value = float(raw)
    except ValueError:
        raise SchemaError(f"variable {var.name!r}: cannot parse value {raw!r}") from None
    var.check_value(value)
    return value


def _parse_column(var: Variable, cells: Sequence[str]) -> tuple[np.ndarray, bool]:
    """A column's values, NaN for empty cells, and whether every cell
    passes ``_parse_cell``."""
    cells = list(map(str.strip, cells))
    lookup = {"": math.nan}  # empty cells are missing; level names map to their index
    for index, level in enumerate(var.levels):
        lookup.setdefault(level, float(index))
    try:
        values = np.fromiter(
            map(float, map(lookup.get, cells, cells)), dtype=np.float64, count=len(cells)
        )
    except ValueError:  # a cell that is no number
        return np.full(len(cells), np.nan), False
    # float() reads "1_0" as 10.0; level names may hold underscores.
    if "_" in "".join(cells) and any("_" in c and c not in lookup for c in cells):
        return values, False
    lo, hi = var.bounds()
    ok = np.isfinite(values) & (lo <= values) & (values <= hi)
    if not var.is_continuous:
        ok &= values == np.trunc(values)
    empty = np.fromiter(map(operator.not_, cells), dtype=bool, count=len(cells))
    return values, bool((ok | empty).all())


def _raise_first_fault(
    path: str | Path, header: list[str], raw: list[list[str]], schema: AttributeSchema
) -> NoReturn:
    """Raise the first fault of an attribute file's rows, checked row by row."""
    seen: set[str] = set()
    for lineno, row in enumerate(raw, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        if row[0] in seen:
            raise DataError(f"{path}:{lineno}: duplicate image_id {row[0]!r}")
        seen.add(row[0])
        for col, cell in zip(header[1:], row[1:]):
            if not cell.strip():
                continue
            try:
                _parse_cell(schema.variable(col), cell)
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: image {row[0]!r}: {exc}") from None
    raise AssertionError("no faulty row in the attribute file")


def read_attributes(path: str | Path, schema: AttributeSchema) -> AttributeTable:
    """Read an attribute file into a table, parsing it column by column.

    When the file has faults, it is checked again row by row, so the
    one reported is the first a row-by-row reader meets.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty attribute file") from None
        if not header or header[0] != "image_id":
            raise DataError(f"{path}: first attribute column must be image_id")
        known = set(schema.names())
        for i, col in enumerate(header[1:], start=1):
            if col not in known:
                raise SchemaError(f"{path}: unknown attribute column {col!r}")
            if col in header[1:i]:
                raise DataError(f"{path}: duplicate attribute column {col!r}")
        raw = list(reader)
    rows = list(filter(None, raw))
    columns = list(zip(*rows)) or [()] * len(header)
    image_ids = columns[0]
    ok = set(map(len, rows)) <= {len(header)} and len(set(image_ids)) == len(image_ids)
    values = np.full((len(image_ids), len(schema.variables)), np.nan)
    names = schema.names()
    for col, cells in zip(header[1:], columns[1:]):
        if not ok:
            break
        values[:, names.index(col)], ok = _parse_column(schema.variable(col), cells)
    if not ok:
        _raise_first_fault(path, header, raw, schema)
    # Fresh copies of the ids: once the cells parsed beside them are
    # freed, the memory they held can go back to the system.
    image_ids = tuple(image.encode().decode() for image in image_ids)
    return AttributeTable(image_ids=image_ids, values=values)


def csv_cells(texts: Sequence[str]) -> list[str]:
    """Each text as ``csv.writer`` writes it as one cell of a row: quoted
    where it holds the delimiter, a quote or a line break."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerows((text, "") for text in texts)  # beside a second cell, "" stays empty
    # A cell written unquoted is the text itself: keep it rather than a copy.
    return [line[:-2] if line[0] == '"' else text for text, line in zip(texts, lines)]


def _cells(var: Variable, column: np.ndarray) -> Iterator[str]:
    """A column's cells as the attribute file holds them, made lazily."""
    if var.is_continuous:
        keys, texts = tee(map(float.__repr__, column))
        return map({"nan": ""}.get, keys, texts)  # a missing value is an empty cell
    labels = csv_cells((*(var.levels if var.kind == "categorical" else ("0", "1")), ""))
    codes = np.where(np.isnan(column), len(labels) - 1, column).astype(np.intp)
    return map(labels.__getitem__, codes.tolist())


def write_attributes(path: str | Path, table: AttributeTable, schema: AttributeSchema) -> None:
    """Write the table; each image id and level label is quoted once."""
    columns = [_cells(var, column) for var, column in zip(schema.variables, table.values.T)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["image_id", *schema.names()])
        rows = map(",".join, zip(csv_cells(table.image_ids), *columns))
        fh.writelines(map("{}\n".format, rows))


def build_cohort(embeddings: EmbeddingTable, attributes: AttributeTable | None = None) -> Cohort:
    """Assemble and validate a cohort from in-memory pieces.

    Every attribute row must reference a known embedding; embeddings
    without an attribute row are allowed.
    """
    if not len(embeddings):
        raise DataError("no embedding records")
    embedded: set[str] = set()
    for image_id in embeddings.image_ids:
        if image_id in embedded:
            raise DataError(f"duplicate image_id {image_id!r} among embeddings")
        embedded.add(image_id)

    if attributes is None:
        attributes = AttributeTable(image_ids=(), values=np.empty((0, 0)))
    attributed: set[str] = set()
    for image_id in attributes.image_ids:
        if image_id not in embedded:
            raise DataError(f"attribute row for {image_id!r} has no matching embedding")
        if image_id in attributed:
            raise DataError(f"duplicate attribute row for {image_id!r}")
        attributed.add(image_id)

    image_ids, identity_ids = embeddings.image_ids, embeddings.identity_ids
    identities = tuple(sorted(set(identity_ids)))
    order = sorted(range(len(image_ids)), key=lambda i: (identity_ids[i], image_ids[i]))
    in_order = order == list(range(len(order)))  # as synth writes: share the matrix, no copy
    return Cohort(
        image_ids=tuple(map(image_ids.__getitem__, order)),
        identity_codes=positions(identities, identity_ids)[order],
        identities=identities,
        vectors=embeddings.vectors if in_order else embeddings.vectors[order],
        images=attributes,
    )


def load_cohort(
    embedding_path: str | Path,
    attribute_path: str | Path | None,
    schema: AttributeSchema,
) -> Cohort:
    """Load embeddings + attributes into a validated cohort.

    Passing no attribute path loads a bare cohort (pairing and scoring
    need no attributes).
    """
    embeddings = load_embeddings(embedding_path)
    if not len(embeddings):
        raise DataError(f"{embedding_path}: no embedding records")
    table = None if attribute_path is None else read_attributes(attribute_path, schema)
    return build_cohort(embeddings, table)


def aggregate_table(
    table: AttributeTable,
    image_ids: Sequence[str],
    codes: np.ndarray,
    n_groups: int,
    schema: AttributeSchema,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse the table rows of ``image_ids`` into one row per group.

    ``codes[i]`` is the group of ``image_ids[i]`` and must not decrease,
    so each group's images are contiguous; they are aggregated in the
    order given.  Images without a table row are skipped.  Continuous
    variables take the ``np.mean`` of the present values, booleans the
    mode with ties resolving to 1, categoricals the mode with ties
    resolving to the lowest level index.

    Returns (values, coverage, rows): NaN values where a group has no
    present value, the present fraction of each group's rows (0 for a
    group without rows), and each group's row count.
    """
    found = positions(table.image_ids, image_ids)
    have = found >= 0
    data = table.values[found[have]].reshape(-1, len(schema.variables))
    codes = np.asarray(codes, dtype=np.intp)[have]
    n_rows = np.bincount(codes, minlength=n_groups)
    out = np.full((n_groups, data.shape[1]), np.nan)
    coverage = np.empty_like(out)
    for j, var in enumerate(schema.variables):
        present = ~np.isnan(data[:, j])
        column, group = data[present, j], codes[present]
        counts = np.bincount(group, minlength=n_groups)
        coverage[:, j] = counts / np.maximum(n_rows, 1)
        if var.is_continuous:
            # Groups with k values form a C-contiguous (m, k) block, whose
            # mean(axis=1) sums each row as np.mean sums one group.
            starts = np.cumsum(counts) - counts
            for size in np.unique(counts[counts > 0]).tolist():
                which = np.flatnonzero(counts == size)
                block = column[starts[which, None] + np.arange(size)]
                # Rounding can put the mean of near-equal values just
                # outside them, so it is clamped to the values' range.
                mean = np.maximum(block.mean(axis=1), block.min(axis=1))
                out[which, j] = np.minimum(mean, block.max(axis=1))
            continue
        if var.kind == "boolean":
            ones = np.bincount(group, weights=column == 1.0, minlength=n_groups)
            out[:, j] = 2 * ones >= counts
        else:
            n_levels = len(var.levels)
            tally = np.bincount(
                group * n_levels + column.astype(np.intp), minlength=n_groups * n_levels
            )
            out[:, j] = tally.reshape(n_groups, n_levels).argmax(axis=1)
        out[counts == 0, j] = np.nan
    return out, coverage, n_rows


def aggregate_profiles(cohort: Cohort, schema: AttributeSchema) -> ProfileTable:
    """One profile row per cohort identity; missing per-image values are skipped.

    Coverage counts every image of the identity, attributed or not.
    """
    n_identities = len(cohort.identities)
    values, coverage, n_rows = aggregate_table(
        cohort.images, cohort.image_ids, cohort.identity_codes, n_identities, schema
    )
    coverage *= (n_rows / np.bincount(cohort.identity_codes, minlength=n_identities))[:, None]
    return ProfileTable(cohort.identities, values, coverage)

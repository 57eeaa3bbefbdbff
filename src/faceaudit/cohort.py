"""Cohort ingestion: embeddings, per-image attributes, per-individual profiles.

File formats
------------
Embeddings, binary: magic ``FREB`` + version byte 0x01, then little-endian
u32 record count and u32 dimension, then per record a u16-length-prefixed
UTF-8 image_id, a u16-length-prefixed UTF-8 identity_id, and ``dim``
little-endian float32 values.

Embeddings, tabular: delimited text, one row per record:
``image_id, identity_id, v0, ..., v{dim-1}`` (no header).  Components
are decimals as ``inputs.decimal`` reads them.  Either format reads
into one ``Cohort``; the binary writer lists its images in cohort
order.

Attributes: delimited text with a header row ``image_id`` followed by
schema variable names, each at most once, in any order; an empty cell
means the value is missing.  Categorical cells may hold either the
level name or its index.  In memory the rows form one
``AttributeTable`` with its columns in schema order.

Cohorts: a ``Cohort`` is an embedding set as the image table trials use
(images identity by identity, identities sorted, each identity's images
sorted) with the embedding matrix in the same row order.  It holds no
attribute rows: pairing and scoring read none, and an audit reads them
once, into the profiles.

Profiles: each identity of an image table, a cohort's or a trial set's,
aggregates its images' rows in sorted image-id order, so neither the
row nor the column order of the file changes a profile; continuous
means are ``np.mean`` of the present values.  The profiles form one
``ProfileTable``, a row per identity.
"""

from __future__ import annotations

import csv
import math
import operator
import struct
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

import numpy as np

from faceaudit.errors import DataError, SchemaError
from faceaudit.inputs import csv_columns, csv_header, csv_records, decimal, open_text
from faceaudit.schema import AttributeSchema, Variable

_MAGIC = b"FREB"
_VERSION = 1
WRITE_RECORDS = 1024  # embedding records written at once


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
    attribute rows has an all-NaN row.  Identities are sorted, so row
    order is identity order.
    """

    identities: tuple[str, ...]
    values: np.ndarray  # float64, shape (n_identities, n_vars), schema order

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
    identity_codes: np.ndarray  # int32, one per image
    identities: tuple[str, ...]  # sorted


@dataclass(frozen=True, eq=False)
class Cohort(ImageTable):
    """Immutable in-memory cohort; safe to share across readers.

    The image table holds every embedded image, each identity's images
    sorted; ``vectors[i]`` is the embedding of ``image_ids[i]``.
    """

    vectors: np.ndarray  # float32, shape (n_images, dim)

    def __len__(self) -> int:
        return len(self.image_ids)


# (image ids, identity ids, vectors) of an embedding file's records, in file order
Records = tuple[tuple[str, ...], tuple[str, ...], np.ndarray]


def write_embeddings_binary(path: str | Path, cohort: Cohort) -> None:
    """Write ``cohort`` in the binary format, ``WRITE_RECORDS`` records a write."""
    for text in chain(cohort.image_ids, cohort.identities):  # before the file is opened
        if len(text.encode("utf-8")) > 0xFFFF:
            raise DataError(f"id too long for format: {text[:32]!r}...")
    rows = cohort.vectors.astype("<f4", copy=False)
    identity_ids = map(cohort.identities.__getitem__, cohort.identity_codes.tolist())
    records = zip(cohort.image_ids, identity_ids, rows)
    with open(path, "wb") as fh:
        fh.write(_MAGIC + bytes([_VERSION]) + struct.pack("<II", *rows.shape))
        block = bytearray()
        for k, (image_id, identity_id, row) in enumerate(records, 1):
            for text in (image_id, identity_id):
                raw = text.encode("utf-8")
                block += struct.pack("<H", len(raw)) + raw
            block += row.tobytes()
            if k % WRITE_RECORDS == 0:
                fh.write(block)
                block.clear()
        fh.write(block)


def read_embeddings_binary(path: str | Path) -> Records:
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
    return tuple(ids[0]), tuple(ids[1]), vectors


def read_embeddings_text(path: str | Path) -> Records:
    ids: tuple[list[str], list[str]] = ([], [])
    components = array("d")
    dim = 0
    with open_text(path) as fh:
        for lineno, row in csv_records(fh, path):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise DataError(f"{path}:{lineno}: expected image_id, identity_id, values...")
            try:
                components.extend(map(decimal, row[2:]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad vector component: {exc}") from exc
            width = len(row) - 2
            dim = dim or width
            if width != dim:
                raise DataError(
                    f"{path}:{lineno}: dimension mismatch: {row[0]!r} has {width}, expected {dim}"
                )
            ids[0].append(row[0])
            ids[1].append(row[1])
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, named below
        vectors = np.frombuffer(components, dtype=np.float64).astype(np.float32)
    return tuple(ids[0]), tuple(ids[1]), vectors.reshape(len(ids[0]), dim)


def _parse_cell(var: Variable, raw: str) -> float:
    raw = raw.strip()
    if var.kind == "categorical" and raw in var.levels:
        return float(var.levels.index(raw))
    try:
        value = decimal(raw)
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
    # Without level names or empty cells, the lookup would give back every cell.
    texts = map(lookup.get, cells, cells) if len(lookup) > 1 or "" in cells else cells
    try:
        values = np.fromiter(map(float, texts), dtype=np.float64, count=len(cells))
    except ValueError:  # a cell that is no number
        return np.full(len(cells), np.nan), False
    # float() reads "1_0" as 10.0; level names may hold underscores.
    if "_" in "".join(cells) and any("_" in c and c not in lookup for c in cells):
        return values, False
    lo, hi = var.bounds()
    ok = np.isfinite(values) & (lo <= values) & (values <= hi)
    if not var.is_continuous:
        ok &= values == np.trunc(values)
    if ok.all():
        return values, True
    empty = np.fromiter(map(operator.not_, cells), dtype=bool, count=len(cells))
    return values, bool((ok | empty).all())


def _raise_first_fault(
    path: str | Path, lines: Sequence[int], columns: list, header: list[str],
    schema: AttributeSchema, ids: dict[str, None],
) -> NoReturn:
    """Raise the first fault of the attribute rows on file ``lines``, row
    by row: an image id that ``ids`` holds already, or a cell ``_parse_cell`` refuses."""
    for lineno, row in zip(lines, zip(*columns)):
        if row[0] in ids:
            raise DataError(f"{path}:{lineno}: duplicate image_id {row[0]!r}")
        ids[row[0]] = None
        for col, cell in zip(header[1:], row[1:]):
            if not cell.strip():
                continue
            try:
                _parse_cell(schema.variable(col), cell)
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: image {row[0]!r}: {exc}") from None
    raise AssertionError("no faulty row in the attribute block")


def read_attributes(path: str | Path, schema: AttributeSchema) -> AttributeTable:
    """Read an attribute file into a table, a block of columns at a time;
    each block's cells are parsed before the next block is read.

    A block with a fault is checked again row by row, so the fault
    reported is the first a row-by-row reader meets.
    """
    names = schema.names()
    with open_text(path) as fh:
        header = csv_header(fh, path, "attribute")
        if not header or header[0] != "image_id":
            raise DataError(f"{path}: first attribute column must be image_id")
        for i, col in enumerate(header[1:], start=1):
            if col not in names:
                raise SchemaError(f"{path}: unknown attribute column {col!r}")
            if col in header[1:i]:
                raise DataError(f"{path}: duplicate attribute column {col!r}")
        ids: dict[str, None] = {}  # image ids in file order: a dict finds a duplicate
        blocks = [np.empty((0, len(names)))]
        for lines, columns in csv_columns(fh, len(header), path):
            fresh = dict.fromkeys(columns[0])
            ok = len(fresh) == len(columns[0]) and ids.keys().isdisjoint(fresh)
            block = np.full((len(columns[0]), len(names)), np.nan)
            for col, cells in zip(header[1:], columns[1:]):
                block[:, names.index(col)], parsed = _parse_column(schema.variable(col), cells)
                ok &= parsed
            if not ok:
                _raise_first_fault(path, lines, columns, header, schema, ids)
            ids |= fresh
            blocks.append(block)
    return AttributeTable(image_ids=tuple(ids), values=np.concatenate(blocks))


def csv_cells(texts: Sequence[str]) -> list[str]:
    """Each text as ``csv.writer`` writes it as one cell of a row: quoted where
    it holds the delimiter, a quote, or a character of the line terminator,
    which is given as CR LF so that a lone carriage return is quoted too."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows((text, "") for text in texts)  # beside a second cell, "" stays empty
    # A cell written unquoted is the text itself: keep it rather than a copy.
    return [line[:-3] if line[0] == '"' else text for text, line in zip(texts, lines)]


# Cells of text a writer builds at once, 1,024 trial rows: a larger block
# of small strings can leave its memory behind once written.
WRITE_CELLS = 4096


def float_cells(column: np.ndarray) -> list[str]:
    """Each value as ``repr`` writes it; a NaN, a missing value, is an empty cell."""
    return [f"{value!r}" if value == value else "" for value in column.tolist()]


def _cells(var: Variable, column: np.ndarray) -> list[str]:
    """A block of a column's cells as the attribute file holds them."""
    if var.is_continuous:
        return float_cells(column)
    labels = csv_cells((*(var.levels if var.kind == "categorical" else ("0", "1")), ""))
    codes = np.where(np.isnan(column), len(labels) - 1, column).astype(np.intp)
    return list(map(labels.__getitem__, codes.tolist()))


def write_attributes(path: str | Path, table: AttributeTable, schema: AttributeSchema) -> None:
    """Write the table, ``WRITE_CELLS`` cells at a time; each image id is quoted once."""
    ids = csv_cells(table.image_ids)
    step = max(1, WRITE_CELLS // (1 + len(schema.variables)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["image_id", *schema.names()])
        for start in range(0, len(ids), step):
            block = table.values[start : start + step].T
            columns = [_cells(var, column) for var, column in zip(schema.variables, block)]
            rows = zip(ids[start : start + step], *columns)
            fh.write("".join([f"{','.join(row)}\n" for row in rows]))


def build_cohort(image_ids: Sequence[str], identity_ids: Sequence[str], vectors) -> Cohort:
    """Order embedding records into a cohort: image ``image_ids[i]`` of
    identity ``identity_ids[i]`` has the embedding ``vectors[i]``.  Image
    ids must be distinct, and each embedding a finite vector."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if not len(image_ids) == len(identity_ids) == len(vectors):
        raise DataError("embedding table columns differ in length")
    if not len(vectors):
        raise DataError("no embedding records")
    if vectors.ndim != 2 or vectors.shape[1] < 1:
        raise DataError(f"embedding for {image_ids[0]!r} must be a 1-d vector")
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=-1))
    if bad.size:
        raise DataError(f"embedding for {image_ids[bad[0]]!r} contains non-finite values")
    embedded: set[str] = set()
    for image_id in image_ids:
        if image_id in embedded:
            raise DataError(f"duplicate image_id {image_id!r} among embeddings")
        embedded.add(image_id)

    identities = tuple(sorted(set(identity_ids)))
    order = sorted(range(len(image_ids)), key=lambda i: (identity_ids[i], image_ids[i]))
    in_order = order == list(range(len(order)))  # as synth draws them: share the matrix
    return Cohort(
        image_ids=tuple(map(image_ids.__getitem__, order)),
        identity_codes=positions(identities, identity_ids)[order].astype(np.int32),
        identities=identities,
        vectors=vectors if in_order else vectors[order],
    )


def load_cohort(path: str | Path) -> Cohort:
    """Load an embedding file, in either format, into a cohort."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    read = read_embeddings_binary if head == _MAGIC else read_embeddings_text
    image_ids, identity_ids, vectors = read(path)
    if not image_ids:
        raise DataError(f"{path}: no embedding records")
    return build_cohort(image_ids, identity_ids, vectors)


def aggregate_table(
    table: AttributeTable,
    image_ids: Sequence[str],
    codes: np.ndarray,
    n_groups: int,
    schema: AttributeSchema,
) -> np.ndarray:
    """Collapse the table rows of ``image_ids`` into one row per group.

    ``codes[i]`` is the group of ``image_ids[i]`` and must not decrease,
    so each group's images are contiguous; they are aggregated in the
    order given.  Images without a table row are skipped.  Continuous
    variables take the ``np.mean`` of the present values, booleans the
    mode with ties resolving to 1, categoricals the mode with ties
    resolving to the lowest level index.  A group's value is NaN where
    it has no present value.
    """
    found = positions(table.image_ids, image_ids)
    have = found >= 0
    rows = found[have]
    codes = np.asarray(codes, dtype=np.intp)[have]
    out = np.full((n_groups, len(schema.variables)), np.nan)
    for j, var in enumerate(schema.variables):
        column = table.values[rows, j]  # one column at a time: no copy of the whole table
        present = ~np.isnan(column)
        column, group = column[present], codes[present]
        counts = np.bincount(group, minlength=n_groups)
        if var.is_continuous:
            # Groups with k values form a C-contiguous (m, k) block, whose
            # mean(axis=1) sums each row as np.mean sums one group.
            starts = np.cumsum(counts) - counts
            # The distinct sizes, ascending: np.unique would import numpy.ma.
            for size in np.flatnonzero(np.bincount(counts[counts > 0])).tolist():
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
    return out


def aggregate_profiles(
    images: ImageTable, table: AttributeTable, schema: AttributeSchema
) -> ProfileTable:
    """One profile row per identity of ``images``, a cohort or a trial
    set, from the rows of ``table``; missing values, images without a
    row and rows of other images are skipped."""
    values = aggregate_table(
        table, images.image_ids, images.identity_codes, len(images.identities), schema
    )
    return ProfileTable(images.identities, values)

"""Cohort ingestion: embeddings, per-image attributes, per-individual profiles.

File formats
------------
Embeddings, binary: magic ``FREB`` + version byte 0x01, then little-endian
u32 record count and u32 dimension, then per record a u16-length-prefixed
UTF-8 image_id, a u16-length-prefixed UTF-8 identity_id, and ``dim``
little-endian float32 values.

Embeddings, tabular: delimited text, one row per record:
``image_id, identity_id, v0, ..., v{dim-1}`` (no header).

Attributes: delimited text with a header row ``image_id`` followed by
schema variable names; an empty cell means the value is missing.
Categorical cells may hold either the level name or its index.
"""

from __future__ import annotations

import csv
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from faceaudit.errors import DataError, SchemaError
from faceaudit.schema import AttributeSchema, Variable

_MAGIC = b"FREB"
_VERSION = 1


@dataclass(frozen=True)
class EmbeddingRecord:
    """One image: identity label plus a fixed-length feature vector."""

    image_id: str
    identity_id: str
    vector: np.ndarray  # float32, shape (dim,)

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float32)
        object.__setattr__(self, "vector", v)
        if v.ndim != 1 or v.size < 1:
            raise DataError(f"embedding for {self.image_id!r} must be a 1-d vector")
        if not np.isfinite(v).all():
            raise DataError(f"embedding for {self.image_id!r} contains non-finite values")


@dataclass(frozen=True)
class ImageAttributes:
    """Per-image attribute values; absent keys are missing values."""

    image_id: str
    values: dict[str, float]


@dataclass(frozen=True)
class AttributeProfile:
    """Per-individual attribute vector aggregated over that identity's images.

    Continuous variables hold the arithmetic mean of present per-image
    values, boolean and categorical variables the mode (boolean ties
    resolve to 1, categorical ties to the lowest level index).  Variables
    with no present value are absent from ``values`` with coverage 0.
    """

    identity_id: str
    values: dict[str, float]
    coverage: dict[str, float]


@dataclass(frozen=True)
class Cohort:
    """Immutable in-memory cohort; safe to share across readers."""

    records: dict[str, EmbeddingRecord]  # by image_id
    images: dict[str, ImageAttributes]  # by image_id
    identities: dict[str, tuple[str, ...]]  # identity -> image_ids, sorted
    dim: int
    unattributed: tuple[str, ...] = field(default=())  # embeddings lacking attribute rows

    @property
    def n_images(self) -> int:
        return len(self.records)

    @property
    def n_identities(self) -> int:
        return len(self.identities)

    def vector(self, image_id: str) -> np.ndarray:
        return self.records[image_id].vector


def write_embeddings_binary(path: str | Path, records) -> None:
    records = list(records)
    if not records:
        raise DataError("refusing to write an empty embedding file")
    dim = records[0].vector.size
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes([_VERSION]))
        fh.write(struct.pack("<II", len(records), dim))
        for rec in records:
            if rec.vector.size != dim:
                raise DataError(
                    f"dimension mismatch: {rec.image_id!r} has {rec.vector.size}, expected {dim}"
                )
            for text in (rec.image_id, rec.identity_id):
                raw = text.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise DataError(f"id too long for format: {text[:32]!r}...")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
            fh.write(rec.vector.astype("<f4").tobytes())


def read_embeddings_binary(path: str | Path) -> list[EmbeddingRecord]:
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise DataError(f"{path}: bad magic bytes, not an embedding file")
    if data[4] != _VERSION:
        raise DataError(f"{path}: unsupported version {data[4]}")
    offset = 5
    try:
        count, dim = struct.unpack_from("<II", data, offset)
        offset += 8
        records = []
        for _ in range(count):
            (id_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            image_id = data[offset : offset + id_len].decode("utf-8")
            offset += id_len
            (id_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            identity_id = data[offset : offset + id_len].decode("utf-8")
            offset += id_len
            vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset).copy()
            offset += 4 * dim
            records.append(EmbeddingRecord(image_id, identity_id, vec))
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise DataError(f"{path}: truncated or corrupt embedding file: {exc}") from exc
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes after last record")
    return records


def read_embeddings_text(path: str | Path, delimiter: str = ",") -> list[EmbeddingRecord]:
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise DataError(f"{path}:{lineno}: expected image_id, identity_id, values...")
            try:
                vec = np.array([float(c) for c in row[2:]], dtype=np.float32)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad vector component: {exc}") from exc
            records.append(EmbeddingRecord(row[0], row[1], vec))
    return records


def load_embeddings(path: str | Path) -> list[EmbeddingRecord]:
    """Read embeddings from either the binary or the tabular format."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return read_embeddings_binary(path)
    return read_embeddings_text(path)


def _parse_cell(var: Variable, raw: str, schema: AttributeSchema) -> float:
    raw = raw.strip()
    if var.kind == "categorical" and raw in var.levels:
        return float(var.levels.index(raw))
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"variable {var.name!r}: cannot parse value {raw!r}") from None
    var.check_value(value)
    return value


def read_attributes(path: str | Path, schema: AttributeSchema) -> list[ImageAttributes]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty attribute file") from None
        if not header or header[0] != "image_id":
            raise DataError(f"{path}: first attribute column must be image_id")
        known = set(schema.names())
        for col in header[1:]:
            if col not in known:
                raise SchemaError(f"{path}: unknown attribute column {col!r}")
        rows = []
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            image_id = row[0]
            if image_id in seen:
                raise DataError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
            seen.add(image_id)
            values: dict[str, float] = {}
            for col, raw in zip(header[1:], row[1:]):
                if raw.strip() == "":
                    continue
                var = schema.variable(col)
                try:
                    values[col] = _parse_cell(var, raw, schema)
                except SchemaError as exc:
                    raise SchemaError(f"{path}:{lineno}: image {image_id!r}: {exc}") from None
            rows.append(ImageAttributes(image_id=image_id, values=values))
    return rows


def write_attributes(path: str | Path, rows, schema: AttributeSchema) -> None:
    names = schema.names()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id", *names])
        for row in rows:
            cells = [row.image_id]
            for name in names:
                if name not in row.values:
                    cells.append("")
                    continue
                var = schema.variable(name)
                value = row.values[name]
                if var.kind == "categorical":
                    cells.append(var.levels[int(value)])
                elif var.kind == "boolean":
                    cells.append(str(int(value)))
                else:
                    cells.append(repr(float(value)))
            writer.writerow(cells)


def build_cohort(records, attribute_rows=()) -> Cohort:
    """Assemble and validate a cohort from in-memory pieces.

    Every attribute row must reference a known embedding; embeddings
    without an attribute row are allowed and listed in ``unattributed``.
    """
    records = list(records)
    if not records:
        raise DataError("no embedding records")
    by_image: dict[str, EmbeddingRecord] = {}
    dim = records[0].vector.size
    for rec in records:
        if rec.vector.size != dim:
            raise DataError(
                f"dimension mismatch: {rec.image_id!r} has {rec.vector.size}, expected {dim}"
            )
        if rec.image_id in by_image:
            raise DataError(f"duplicate image_id {rec.image_id!r} among embeddings")
        by_image[rec.image_id] = rec

    images: dict[str, ImageAttributes] = {}
    for row in attribute_rows:
        if row.image_id not in by_image:
            raise DataError(f"attribute row for {row.image_id!r} has no matching embedding")
        if row.image_id in images:
            raise DataError(f"duplicate attribute row for {row.image_id!r}")
        images[row.image_id] = row

    identities: dict[str, list[str]] = {}
    for rec in by_image.values():
        identities.setdefault(rec.identity_id, []).append(rec.image_id)
    unattributed = tuple(sorted(set(by_image) - set(images)))
    return Cohort(
        records=by_image,
        images=images,
        identities={k: tuple(sorted(v)) for k, v in sorted(identities.items())},
        dim=dim,
        unattributed=unattributed,
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
    records = load_embeddings(embedding_path)
    if not records:
        raise DataError(f"{embedding_path}: no embedding records")
    rows = [] if attribute_path is None else read_attributes(attribute_path, schema)
    return build_cohort(records, rows)


def aggregate_rows(
    rows: list[dict[str, float]], schema: AttributeSchema
) -> tuple[dict[str, float], dict[str, float]]:
    """Collapse per-image value dicts into one (values, coverage) pair.

    Continuous variables take the mean of present values, booleans the
    mode with ties resolving to 1, categoricals the mode with ties
    resolving to the lowest level index.
    """
    if not rows:
        raise DataError("cannot aggregate zero attribute rows")
    values: dict[str, float] = {}
    coverage: dict[str, float] = {}
    for var in schema.variables:
        present = [row[var.name] for row in rows if var.name in row]
        coverage[var.name] = len(present) / len(rows)
        if not present:
            continue
        if var.is_continuous:
            # Rounding can put the mean of near-equal values just outside
            # them, so it is clamped to the values' range.
            mean = float(np.mean(present))
            values[var.name] = min(max(mean, min(present)), max(present))
        elif var.kind == "boolean":
            ones = sum(1 for v in present if v == 1.0)
            # exact tie resolves to 1
            values[var.name] = 1.0 if 2 * ones >= len(present) else 0.0
        else:
            counts = Counter(present)
            best = max(counts.values())
            values[var.name] = float(min(v for v, c in counts.items() if c == best))
    return values, coverage


def aggregate_profiles(cohort: Cohort, schema: AttributeSchema) -> list[AttributeProfile]:
    """One profile per identity; missing per-image values are skipped."""
    profiles = []
    for identity_id, image_ids in cohort.identities.items():
        rows = [cohort.images[i].values for i in image_ids if i in cohort.images]
        if rows:
            values, coverage = aggregate_rows(rows, schema)
            scale = len(rows) / len(image_ids)
            coverage = {k: v * scale for k, v in coverage.items()}
        else:
            values, coverage = {}, {name: 0.0 for name in schema.names()}
        profiles.append(AttributeProfile(identity_id=identity_id, values=values, coverage=coverage))
    return profiles

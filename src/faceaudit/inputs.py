"""Reading input files: UTF-8 text, CSV records and columns, and JSON
documents typed by the annotations of the dataclass they build
(``from_json``; ``to_json`` writes one back).

Every fault raises a ``DataError`` that names the file, its line, or the
key path.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import re
import types
import typing
from array import array
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain, compress, count, islice, repeat
from pathlib import Path

from faceaudit.errors import DataError


@contextmanager
def open_text(path: str | Path) -> Iterator[typing.TextIO]:
    """``path`` opened as UTF-8 text for the csv module, less a byte-order
    mark that starts it.  A file that cannot be opened, or a byte that is
    not UTF-8 met anywhere in the ``with`` block, raises a DataError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def csv_records(lines: Iterable[str], path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(file line, cells) of each record ``csv.reader`` reads from
    ``lines``, a blank one as ``[]``.  A line is a record: one whose
    quoted cell spans line breaks counts once.  A record the csv module
    cannot read, such as one with a cell longer than
    ``csv.field_size_limit()``, raises a DataError naming its line."""
    reader = csv.reader(lines)
    for lineno in count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        yield lineno, row


def decimal(cell: str) -> float:
    """``float(cell)``, but a cell holding ``_`` is no number: float() reads "1_0" as 10."""
    if "_" in cell:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


# A character outside XML 1.0's Char production, which no SVG label can hold:
# the complement of [\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff],
# which compiles ten times slower.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def check_xml_text(text: str, where: str) -> None:
    """Raise a DataError naming ``where`` when ``text`` holds a character
    that XML 1.0 cannot carry, such as a control character."""
    if bad := _NOT_XML.search(text):
        raise DataError(f"{where} holds {bad.group()!r}, which XML 1.0 cannot carry")


def csv_header(fh: typing.TextIO, path: str | Path, what: str) -> list[str]:
    """The first record of ``fh``, read up to its end and no further."""
    for _, header in csv_records(fh, path):
        return header
    raise DataError(f"{path}: empty {what} file")


_BLOCK_CHARS = 1 << 16  # text read per block
_BLOCK_ROWS = 1 << 10  # records per block once csv.reader reads: about a text block of trial rows


def csv_columns(fh: typing.TextIO, width: int, path: str | Path) -> Iterator[tuple]:
    """The records after the header of ``fh``, a block at a time: the
    file line of each record (a ``range``; an ``array("i")`` if the block
    holds a blank record, which is skipped) and its ``width`` columns.

    A record of another number of cells, or one the csv module cannot
    read, raises a DataError naming its line once the records before it
    are yielded, so a caller that checks each block as it arrives names
    the first faulty record of the file.

    Text free of quotes, carriage returns and NUL holds one record per
    line and one cell per comma, as ``csv.reader`` reads it, so its
    blocks are split with ``str.split``.  From the first block that
    holds one of them, or a line longer than ``csv.field_size_limit()``,
    ``csv.reader`` reads the rest of the file; it refuses a longer cell.

    Blocks are bounded on both paths, so the cells of one block at most
    are alive at once: ``_BLOCK_CHARS`` characters of text, completed to
    the end of their last line, on the first; ``_BLOCK_ROWS`` records on
    the second.
    """
    limit = csv.field_size_limit()
    first_line, text = 2, ""
    while chunk := fh.read(_BLOCK_CHARS):
        text += chunk
        lines = text.split("\n")
        if '"' in text or "\r" in text or "\0" in text or max(map(len, lines)) > limit:
            # The text's last line is completed from the file, so every
            # line is split where iterating the file would split it.
            reader = csv.reader(chain(io.StringIO(text + fh.readline(), newline=""), fh))
            while True:
                rows: list[list[str]] = []
                try:  # extend keeps the records read before a csv.Error
                    rows.extend(islice(reader, _BLOCK_ROWS))
                except csv.Error as exc:
                    yield from _row_block(rows, first_line, width, path)
                    raise DataError(f"{path}:{first_line + len(rows)}: {exc}") from None
                if not rows:
                    return
                yield from _row_block(rows, first_line, width, path)
                first_line += len(rows)
        text = lines.pop()  # the start of a line the next block ends
        yield from _split_block(lines, first_line, width, path)
        first_line += len(lines)
    yield from _split_block([text], first_line, width, path)


def _split_block(lines: list[str], first_line: int, width: int, path: str | Path) -> Iterator:
    """``csv_columns``'s block of plain text lines, if one holds a record."""
    if "" in lines or set(map(str.count, lines, repeat(","))) - {width - 1}:
        yield from _row_block([line and line.split(",") for line in lines], first_line, width, path)
    elif lines:
        cells = ",".join(lines).split(",")
        yield range(first_line, first_line + len(lines)), [cells[k::width] for k in range(width)]


def _row_block(rows: list, first_line: int, width: int, path: str | Path) -> Iterator:
    """``csv_columns``'s block of csv records, a blank one empty, if one holds a record."""
    kept = list(filter(None, rows))
    if any(len(row) != width for row in kept):
        end = next(i for i, row in enumerate(rows) if row and len(row) != width)
        yield from _row_block(rows[:end], first_line, width, path)
        raise DataError(f"{path}:{first_line + end}: expected {width} cells, got {len(rows[end])}")
    lines = range(first_line, first_line + len(rows))
    if len(kept) < len(rows):
        lines = array("i", compress(lines, rows))
    if kept:
        yield lines, list(zip(*kept))


def read_json(path: str | Path):
    """The JSON value of ``path``; a 300+ digit integer, which int() may refuse, is a float."""
    with open_text(path) as fh:
        try:
            return json.load(fh, parse_int=lambda s: int(s) if len(s) < 300 else float(s))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{path}: malformed JSON: {exc}") from exc


# annotation -> (accepted JSON value types, what a message asks for)
_JSON_SCALARS = {
    str: (str, "a string"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
}


def _expect(ok: bool, path: str, expected: str, value) -> None:
    if not ok:
        raise DataError(f"{path} must be {expected}, got {json.dumps(value)}")


def _typed(hint, value, path: str):
    """``value`` checked against the annotation ``hint`` and converted to it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else _typed(inner, value, path)
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, path)
    if origin is tuple:  # tuple[X, ...]
        _expect(isinstance(value, list), path, "a list", value)
        return tuple(_typed(args[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    if origin is dict:  # tuple keys are written "level,level"
        _expect(isinstance(value, dict), path, "a JSON object", value)
        key_hint, value_hint = args
        split = key_hint is not str
        return {
            tuple(key.split(",")) if split else key: _typed(value_hint, item, f"{path}[{key!r}]")
            for key, item in value.items()
        }
    accepted, expected = _JSON_SCALARS[hint]
    ok = isinstance(value, accepted) and isinstance(value, bool) == (hint is bool)
    _expect(ok, path, expected, value)
    if hint is float:  # json reads NaN, Infinity and -Infinity as numbers
        _expect(math.isfinite(value), path, "a finite number", value)
    return hint(value)


def from_json(cls, data, where: str, **defaults):
    """Build the dataclass ``cls`` from a JSON object; the field
    annotations are the schema.

    ``defaults`` replace the dataclass defaults of absent keys.  Every
    error names the failing key path under ``where``.  The classes'
    own validation messages begin with the field name, so they are
    prefixed with ``where`` too.
    """
    _expect(isinstance(data, dict), where, "a JSON object", data)
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise DataError(f"{where}.{unknown[0]} is not a known key")
    values = defaults  # a fresh dict on every call
    for f in fields:
        if f.name in data:
            values[f.name] = _typed(hints[f.name], data[f.name], f"{where}.{f.name}")
        elif f.name not in values and f.default is f.default_factory is dataclasses.MISSING:
            raise DataError(f"{where}.{f.name} is required")
    try:
        return cls(**values)
    except DataError as exc:
        raise DataError(f"{where}.{exc}") from None


def to_json(value):
    """The JSON value ``from_json`` reads back as ``value``: a dataclass
    becomes an object of its fields that differ from their defaults,
    tuples become lists, and tuple keys are joined with ``,``."""
    if dataclasses.is_dataclass(value):
        fields = [(f.name, getattr(value, f.name), _default(f)) for f in dataclasses.fields(value)]
        return {name: to_json(item) for name, item, default in fields if item != default}
    if isinstance(value, tuple):
        return [to_json(item) for item in value]
    if isinstance(value, dict):
        return {",".join(k) if isinstance(k, tuple) else k: to_json(v) for k, v in value.items()}
    return value


def _default(f: dataclasses.Field):
    """``f``'s default; MISSING, which no value equals, for a required field."""
    return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()

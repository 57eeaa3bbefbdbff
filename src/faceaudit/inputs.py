"""Reading input files: UTF-8 text, and JSON documents typed by the
annotations of the dataclass they build (``from_json``; ``to_json``
writes one back).

Every fault raises a ``DataError`` that names the file or the key path.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from faceaudit.errors import DataError


@contextmanager
def open_text(path: str | Path) -> Iterator[typing.TextIO]:
    """``path`` opened as UTF-8 text for the csv module.  A file that
    cannot be opened, or a byte that is not UTF-8 met anywhere in the
    ``with`` block, raises a DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def read_json(path: str | Path):
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
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

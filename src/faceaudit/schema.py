"""Attribute schema: variable declarations, value validation, JSON I/O.

A schema is an ordered list of variables, each belonging to one family
(protected, facial_hair, makeup, accessory, orientation, occlusion,
distortion, emotion) and one of four kinds:

  continuous_unit        real in [0, 1]
  continuous_range       real in [lo, hi]
  boolean                0 or 1
  categorical            level index into a declared level list

``default_schema()`` returns the 20-variable schema used throughout the
toolkit: gender/ethnicity/age plus 17 non-protected image characteristics.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from faceaudit.errors import SchemaError
from faceaudit.inputs import check_xml_text, from_json, read_json, to_json

FAMILIES = (
    "protected",
    "facial_hair",
    "makeup",
    "accessory",
    "orientation",
    "occlusion",
    "distortion",
    "emotion",
)

KINDS = ("continuous_unit", "continuous_range", "boolean", "categorical")


@dataclass(frozen=True)
class Variable:
    name: str
    family: str
    kind: str
    lo: float | None = None
    hi: float | None = None
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SchemaError(f"family must be one of {', '.join(FAMILIES)}, got {self.family!r}")
        if self.kind not in KINDS:
            raise SchemaError(f"kind must be one of {', '.join(KINDS)}, got {self.kind!r}")
        if self.kind == "continuous_range":
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise SchemaError(f"lo and hi must bound a range, got [{self.lo}, {self.hi}]")
        if self.kind == "categorical" and len(self.levels) < 2:
            raise SchemaError(f"levels must hold at least 2 names, got {list(self.levels)}")

    @property
    def is_continuous(self) -> bool:
        return self.kind in ("continuous_unit", "continuous_range")

    def discrete_levels(self) -> tuple[str, ...]:
        """Level names usable as group labels; discrete kinds only."""
        if self.kind == "categorical":
            return self.levels
        if self.kind == "boolean":
            return ("0", "1")
        raise SchemaError(f"variable {self.name!r} has no discrete levels")

    def bounds(self) -> tuple[float, float]:
        """Numeric range of valid values for this variable."""
        if self.kind in ("continuous_unit", "boolean"):
            return 0.0, 1.0
        if self.kind == "continuous_range":
            return float(self.lo), float(self.hi)
        return 0.0, float(len(self.levels) - 1)

    def check_value(self, value: float) -> None:
        """Raise SchemaError unless `value` is valid for this variable."""
        if not math.isfinite(value):
            raise SchemaError(f"variable {self.name!r}: non-finite value {value!r}")
        lo, hi = self.bounds()
        if self.kind in ("boolean", "categorical"):
            if value != int(value) or not lo <= value <= hi:
                raise SchemaError(
                    f"variable {self.name!r}: {value!r} is not a valid "
                    f"{'flag' if self.kind == 'boolean' else 'level index'}"
                )
        elif not lo <= value <= hi:
            raise SchemaError(
                f"variable {self.name!r}: {value!r} outside [{lo}, {hi}]"
            )


@dataclass(frozen=True)
class AttributeSchema:
    variables: tuple[Variable, ...]
    protected: tuple[str, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaError("variables must have unique names")
        for p in self.protected:
            if p not in names:
                raise SchemaError(f"protected: {p!r} is not a schema variable")

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise SchemaError(f"unknown attribute {name!r}")

    def level_index(self, name: str, level: str) -> int:
        var = self.variable(name)
        if var.kind != "categorical":
            raise SchemaError(f"variable {name!r} is not categorical")
        try:
            return var.levels.index(level)
        except ValueError:
            raise SchemaError(f"variable {name!r} has no level {level!r}") from None

    def check_grouping(
        self,
        group_by: Sequence[str],
        reference_levels: Mapping[str, str] | None = None,
        group_key: str = "group_by",
        level_key: str = "reference_levels",
    ) -> None:
        """Raise unless each ``group_by`` name is a discrete variable and
        each ``reference_levels`` entry names a level of a categorical one.

        A message begins with the failing key: ``group_key``, or
        ``level_key`` and the variable name.
        """
        try:
            for name in group_by:
                self.variable(name).discrete_levels()
        except SchemaError as exc:
            raise SchemaError(f"{group_key}: {exc}") from None
        for name, level in (reference_levels or {}).items():
            try:
                self.level_index(name, level)
            except SchemaError as exc:
                raise SchemaError(f"{level_key}[{name!r}]: {exc}") from None


def default_schema() -> AttributeSchema:
    """The 20-variable schema (families sized 3/3/2/2/3/4/2/1)."""
    unit = "continuous_unit"
    variables = (
        Variable("gender", "protected", "categorical", levels=("man", "woman")),
        Variable("ethnicity", "protected", "categorical", levels=("asian", "black", "caucasian")),
        Variable("age", "protected", "continuous_range", lo=1.0, hi=100.0),
        Variable("mustache", "facial_hair", unit),
        Variable("beard", "facial_hair", unit),
        Variable("sideburns", "facial_hair", unit),
        Variable("eye_makeup", "makeup", unit),
        Variable("lip_makeup", "makeup", unit),
        Variable("head_wear", "accessory", unit),
        Variable("glasses", "accessory", unit),
        Variable("roll", "orientation", "continuous_range", lo=-180.0, hi=180.0),
        Variable("yaw", "orientation", "continuous_range", lo=-180.0, hi=180.0),
        Variable("pitch", "orientation", "continuous_range", lo=-180.0, hi=180.0),
        Variable("forehead_occluded", "occlusion", "boolean"),
        Variable("eyes_occluded", "occlusion", "boolean"),
        Variable("mouth_occluded", "occlusion", "boolean"),
        Variable("exposure", "occlusion", unit),
        Variable("blur", "distortion", unit),
        Variable("noise", "distortion", unit),
        Variable("smile", "emotion", unit),
    )
    return AttributeSchema(variables=variables, protected=("gender", "ethnicity", "age"))


def save_schema(schema: AttributeSchema, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json(schema), indent=2) + "\n", encoding="utf-8")


def load_schema(path: str | Path) -> AttributeSchema:
    """Read a schema file; a bad document raises a DataError naming the
    key path.  Names and levels label the figures, so a character XML
    cannot carry raises one naming the file too."""
    schema = from_json(AttributeSchema, read_json(path), "schema")
    for i, var in enumerate(schema.variables):
        check_xml_text(var.name, f"{path}: schema.variables[{i}].name")
        for k, level in enumerate(var.levels):
            check_xml_text(level, f"{path}: schema.variables[{i}].levels[{k}]")
    return schema

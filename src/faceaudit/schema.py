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
from dataclasses import dataclass
from pathlib import Path

from faceaudit.errors import SchemaError

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
            raise SchemaError(f"unknown family {self.family!r} for variable {self.name!r}")
        if self.kind not in KINDS:
            raise SchemaError(f"unknown kind {self.kind!r} for variable {self.name!r}")
        if self.kind == "continuous_range":
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise SchemaError(f"variable {self.name!r} needs a valid [lo, hi] range")
        if self.kind == "categorical" and len(self.levels) < 2:
            raise SchemaError(f"categorical variable {self.name!r} needs >= 2 levels")

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
        if self.kind == "continuous_unit":
            return 0.0, 1.0
        if self.kind == "continuous_range":
            return float(self.lo), float(self.hi)
        if self.kind == "boolean":
            return 0.0, 1.0
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
    protected_names: tuple[str, ...]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SchemaError("variable names must be unique")
        for p in self.protected_names:
            if p not in names:
                raise SchemaError(f"protected name {p!r} not among schema variables")

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
    return AttributeSchema(variables=variables, protected_names=("gender", "ethnicity", "age"))


def schema_to_dict(schema: AttributeSchema) -> dict:
    out = {"variables": [], "protected": list(schema.protected_names)}
    for v in schema.variables:
        entry: dict = {"name": v.name, "family": v.family, "kind": v.kind}
        if v.kind == "continuous_range":
            entry["lo"] = v.lo
            entry["hi"] = v.hi
        if v.kind == "categorical":
            entry["levels"] = list(v.levels)
        out["variables"].append(entry)
    return out


def schema_from_dict(data: dict) -> AttributeSchema:
    try:
        variables = tuple(
            Variable(
                name=entry["name"],
                family=entry["family"],
                kind=entry["kind"],
                lo=entry.get("lo"),
                hi=entry.get("hi"),
                levels=tuple(entry.get("levels", ())),
            )
            for entry in data["variables"]
        )
        protected = tuple(data["protected"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema document: {exc}") from exc
    return AttributeSchema(variables=variables, protected_names=protected)


def save_schema(schema: AttributeSchema, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schema_to_dict(schema), indent=2) + "\n", encoding="utf-8")


def load_schema(path: str | Path) -> AttributeSchema:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file {path} is not valid JSON: {exc}") from exc
    return schema_from_dict(data)

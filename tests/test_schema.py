"""Tests for the attribute schema: defaults, validation, JSON round-trip."""

import json
from collections import Counter

import pytest

from conftest import schema_document
from faceaudit.errors import DataError, SchemaError
from faceaudit.inputs import from_json
from faceaudit.schema import (
    AttributeSchema,
    Variable,
    default_schema,
    load_schema,
    save_schema,
)


class TestDefaultSchema:
    def test_twenty_variables(self):
        assert len(default_schema().variables) == 20

    def test_family_sizes(self):
        sizes = Counter(v.family for v in default_schema().variables)
        assert sizes == {
            "protected": 3,
            "facial_hair": 3,
            "makeup": 2,
            "accessory": 2,
            "orientation": 3,
            "occlusion": 4,
            "distortion": 2,
            "emotion": 1,
        }

    def test_protected_names(self):
        assert default_schema().protected == ("gender", "ethnicity", "age")

    def test_names_are_unique_and_ordered(self):
        names = default_schema().names()
        assert len(set(names)) == 20
        assert names[0] == "gender"
        assert names[-1] == "smile"

    def test_categorical_levels(self):
        schema = default_schema()
        assert schema.variable("gender").levels == ("man", "woman")
        assert schema.variable("ethnicity").levels == ("asian", "black", "caucasian")

    def test_variable_lookup_missing(self):
        with pytest.raises(SchemaError, match="not_a_variable"):
            default_schema().variable("not_a_variable")


class TestVariableValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(SchemaError):
            Variable("x", "astrology", "boolean")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            Variable("x", "emotion", "complex")

    def test_range_needs_ordered_bounds(self):
        with pytest.raises(SchemaError):
            Variable("x", "emotion", "continuous_range", lo=2.0, hi=1.0)
        with pytest.raises(SchemaError):
            Variable("x", "emotion", "continuous_range", lo=1.0, hi=1.0)
        with pytest.raises(SchemaError):
            Variable("x", "emotion", "continuous_range")

    def test_categorical_needs_two_levels(self):
        with pytest.raises(SchemaError):
            Variable("x", "emotion", "categorical", levels=("only",))

    def test_duplicate_names_rejected(self):
        v = Variable("x", "emotion", "boolean")
        with pytest.raises(SchemaError):
            AttributeSchema(variables=(v, v), protected=())

    def test_protected_must_exist(self):
        v = Variable("x", "emotion", "boolean")
        with pytest.raises(SchemaError):
            AttributeSchema(variables=(v,), protected=("y",))


class TestBoundsAndValues:
    def test_unit_bounds(self):
        assert default_schema().variable("blur").bounds() == (0.0, 1.0)

    def test_range_bounds(self):
        assert default_schema().variable("yaw").bounds() == (-180.0, 180.0)

    def test_boolean_bounds(self):
        assert default_schema().variable("eyes_occluded").bounds() == (0.0, 1.0)

    def test_categorical_bounds(self):
        assert default_schema().variable("ethnicity").bounds() == (0.0, 2.0)

    def test_check_value_accepts_valid(self):
        schema = default_schema()
        schema.variable("blur").check_value(0.5)
        schema.variable("yaw").check_value(-180.0)
        schema.variable("eyes_occluded").check_value(1.0)
        schema.variable("ethnicity").check_value(2.0)

    def test_check_value_rejects_out_of_range(self):
        with pytest.raises(SchemaError):
            default_schema().variable("blur").check_value(1.5)
        with pytest.raises(SchemaError):
            default_schema().variable("age").check_value(0.0)

    def test_check_value_rejects_fractional_flag(self):
        with pytest.raises(SchemaError):
            default_schema().variable("eyes_occluded").check_value(0.5)

    def test_check_value_rejects_bad_level_index(self):
        with pytest.raises(SchemaError):
            default_schema().variable("gender").check_value(2.0)

    def test_check_value_rejects_non_finite(self):
        with pytest.raises(SchemaError):
            default_schema().variable("blur").check_value(float("nan"))


class TestDiscreteLevels:
    def test_categorical(self):
        var = default_schema().variable("ethnicity")
        assert var.discrete_levels() == ("asian", "black", "caucasian")

    def test_boolean(self):
        var = default_schema().variable("forehead_occluded")
        assert var.discrete_levels() == ("0", "1")

    def test_continuous_has_none(self):
        with pytest.raises(SchemaError):
            default_schema().variable("age").discrete_levels()


class TestLevelIndex:
    def test_lookup(self):
        schema = default_schema()
        assert schema.level_index("ethnicity", "black") == 1

    def test_unknown_level(self):
        with pytest.raises(SchemaError):
            default_schema().level_index("ethnicity", "martian")

    def test_non_categorical(self):
        with pytest.raises(SchemaError):
            default_schema().level_index("age", "old")


class TestJsonRoundTrip:
    def test_file_round_trip(self, tmp_path):
        schema = default_schema()
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        assert load_schema(path) == schema

    def test_malformed_document(self):
        with pytest.raises(DataError, match=r"^schema\.variables\[0\]\.name is required$"):
            from_json(
                AttributeSchema, {"variables": [{"family": "emotion"}], "protected": []}, "schema"
            )

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match="broken.json: malformed JSON"):
            load_schema(path)


_AGE = {"family": "protected", "kind": "continuous_range", "levels": None, "hi": 9.0}
_BAD_DOCUMENTS = [  # (id, document, the start of its message)
    ("levels-string", schema_document(levels="mw"), 'variables[0].levels must be a list, got "mw"'),
    ("levels-ints", schema_document(levels=[1, 2]), "variables[0].levels[0] must be a string"),
    ("misspelled-key", schema_document(level=["a", "b"]), "variables[0].level is not a known key"),
    ("unknown-top-key", schema_document({"version": 2}), "version is not a known key"),
    ("bound-string", schema_document(**_AGE, lo="1"), 'variables[0].lo must be a number, got "1"'),
    ("protected-string", schema_document({"protected": "g"}), 'protected must be a list, got "g"'),
    ("family", schema_document(family="nope"), "variables[0].family must be one of protected, "),
    ("kind", schema_document(kind="complex"), "variables[0].kind must be one of continuous_unit, "),
    ("one-level", schema_document(levels=["m"]), "variables[0].levels must hold at least 2 names"),
    ("no-lower-bound", schema_document(**_AGE), "variables[0].lo and hi must bound a range, got"),
    ("protected-unknown", schema_document({"protected": ["x"]}), "protected: 'x' is not a schema"),
]


class TestLoadSchema:
    """Schema files load with the typed loader: a bad key fails and names its path."""

    @pytest.mark.parametrize(
        "document, message", [pytest.param(*case[1:], id=case[0]) for case in _BAD_DOCUMENTS]
    )
    def test_bad_document_names_the_key(self, tmp_path, document, message):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_schema(path)
        assert str(exc.value).startswith(f"schema.{message}")

"""Tests for the attribute schema: defaults, validation, JSON round-trip."""

from collections import Counter

import pytest

from faceaudit.errors import SchemaError
from faceaudit.schema import (
    AttributeSchema,
    Variable,
    default_schema,
    load_schema,
    save_schema,
    schema_from_dict,
    schema_to_dict,
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
        assert default_schema().protected_names == ("gender", "ethnicity", "age")

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
            AttributeSchema(variables=(v, v), protected_names=())

    def test_protected_must_exist(self):
        v = Variable("x", "emotion", "boolean")
        with pytest.raises(SchemaError):
            AttributeSchema(variables=(v,), protected_names=("y",))


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
    def test_dict_round_trip(self):
        schema = default_schema()
        assert schema_from_dict(schema_to_dict(schema)) == schema

    def test_file_round_trip(self, tmp_path):
        schema = default_schema()
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        assert load_schema(path) == schema

    def test_malformed_document(self):
        with pytest.raises(SchemaError):
            schema_from_dict({"variables": [{"family": "emotion"}], "protected": []})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_schema(path)

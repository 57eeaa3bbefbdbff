"""Tests for ``to_json``, the inverse of the typed config loader, and the XML text check."""

import json
import re

import pytest

from faceaudit.inputs import _NOT_XML, from_json, to_json
from faceaudit.pipeline import AuditOptions
from faceaudit.schema import AttributeSchema, Variable, default_schema
from faceaudit.synth import AttributeEffect, SynthConfig
from faceaudit.trials import TrialPolicy

_EVERY_SYNTH_KEY = SynthConfig(
    identities_per_group={("man", "asian"): 7, ("woman", "caucasian"): 5},
    group_attributes=("gender", "ethnicity"),
    images_per_identity=3,
    dim=24,
    base_margin=0.25,
    noise_scale=1.0,
    group_margin_shift={("man", "asian"): -0.1},
    group_noise_shift={("woman", "caucasian"): 0.2},
    attribute_effects=(AttributeEffect("blur", "far", 0.25), AttributeEffect("age", "frr", 1.0)),
    seed=11,
)
_CUSTOM_SCHEMA = AttributeSchema(
    variables=(
        Variable("site", "protected", "categorical", levels=("north", "south", "east")),
        Variable("masked", "occlusion", "boolean"),
        Variable("tilt", "orientation", "continuous_range", lo=-30.0, hi=45.5),
        Variable("blur", "distortion", "continuous_unit"),
    ),
    protected=("site",),
)
_VALUES = {
    "synth-every-key": _EVERY_SYNTH_KEY,
    "synth-defaults": SynthConfig(identities_per_group={("man", "asian"): 3}),
    "trials-keep-all": TrialPolicy(positives_per_identity=None),
    "audit": AuditOptions(
        policies=("eer", "far@0.01"),
        group_by=("ethnicity",),
        explain=True,
        standardize=True,
        reference_levels={"ethnicity": "black"},
    ),
    "default-schema": default_schema(),
    "custom-schema": _CUSTOM_SCHEMA,
}


class TestToJson:
    @pytest.mark.parametrize("value", list(_VALUES.values()), ids=list(_VALUES))
    def test_inverse_of_from_json(self, value):
        document = json.loads(json.dumps(to_json(value)))  # plain JSON types only
        assert from_json(type(value), document, "x") == value

    def test_fields_at_their_defaults_are_left_out(self):
        assert to_json(TrialPolicy()) == {}
        assert to_json(TrialPolicy(positives_per_identity=None)) == {"positives_per_identity": None}
        assert to_json(SynthConfig(identities_per_group={("man", "asian"): 3})) == {
            "identities_per_group": {"man,asian": 3}
        }

    def test_schema_variables_keep_their_kind_keys(self):
        # schema.json lists lo/hi only for ranges and levels only for categoricals
        variables = to_json(default_schema())["variables"]
        assert variables[0] == {
            "name": "gender", "family": "protected", "kind": "categorical",
            "levels": ["man", "woman"],
        }
        assert variables[2] == {
            "name": "age", "family": "protected", "kind": "continuous_range",
            "lo": 1.0, "hi": 100.0,
        }
        assert variables[3] == {"name": "mustache", "family": "facial_hair", "kind": "continuous_unit"}


def test_not_xml_is_the_complement_of_xml_chars():
    # the class lists the excluded characters; XML 1.0's Char production
    # lists the allowed ones, and the two must split Unicode alike
    chars = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
    every = "".join(map(chr, range(0x110000)))
    found = [match.start() for match in _NOT_XML.finditer(every)]
    assert found == [match.start() for match in chars.finditer(every)]
    assert len(found) == 2079  # 29 controls, 2,048 surrogates, U+FFFE and U+FFFF

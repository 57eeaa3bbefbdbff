"""Tests for synthetic cohort generation and its planted bias structure."""

import json

import numpy as np
import pytest

from faceaudit.calibration import calibrate
from faceaudit.cohort import aggregate_profiles, build_cohort, load_cohort
from faceaudit.errors import DataError, SchemaError
from faceaudit.schema import default_schema, load_schema
from faceaudit.synth import (
    AttributeEffect,
    SynthConfig,
    config_from_dict,
    config_to_dict,
    generate,
    simpson_config,
    write_synth,
)
from faceaudit.trials import TrialPolicy, generate_trials, score_trials


def _two_cell_config(n=10, seed=0, **overrides):
    base = dict(
        identities_per_group={("man", "asian"): n, ("woman", "caucasian"): n},
        dim=24,
        seed=seed,
    )
    base.update(overrides)
    return SynthConfig(**base)


def _mean_rates(config, policy="eer", seed=0):
    """Pooled far/frr of a generated cohort at the calibrated threshold."""
    result = generate(config)
    cohort = build_cohort(result.records, result.attributes)
    trials = generate_trials(
        cohort, TrialPolicy(negatives_per_identity=20), seed=seed
    )
    scores = score_trials(cohort, trials)
    genuine = scores[trials.genuine]
    impostor = scores[~trials.genuine]
    return calibrate(genuine, impostor, policy)


class TestConfigValidation:
    def test_empty_cells_rejected(self):
        with pytest.raises(DataError):
            SynthConfig(identities_per_group={})

    def test_single_image_rejected(self):
        with pytest.raises(DataError):
            _two_cell_config(images_per_identity=1)

    def test_tiny_dim_rejected(self):
        with pytest.raises(DataError):
            _two_cell_config(dim=1)

    def test_margin_bounds(self):
        with pytest.raises(DataError):
            _two_cell_config(base_margin=0.0)
        with pytest.raises(DataError):
            _two_cell_config(base_margin=1.0)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(DataError):
            _two_cell_config(noise_scale=0.0)

    def test_cell_arity_checked(self):
        with pytest.raises(DataError):
            SynthConfig(identities_per_group={("man",): 5})

    def test_zero_count_rejected(self):
        with pytest.raises(DataError):
            SynthConfig(identities_per_group={("man", "asian"): 0})

    def test_unknown_level_rejected(self):
        config = SynthConfig(identities_per_group={("man", "martian"): 5})
        with pytest.raises(SchemaError):
            config.validate_schema(default_schema())

    def test_continuous_group_attribute_rejected(self):
        config = SynthConfig(
            identities_per_group={("50",): 5}, group_attributes=("age",)
        )
        with pytest.raises(SchemaError):
            config.validate_schema(default_schema())

    def test_categorical_effect_rejected(self):
        config = _two_cell_config(
            attribute_effects=(AttributeEffect("ethnicity", "far", 0.1),)
        )
        with pytest.raises(SchemaError):
            config.validate_schema(default_schema())

    def test_effect_on_group_attribute_rejected(self):
        config = SynthConfig(
            identities_per_group={("1",): 5},
            group_attributes=("eyes_occluded",),
            attribute_effects=(AttributeEffect("eyes_occluded", "frr", 0.1),),
        )
        with pytest.raises(SchemaError):
            config.validate_schema(default_schema())

    def test_bad_effect_target_rejected(self):
        with pytest.raises(DataError):
            AttributeEffect("blur", "accuracy", 0.1)


class TestGenerate:
    def test_deterministic(self):
        a = generate(_two_cell_config(seed=5))
        b = generate(_two_cell_config(seed=5))
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.image_id == rb.image_id
            np.testing.assert_array_equal(ra.vector, rb.vector)
        assert a.attributes == b.attributes
        assert a.ground_truth == b.ground_truth

    def test_seed_changes_vectors(self):
        a = generate(_two_cell_config(seed=0))
        b = generate(_two_cell_config(seed=1))
        assert not np.array_equal(a.records[0].vector, b.records[0].vector)

    def test_counts_and_ids(self):
        result = generate(_two_cell_config(n=3))
        assert len(result.records) == 2 * 3 * 4  # cells x identities x images
        assert len(result.attributes) == len(result.records)
        identities = {r.identity_id for r in result.records}
        assert identities == {f"u{i:05d}" for i in range(6)}
        assert result.records[0].image_id == "u00000_00"

    def test_unit_norm_embeddings(self):
        result = generate(_two_cell_config())
        for rec in result.records:
            assert np.linalg.norm(rec.vector) == pytest.approx(1.0, abs=1e-5)

    def test_cells_honoured(self):
        result = generate(_two_cell_config(n=4))
        schema = default_schema()
        truth = result.ground_truth["identities"]
        by_image = {a.image_id: a for a in result.attributes}
        for identity, entry in truth.items():
            gender, ethnicity = entry["cell"]
            for k in range(4):
                row = by_image[f"{identity}_{k:02d}"]
                assert schema.variable("gender").levels[int(row.values["gender"])] == gender
                assert (
                    schema.variable("ethnicity").levels[int(row.values["ethnicity"])]
                    == ethnicity
                )

    def test_ground_truth_attributes_match_pipeline_aggregation(self):
        schema = default_schema()
        result = generate(_two_cell_config(n=4))
        cohort = build_cohort(result.records, result.attributes)
        profiles = {p.identity_id: p for p in aggregate_profiles(cohort, schema)}
        for identity, entry in result.ground_truth["identities"].items():
            got = profiles[identity].values
            for name, want in entry["attributes"].items():
                assert got[name] == pytest.approx(want, abs=1e-12), (identity, name)

    def test_attribute_values_respect_schema(self):
        schema = default_schema()
        result = generate(_two_cell_config(n=5, seed=3))
        for row in result.attributes:
            for name, value in row.values.items():
                schema.variable(name).check_value(value)

    def test_margin_shift_raises_false_accepts(self):
        base = _two_cell_config(n=25, seed=0)
        shifted = _two_cell_config(
            n=25,
            seed=0,
            group_margin_shift={("man", "asian"): -0.20},  # narrower margin
        )
        far_base = _mean_rates(base, "eer").far
        far_shifted = _mean_rates(shifted, "eer").far
        assert far_shifted > far_base

    def test_noise_shift_raises_false_rejects(self):
        base = _two_cell_config(n=25, seed=0)
        noisier = _two_cell_config(
            n=25, seed=0, group_noise_shift={("man", "asian"): 0.5}
        )
        op_base = _mean_rates(base, "far@0.05")
        op_noisy = _mean_rates(noisier, "far@0.05")
        assert op_noisy.frr > op_base.frr

    def test_far_effect_links_attribute_to_margin(self):
        config = _two_cell_config(
            n=10, attribute_effects=(AttributeEffect("blur", "far", 0.25),)
        )
        result = generate(config)
        truth = result.ground_truth["identities"]
        blur = np.array([t["attributes"]["blur"] for t in truth.values()])
        pull = np.array([t["pull"] for t in truth.values()])
        # higher blur, stronger hub pull (narrower margin)
        assert np.corrcoef(blur, pull)[0, 1] > 0.99

    def test_frr_effect_links_attribute_to_noise(self):
        config = _two_cell_config(
            n=10, attribute_effects=(AttributeEffect("exposure", "frr", 0.4),)
        )
        result = generate(config)
        truth = result.ground_truth["identities"]
        exposure = np.array([t["attributes"]["exposure"] for t in truth.values()])
        noise = np.array([t["noise"] for t in truth.values()])
        assert np.corrcoef(exposure, noise)[0, 1] > 0.99


class TestConfigDict:
    def test_round_trip(self):
        config = _two_cell_config(
            n=7,
            seed=11,
            group_margin_shift={("man", "asian"): -0.1},
            group_noise_shift={("woman", "caucasian"): 0.2},
            attribute_effects=(AttributeEffect("blur", "far", 0.25),),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_serialisable(self):
        config = _two_cell_config()
        text = json.dumps(config_to_dict(config))
        assert config_from_dict(json.loads(text)) == config

    def test_defaults_fill_in(self):
        config = config_from_dict({"identities_per_group": {"man,asian": 5, "woman,black": 5}})
        assert config.dim == 64
        assert config.base_margin == 0.30
        assert config.noise_scale == 1.20
        assert config.images_per_identity == 4

    def test_missing_cells_rejected(self):
        with pytest.raises(DataError):
            config_from_dict({"dim": 32})

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError):
            config_from_dict({"identities_per_group": {"man,asian": 5}, "colour": "red"})


class TestSimpsonConfig:
    def test_structure(self):
        config = simpson_config(n_major=160, n_minor=20, seed=3)
        # all six gender x ethnicity cells populated
        assert len(config.identities_per_group) == 6
        assert sum(config.identities_per_group.values()) == 2 * (160 + 2 * 20)
        # men sit in the wide-margin ethnicity, women in the narrow one
        assert config.identities_per_group[("man", "caucasian")] == 160
        assert config.identities_per_group[("woman", "asian")] == 160
        # within every ethnicity the male margin is narrower (more negative
        # shift means a narrower margin and more false accepts)
        for eth in ("asian", "black", "caucasian"):
            assert (
                config.group_margin_shift[("man", eth)]
                < config.group_margin_shift[("woman", eth)]
            )

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(DataError):
            simpson_config(n_major=20, n_minor=20)


class TestWriteSynth:
    def test_files_reload(self, tmp_path):
        schema = default_schema()
        result = generate(_two_cell_config(n=4))
        paths = write_synth(tmp_path / "cohort", result, schema)
        assert sorted(paths) == ["attributes", "embeddings", "ground_truth", "schema"]
        cohort = load_cohort(paths["embeddings"], paths["attributes"], schema)
        assert cohort.n_identities == 8
        assert cohort.unattributed == ()
        assert load_schema(paths["schema"]) == schema
        truth = json.loads(paths["ground_truth"].read_text(encoding="utf-8"))
        assert truth == result.ground_truth

    def test_byte_identical_rewrites(self, tmp_path):
        schema = default_schema()
        result = generate(_two_cell_config(n=3))
        a = write_synth(tmp_path / "a", result, schema)
        b = write_synth(tmp_path / "b", result, schema)
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

"""Tests for synthetic cohort generation and its planted bias structure."""

import json

import numpy as np
import pytest
from conftest import attribute_rows

from faceaudit.calibration import calibrate
from faceaudit.cli import main
from faceaudit.cohort import (
    AttributeTable,
    aggregate_profiles,
    aggregate_table,
    load_cohort,
    read_attributes,
)
from faceaudit.errors import DataError, SchemaError
from faceaudit.inputs import from_json
from faceaudit.schema import AttributeSchema, Variable, default_schema, load_schema
from faceaudit.synth import (
    AttributeEffect,
    SynthConfig,
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


def _profile_column(result, name):
    """``name``'s profile value of each identity, in ground-truth order."""
    assert result.profiles.identities == tuple(result.ground_truth["identities"])
    return result.profiles.values[:, default_schema().names().index(name)]


def _mean_rates(config, policy="eer", seed=0):
    """Pooled far/frr of a generated cohort at the calibrated threshold."""
    result = generate(config)
    cohort = result.records
    trials = generate_trials(
        cohort, TrialPolicy(negatives_per_identity=20), seed=seed
    )
    scores = score_trials(cohort, trials)
    genuine = np.sort(scores[trials.genuine])
    impostor = np.sort(scores[~trials.genuine])
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

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be non-negative"):
            _two_cell_config(seed=-1)

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
        assert a.records.image_ids == b.records.image_ids
        assert a.records.identities == b.records.identities
        assert a.records.identity_codes.tolist() == b.records.identity_codes.tolist()
        assert a.records.vectors.tobytes() == b.records.vectors.tobytes()
        assert a.attributes.image_ids == b.attributes.image_ids
        np.testing.assert_array_equal(a.attributes.values, b.attributes.values)
        assert a.ground_truth == b.ground_truth

    def test_seed_changes_vectors(self):
        a = generate(_two_cell_config(seed=0))
        b = generate(_two_cell_config(seed=1))
        assert not np.array_equal(a.records.vectors[0], b.records.vectors[0])

    def test_counts_and_ids(self):
        result = generate(_two_cell_config(n=3))
        assert len(result.records) == 2 * 3 * 4  # cells x identities x images
        assert result.attributes.image_ids == result.records.image_ids
        assert result.records.identities == tuple(f"u{i:05d}" for i in range(6))
        assert result.records.image_ids[0] == "u00000_00"
        assert result.records.identities[result.records.identity_codes[4]] == "u00001"
        assert result.records.vectors.shape == (24, 24)

    def test_unit_norm_embeddings(self):
        result = generate(_two_cell_config())
        norms = np.linalg.norm(result.records.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_cells_honoured(self):
        result = generate(_two_cell_config(n=4))
        schema = default_schema()
        truth = result.ground_truth["identities"]
        by_image = attribute_rows(result.attributes, schema)
        for identity, entry in truth.items():
            gender, ethnicity = entry["cell"]
            for k in range(4):
                row = by_image[f"{identity}_{k:02d}"]
                assert schema.variable("gender").levels[int(row["gender"])] == gender
                assert (
                    schema.variable("ethnicity").levels[int(row["ethnicity"])]
                    == ethnicity
                )

    def test_profiles_match_pipeline_aggregation(self):
        # run-all audits with these profiles instead of aggregating again
        schema = default_schema()
        result = generate(_two_cell_config(n=4))
        profiles = aggregate_profiles(result.records, result.attributes, schema)
        assert result.profiles.identities == profiles.identities
        assert result.profiles.values.tobytes() == profiles.values.tobytes()

    def test_attribute_values_respect_schema(self):
        schema = default_schema()
        result = generate(_two_cell_config(n=5, seed=3))
        for row in attribute_rows(result.attributes, schema).values():
            assert len(row) == len(schema.variables)
            for name, value in row.items():
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
        blur = _profile_column(result, "blur")
        pull = np.array([t["pull"] for t in result.ground_truth["identities"].values()])
        # higher blur, stronger hub pull (narrower margin)
        assert np.corrcoef(blur, pull)[0, 1] > 0.99

    def test_frr_effect_links_attribute_to_noise(self):
        config = _two_cell_config(
            n=10, attribute_effects=(AttributeEffect("exposure", "frr", 0.4),)
        )
        result = generate(config)
        exposure = _profile_column(result, "exposure")
        noise = np.array([t["noise"] for t in result.ground_truth["identities"].values()])
        assert np.corrcoef(exposure, noise)[0, 1] > 0.99


def _loop_generate(config, schema):
    """``generate`` with one generator call per drawn value, in one pass.

    Returns (vectors, attribute values, profile values, per-identity
    ground truth).  An identity's draws come in stream order: traits,
    each image's jitter, the residual, each image's scatter; its profile
    needs only its own rows, so one pass per identity keeps that order."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    dim, per = config.dim, config.images_per_identity
    hub = np.ones(dim) / np.sqrt(dim)
    counts = config.identities_per_group
    cells = [cell for cell in sorted(counts) for _ in range(counts[cell])]
    vectors, values, profiles, truth = [], [], [], {}
    for u, cell in enumerate(cells):
        levels = dict(zip(config.group_attributes, cell))
        traits = []
        for var in schema.variables:
            if var.name in levels:
                level = levels[var.name]
                code = var.levels.index(level) if var.kind == "categorical" else int(level)
                traits.append(float(code))
            elif var.kind == "boolean":
                traits.append(1.0 if rng.random() < 0.15 else 0.0)
            elif var.kind == "categorical":
                traits.append(float(rng.integers(len(var.levels))))
            else:
                traits.append(float(rng.uniform(*var.bounds())))
        rows = []
        for _ in range(per):
            row = []
            for var, trait in zip(schema.variables, traits):
                if var.is_continuous:
                    lo, hi = var.bounds()
                    trait = min(max(trait + rng.normal(0.0, 0.03 * (hi - lo)), lo), hi)
                row.append(trait)
            rows.append(row)
        values += rows
        ids = [f"u{u:05d}_{k:02d}" for k in range(per)]
        table = AttributeTable(tuple(ids), np.array(rows))
        (row,) = aggregate_table(table, ids, np.zeros(per, dtype=int), 1, schema)
        profiles.append(row)
        aggregated = dict(zip(schema.names(), row.tolist()))
        pull = (1.0 - config.base_margin) - config.group_margin_shift.get(cell, 0.0)
        noise = config.noise_scale + config.group_noise_shift.get(cell, 0.0)
        for effect in config.attribute_effects:
            lo, hi = schema.variable(effect.variable).bounds()
            shift = effect.strength * ((2.0 * aggregated[effect.variable] - lo - hi) / (hi - lo))
            if effect.target == "far":
                pull += shift
            else:
                noise += shift
        pull, noise = max(pull, 0.0), max(noise, 0.01)
        residual = rng.standard_normal(dim)
        residual /= np.linalg.norm(residual)
        centroid = residual + pull * hub
        centroid /= np.linalg.norm(centroid)
        for _ in range(per):
            vec = centroid + noise * (rng.standard_normal(dim) / np.sqrt(dim))
            vectors.append(vec / np.linalg.norm(vec))
        truth[f"u{u:05d}"] = {"cell": list(cell), "pull": pull, "noise": noise}
    return np.array(vectors, dtype=np.float32), np.array(values), np.array(profiles), truth


class TestLoopReference:
    @pytest.mark.parametrize("per", [2, 4, 7])
    def test_batched_draws_match_one_call_per_value(self, per):
        config = _two_cell_config(
            n=6,
            seed=per,
            images_per_identity=per,
            group_margin_shift={("man", "asian"): -0.1},
            group_noise_shift={("woman", "caucasian"): 0.3},
            attribute_effects=(
                AttributeEffect("blur", "far", 0.3),
                AttributeEffect("age", "frr", 0.4),
                AttributeEffect("eyes_occluded", "frr", 0.2),
            ),
        )
        result = generate(config)
        vectors, values, profiles, truth = _loop_generate(config, default_schema())
        assert result.records.vectors.tobytes() == vectors.tobytes()
        assert result.attributes.values.tobytes() == values.tobytes()
        assert result.profiles.values.tobytes() == profiles.tobytes()
        assert json.dumps(result.ground_truth["identities"]) == json.dumps(truth)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_drawn_categorical_breaks_the_run(self, seed):
        # grouped by gender alone, each identity draws a categorical
        # between two runs of one-double variables, and another at the end
        schema = AttributeSchema(
            variables=(
                Variable("tilt", "orientation", "continuous_range", lo=-30.0, hi=45.5),
                Variable("gender", "protected", "categorical", levels=("man", "woman")),
                Variable("site", "protected", "categorical", levels=("north", "south", "east")),
                Variable("masked", "occlusion", "boolean"),
                Variable("blur", "distortion", "continuous_unit"),
                Variable("lighting", "distortion", "categorical", levels=("dim", "bright")),
            ),
            protected=("gender", "site"),
        )
        config = SynthConfig(
            identities_per_group={("man",): 5, ("woman",): 4},
            group_attributes=("gender",),
            images_per_identity=3,
            dim=16,
            seed=seed,
            attribute_effects=(
                AttributeEffect("tilt", "far", 0.2),
                AttributeEffect("masked", "frr", 0.3),
            ),
        )
        result = generate(config, schema)
        vectors, values, profiles, truth = _loop_generate(config, schema)
        assert result.records.vectors.tobytes() == vectors.tobytes()
        assert result.attributes.values.tobytes() == values.tobytes()
        assert result.profiles.values.tobytes() == profiles.tobytes()
        assert json.dumps(result.ground_truth["identities"]) == json.dumps(truth)
        assert len(set(values[:, 2].tolist())) == 3  # every site level drawn


# Sets every SynthConfig key; integers stand in for two float fields.
_EVERY_KEY = {
    "identities_per_group": {"man,asian": 7, "woman,caucasian": 5},
    "group_attributes": ["gender", "ethnicity"],
    "images_per_identity": 3,
    "dim": 24,
    "base_margin": 0.25,
    "noise_scale": 1,
    "group_margin_shift": {"man,asian": -0.1},
    "group_noise_shift": {"woman,caucasian": 0.2},
    "attribute_effects": [
        {"variable": "blur", "target": "far", "strength": 0.25},
        {"variable": "exposure", "target": "frr", "strength": 1},
    ],
    "seed": 11,
}


def _synth_truth(tmp_path, config, name="synth"):
    """ground_truth.json bytes of ``faceaudit synth --config`` on ``config``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / name
    assert main(["synth", "--config", str(path), "--out", str(out)]) == 0
    return (out / "ground_truth.json").read_bytes()


class TestConfigDict:
    """``synth --config`` maps each JSON key onto its SynthConfig field."""

    def test_round_trip(self, tmp_path):
        config = SynthConfig(
            identities_per_group={("man", "asian"): 7, ("woman", "caucasian"): 5},
            group_attributes=("gender", "ethnicity"),
            images_per_identity=3,
            dim=24,
            base_margin=0.25,
            noise_scale=1.0,
            group_margin_shift={("man", "asian"): -0.1},
            group_noise_shift={("woman", "caucasian"): 0.2},
            attribute_effects=(
                AttributeEffect("blur", "far", 0.25),
                AttributeEffect("exposure", "frr", 1.0),
            ),
            seed=11,
        )
        truth = json.loads(_synth_truth(tmp_path, _EVERY_KEY))
        assert from_json(SynthConfig, truth["synth"], "synth") == config
        assert truth == json.loads(json.dumps(generate(config).ground_truth))
        # integers given for float fields are read as floats
        assert isinstance(truth["synth"]["noise_scale"], float)
        assert isinstance(truth["synth"]["attribute_effects"][1]["strength"], float)

    def test_json_serialisable(self, tmp_path):
        # a bare synth object and one under a "synth" key read the same
        bare = _synth_truth(tmp_path, _EVERY_KEY, "bare")
        assert _synth_truth(tmp_path, {"synth": _EVERY_KEY}, "wrapped") == bare

    def test_defaults_fill_in(self, tmp_path):
        cells = {"man,asian": 5, "woman,black": 5}
        truth = json.loads(_synth_truth(tmp_path, {"identities_per_group": cells}))
        assert truth["synth"] == {"identities_per_group": cells}  # defaults are left out
        config = from_json(SynthConfig, truth["synth"], "synth")
        assert config.dim == 64
        assert config.base_margin == 0.30
        assert config.noise_scale == 1.20
        assert config.images_per_identity == 4
        assert config.group_attributes == ("gender", "ethnicity")
        assert config.group_margin_shift == config.group_noise_shift == {}
        assert config.attribute_effects == ()
        assert config.seed == 0

    def test_ground_truth_regenerates_the_cohort(self, tmp_path):
        # the config ground_truth.json holds, --seed applied, draws the same data/
        path = tmp_path / "pipeline.json"
        config = {"synth": _EVERY_KEY, "trials": {"negatives_per_identity": 10}}
        path.write_text(json.dumps(config), encoding="utf-8")
        run, again = tmp_path / "run", tmp_path / "again"
        assert main(["run-all", "--config", str(path), "--seed", "5", "--out", str(run)]) == 0
        truth = run / "data" / "ground_truth.json"
        assert json.loads(truth.read_text(encoding="utf-8"))["synth"]["seed"] == 5
        assert main(["synth", "--config", str(truth), "--out", str(again)]) == 0
        names = ["attributes.csv", "embeddings.freb", "ground_truth.json", "schema.json"]
        assert sorted(p.name for p in (run / "data").iterdir()) == names
        for name in names:
            assert (run / "data" / name).read_bytes() == (again / name).read_bytes(), name


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
        cohort = load_cohort(paths["embeddings"])
        assert len(cohort.identities) == 8
        table = read_attributes(paths["attributes"], schema)
        assert table.image_ids == cohort.image_ids
        # run-all audits the cohort in memory: the files hold the same one
        held = result.records
        assert cohort.image_ids == held.image_ids
        assert cohort.identities == held.identities
        assert cohort.identity_codes.tolist() == held.identity_codes.tolist()
        assert cohort.vectors.dtype == held.vectors.dtype == np.float32
        assert cohort.vectors.tobytes() == held.vectors.tobytes()
        assert table.image_ids == result.attributes.image_ids
        np.testing.assert_array_equal(table.values, result.attributes.values)  # NaN == NaN
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

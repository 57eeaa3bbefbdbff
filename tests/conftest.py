"""Shared helpers: assemble small synthetic cohorts, trial sets and
attribute tables for tests."""

import importlib.util
from pathlib import Path

import numpy as np

from faceaudit.cohort import AttributeTable, ImageTable, ProfileTable, build_cohort
from faceaudit.inputs import to_json
from faceaudit.metrics import trial_census
from faceaudit.pipeline import run_audit
from faceaudit.schema import default_schema
from faceaudit.synth import SynthConfig, generate
from faceaudit.trials import TrialPolicy, TrialSet, generate_trials, score_trials


def synth_cohort(config, schema=None):
    """Generate a cohort and return (cohort, synth_result)."""
    schema = schema or default_schema()
    result = generate(config, schema)
    return result.records, result


def cohort_of(records):
    """The Cohort of (image id, identity id, vector) triples."""
    image_ids, identity_ids, vectors = zip(*records)
    return build_cohort(image_ids, identity_ids, np.array(vectors))


def cohort_audit(result, trials, scores, options, seed=0):
    """run_audit with a synth result's own profiles, as run-all audits."""
    return run_audit(trial_census(trials, scores), result.profiles, default_schema(), options, seed)


def scored_trials(cohort, seed=0, policy=None):
    trials = generate_trials(cohort, policy or TrialPolicy(), seed=seed)
    return trials, score_trials(cohort, trials)


def small_config(seed=0, n=12, dim=24, **overrides):
    """A fast two-cell cohort for tests that only need plumbing."""
    base = dict(
        identities_per_group={("man", "asian"): n, ("woman", "caucasian"): n},
        dim=dim,
        seed=seed,
    )
    base.update(overrides)
    return SynthConfig(**base)


def image_table(identity_of):
    """The ImageTable of {image id: identity}: identities in sorted order,
    each identity's images sorted."""
    images = sorted(identity_of, key=lambda i: (identity_of[i], i))
    identities = tuple(sorted(set(identity_of.values())))
    codes = [identities.index(identity_of[i]) for i in images]
    return ImageTable(tuple(images), np.array(codes, dtype=np.int32), identities)


def trial_set(pairs, identity_of):
    """Trials over (probe image, reference image) ``pairs``, labelled by
    ``identity_of``, on the image table of the paired images."""
    used = {image for pair in pairs for image in pair}
    table = image_table({image: identity_of[image] for image in used})
    row = {image: r for r, image in enumerate(table.image_ids)}
    return TrialSet(
        image_ids=table.image_ids,
        identity_codes=table.identity_codes,
        identities=table.identities,
        pairs=np.array([(row[p], row[r]) for p, r in pairs], dtype=np.int32).reshape(-1, 2),
    )


def identity_map(trials):
    """Image id to identity name, for every image in a trial set's table."""
    return {
        image: trials.identities[code]
        for image, code in zip(trials.image_ids, trials.identity_codes.tolist())
    }


def attribute_table(rows, schema=None):
    """An AttributeTable from {image id: {variable: value}}; absent
    variables are missing (NaN)."""
    names = (schema or default_schema()).names()
    values = [[row.get(name, np.nan) for name in names] for row in rows.values()]
    return AttributeTable(tuple(rows), np.array(values, dtype=np.float64).reshape(-1, len(names)))


def attribute_rows(table, schema=None):
    """{image id: {variable: value}} of an AttributeTable, missing values left out."""
    names = (schema or default_schema()).names()
    return {
        image: {name: v for name, v in zip(names, row) if not np.isnan(v)}
        for image, row in zip(table.image_ids, table.values.tolist())
    }


def profile_table(rows, schema=None):
    """A ProfileTable from {identity: {variable: value}}, identities sorted;
    absent variables are missing (NaN)."""
    names = (schema or default_schema()).names()
    identities = tuple(sorted(rows))
    values = [[rows[i].get(name, np.nan) for name in names] for i in identities]
    return ProfileTable(identities, np.array(values, dtype=np.float64).reshape(-1, len(names)))


def profile_rows(profiles, schema=None):
    """{identity: {variable: value}} of a ProfileTable, missing values left out."""
    names = (schema or default_schema()).names()
    return {
        identity: {name: v for name, v in zip(names, row) if not np.isnan(v)}
        for identity, row in zip(profiles.identities, profiles.values.tolist())
    }


def schema_document(top=None, **changes):
    """The default schema's document with keys of its first variable
    (gender) replaced, a value of None deleting the key, and the
    top-level keys ``top`` replaced."""
    document = {**to_json(default_schema()), **(top or {})}
    first = {**document["variables"][0], **changes}
    first = {key: value for key, value in first.items() if value is not None}
    document["variables"] = [first, *document["variables"][1:]]
    return document


def write_bench_inputs(outdir, identities, seed):
    """Write the benchmark's explain inputs (``bench/explain_inputs.py``)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "explain_inputs.py"
    spec = importlib.util.spec_from_file_location("explain_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.write_inputs(outdir, identities, seed)

"""Synthetic cohorts with controlled, recoverable bias structure.

Geometry: every identity gets a centroid on the unit hypersphere pulled
toward a shared hub direction, and its images scatter around that
centroid.  Hub pull controls how close impostors come (false accepts);
scatter controls how far genuine images drift apart (false rejects).
Both knobs respond to group membership and, optionally, to the
identity's own attribute values, so downstream audits have a known
answer to recover.

Per identity ``u`` with unit residual ``r_u`` and hub ``h``:

    centroid_u = normalize(r_u + beta_u * h)
    image      = normalize(centroid_u + s_u * g / sqrt(dim)),  g ~ N(0, I)

    beta_u = (1 - base_margin) - margin_shift[cell(u)]
             + sum over FAR effects of strength * xtilde(u, var)
    s_u    = noise_scale + noise_shift[cell(u)]
             + sum over FRR effects of strength * xtilde(u, var)

where ``xtilde`` rescales the identity's aggregated attribute value to
[-1, 1] over the variable's bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from faceaudit.cohort import (
    AttributeTable,
    EmbeddingTable,
    aggregate_table,
    write_attributes,
    write_embeddings_binary,
)
from faceaudit.errors import DataError, SchemaError
from faceaudit.schema import AttributeSchema, default_schema, save_schema

_MIN_NOISE = 0.01
_MIN_PULL = 0.0


@dataclass(frozen=True)
class AttributeEffect:
    """A planted monotone link from one attribute to one error mode.

    Positive strength raises the targeted error rate as the attribute
    grows; strength is in hub-pull units for ``far`` and in scatter
    units for ``frr``.
    """

    variable: str
    target: str
    strength: float

    def __post_init__(self):
        if self.target not in ("far", "frr"):
            raise DataError(f"target must be 'far' or 'frr', got {self.target!r}")


@dataclass(frozen=True)
class SynthConfig:
    """Full recipe for one synthetic cohort.

    ``identities_per_group`` maps concrete level tuples over
    ``group_attributes`` to identity counts; omitted cells get none.
    ``group_margin_shift`` widens (positive) or narrows (negative) a
    cell's hub margin, lowering or raising its false-accept propensity;
    ``group_noise_shift`` does the same for image scatter and false
    rejects.
    """

    identities_per_group: dict[tuple[str, ...], int]
    group_attributes: tuple[str, ...] = ("gender", "ethnicity")
    images_per_identity: int = 4
    dim: int = 64
    base_margin: float = 0.30
    noise_scale: float = 1.20
    group_margin_shift: dict[tuple[str, ...], float] = field(default_factory=dict)
    group_noise_shift: dict[tuple[str, ...], float] = field(default_factory=dict)
    attribute_effects: tuple[AttributeEffect, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not self.identities_per_group:
            raise DataError("identities_per_group must name at least one cell")
        if self.images_per_identity < 2:
            raise DataError("images_per_identity must be at least 2")
        if self.dim < 2:
            raise DataError("dim must be at least 2")
        if not 0.0 < self.base_margin < 1.0:
            raise DataError("base_margin must lie strictly inside (0, 1)")
        if self.noise_scale <= 0.0:
            raise DataError("noise_scale must be positive")
        if self.seed < 0:
            raise DataError("seed must be non-negative")
        for cell, count in self.identities_per_group.items():
            if len(cell) != len(self.group_attributes):
                raise DataError(
                    f"identities_per_group cell {cell!r} does not match group_attributes"
                )
            if count < 1:
                raise DataError(
                    f"identities_per_group cell {cell!r} must hold at least one identity"
                )

    def validate_schema(self, schema: AttributeSchema) -> None:
        for name in self.group_attributes:
            var = schema.variable(name)
            if var.kind not in ("categorical", "boolean"):
                raise SchemaError(f"group attribute {name!r} must be discrete")
        for cell in set(self.identities_per_group) | set(self.group_margin_shift) | set(
            self.group_noise_shift
        ):
            for name, level in zip(self.group_attributes, cell):
                if level not in schema.variable(name).discrete_levels():
                    raise SchemaError(f"{level!r} is not a level of {name!r}")
        for effect in self.attribute_effects:
            var = schema.variable(effect.variable)
            if var.kind == "categorical":
                raise SchemaError(
                    f"effect on {effect.variable!r}: categorical attributes enter "
                    "through group shifts, not scalar effects"
                )
            if effect.variable in self.group_attributes:
                raise SchemaError(f"effect on {effect.variable!r} clashes with grouping")


@dataclass(frozen=True)
class SynthResult:
    records: EmbeddingTable
    attributes: AttributeTable
    ground_truth: dict


def _rescaled(value: float, var) -> float:
    lo, hi = var.bounds()
    return (2.0 * value - lo - hi) / (hi - lo)


def _trait(var, level: str | None, rng) -> float:
    """An identity's value of ``var``: its cell's ``level``, else a draw."""
    if level is not None:
        return float(var.levels.index(level) if var.kind == "categorical" else int(level))
    if var.kind == "boolean":
        return 1.0 if rng.random() < 0.15 else 0.0
    if var.kind == "categorical":
        return float(rng.integers(len(var.levels)))
    lo, hi = var.bounds()
    return float(rng.uniform(lo, hi))


def generate(config: SynthConfig, schema: AttributeSchema | None = None) -> SynthResult:
    """Draw the cohort; the same (config, schema) pair always returns
    identical records, attribute rows, and ground truth."""
    schema = schema or default_schema()
    config.validate_schema(schema)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    hub = np.ones(config.dim) / np.sqrt(config.dim)
    base_pull = 1.0 - config.base_margin

    # The planted effects need each identity's aggregated attributes,
    # which are computed for all identities at once.  So the attributes
    # are drawn first; each identity's residual and scatter draws are
    # skipped then and drawn again below from the saved generator state.
    # Jitter and scatter are drawn one block per identity, which takes
    # the values one call per value would: the stream is unchanged.
    counts = config.identities_per_group
    cells = [cell for cell in sorted(counts) for _ in range(counts[cell])]
    per = config.images_per_identity
    continuous = [j for j, var in enumerate(schema.variables) if var.is_continuous]
    lo, hi = np.array([schema.variables[j].bounds() for j in continuous]).reshape(-1, 2).T
    jitter_sd = np.tile(0.03 * (hi - lo), (per, 1))  # one row per image
    traits = np.empty((len(cells), len(schema.variables)))
    jitter = np.empty((len(cells), per, len(continuous)))
    states = []  # generator state before each identity's residual draw
    skipped = np.empty((1 + per, config.dim))
    for u, cell in enumerate(cells):
        cell_levels = dict(zip(config.group_attributes, cell))
        traits[u] = [_trait(var, cell_levels.get(var.name), rng) for var in schema.variables]
        jitter[u] = rng.normal(0.0, jitter_sd)
        states.append(rng.bit_generator.state)
        rng.standard_normal(out=skipped)
    # Each image's continuous values drift from its identity's traits.
    values = np.repeat(traits, per, axis=0)
    drifted = values[:, continuous] + jitter.reshape(-1, len(continuous))
    values[:, continuous] = np.minimum(np.maximum(drifted, lo), hi)

    image_ids = tuple(f"u{u:05d}_{k:02d}" for u in range(len(cells)) for k in range(per))
    attributes = AttributeTable(image_ids=image_ids, values=values)
    codes = np.repeat(np.arange(len(cells)), per)
    aggregated_rows, _, _ = aggregate_table(attributes, image_ids, codes, len(cells), schema)
    vectors = np.empty((len(image_ids), config.dim), dtype=np.float32)
    identity_truth: dict[str, dict] = {}
    names = schema.names()
    for u, (cell, row) in enumerate(zip(cells, aggregated_rows.tolist())):
        aggregated = dict(zip(names, row))
        pull = base_pull - config.group_margin_shift.get(cell, 0.0)
        noise = config.noise_scale + config.group_noise_shift.get(cell, 0.0)
        for effect in config.attribute_effects:
            shift = effect.strength * _rescaled(
                aggregated[effect.variable], schema.variable(effect.variable)
            )
            if effect.target == "far":
                pull += shift
            else:
                noise += shift
        pull, noise = max(pull, _MIN_PULL), max(noise, _MIN_NOISE)

        rng.bit_generator.state = states[u]
        residual = rng.standard_normal(config.dim)
        residual /= np.linalg.norm(residual)
        centroid = residual + pull * hub
        centroid /= np.linalg.norm(centroid)
        images = centroid + noise * (rng.standard_normal((per, config.dim)) / np.sqrt(config.dim))
        for vec in images:
            vec /= np.linalg.norm(vec)  # row by row: a 2-D norm sums in another order
        vectors[u * per : (u + 1) * per] = images
        identity_truth[f"u{u:05d}"] = {
            "cell": list(cell),
            "pull": pull,
            "noise": noise,
            "attributes": {k: aggregated[k] for k in sorted(aggregated)},
        }

    ground_truth = {
        "group_attributes": list(config.group_attributes),
        "cells": {",".join(cell): n for cell, n in sorted(config.identities_per_group.items())},
        "base_margin": config.base_margin,
        "noise_scale": config.noise_scale,
        "margin_shift": {",".join(c): s for c, s in sorted(config.group_margin_shift.items())},
        "noise_shift": {",".join(c): s for c, s in sorted(config.group_noise_shift.items())},
        "effects": [
            {"variable": e.variable, "target": e.target, "strength": e.strength}
            for e in config.attribute_effects
        ],
        "seed": config.seed,
        "dim": config.dim,
        "images_per_identity": config.images_per_identity,
        "identities": identity_truth,
    }
    identity_ids = tuple(f"u{u:05d}" for u in range(len(cells)) for _ in range(per))
    records = EmbeddingTable(image_ids, identity_ids, vectors)
    return SynthResult(records=records, attributes=attributes, ground_truth=ground_truth)


def simpson_config(
    n_major: int = 160,
    n_minor: int = 20,
    seed: int = 0,
    dim: int = 64,
    in_cell_gap: float = 0.10,
    between_gap: float = 0.30,
) -> SynthConfig:
    """A cohort whose gender gap flips sign once ethnicity is held fixed.

    Within every ethnicity men have the narrower margin (higher false
    accepts), but men concentrate in the wide-margin ethnicity and women
    in the narrow-margin one, so the pooled comparison reverses: women
    come out worse overall.  Requires the default two grouping
    attributes with at least two levels each.
    """
    if n_major <= n_minor:
        raise DataError("n_major must exceed n_minor for the composition to flip")
    eth_margin = {"asian": -between_gap / 2, "black": 0.0, "caucasian": between_gap / 2}
    counts = {}
    shifts = {}
    for gender in ("man", "woman"):
        for eth, margin in eth_margin.items():
            cell = (gender, eth)
            # men narrow the margin inside each cell
            shifts[cell] = margin - (in_cell_gap if gender == "man" else 0.0)
            if gender == "man":
                counts[cell] = n_major if eth == "caucasian" else n_minor
            else:
                counts[cell] = n_major if eth == "asian" else n_minor
    return SynthConfig(
        identities_per_group=counts,
        group_margin_shift=shifts,
        seed=seed,
        dim=dim,
    )


def write_synth(outdir: str | Path, result: SynthResult, schema: AttributeSchema) -> dict[str, Path]:
    """Materialise a generated cohort as the on-disk exchange formats."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "embeddings": outdir / "embeddings.freb",
        "attributes": outdir / "attributes.csv",
        "schema": outdir / "schema.json",
        "ground_truth": outdir / "ground_truth.json",
    }
    write_embeddings_binary(paths["embeddings"], result.records)
    write_attributes(paths["attributes"], result.attributes, schema)
    save_schema(schema, paths["schema"])
    with open(paths["ground_truth"], "w", encoding="utf-8") as fh:
        json.dump(result.ground_truth, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return paths

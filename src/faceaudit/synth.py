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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from faceaudit.cohort import (
    AttributeTable,
    Cohort,
    ProfileTable,
    aggregate_table,
    build_cohort,
    write_attributes,
    write_embeddings_binary,
)
from faceaudit.errors import DataError, SchemaError
from faceaudit.inputs import to_json
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
        for key, cell in self._cells():
            if len(cell) != len(self.group_attributes):
                raise DataError(f"{key}: cell does not match group_attributes")
        for cell, count in self.identities_per_group.items():
            if count < 1:
                raise DataError(f"identities_per_group[{','.join(cell)!r}] must be at least 1")

    def _cells(self):
        """(key path, cell) of every cell the config names."""
        for name in ("identities_per_group", "group_margin_shift", "group_noise_shift"):
            for cell in getattr(self, name):
                yield f"{name}[{','.join(cell)!r}]", cell

    def validate_schema(self, schema: AttributeSchema) -> None:
        """Raise a SchemaError that begins with the key path unless ``schema`` fits."""
        schema.check_grouping(self.group_attributes, group_key="group_attributes")
        for key, cell in self._cells():
            for name, level in zip(self.group_attributes, cell):
                if level not in schema.variable(name).discrete_levels():
                    raise SchemaError(f"{key}: {level!r} is not a level of {name!r}")
        scalars = {var.name for var in schema.variables if var.kind != "categorical"}
        for i, effect in enumerate(self.attribute_effects):
            if effect.variable not in scalars.difference(self.group_attributes):
                raise SchemaError(
                    f"attribute_effects[{i}].variable: {effect.variable!r} is not a continuous "
                    "or boolean attribute outside group_attributes"
                )


@dataclass(frozen=True)
class SynthResult:
    """A generated cohort; ``ground_truth`` is what ``ground_truth.json``
    holds: the config and each identity's cell, hub pull and scatter."""

    records: Cohort
    attributes: AttributeTable
    profiles: ProfileTable
    ground_truth: dict


def _rescaled(value: float, var) -> float:
    lo, hi = var.bounds()
    return (2.0 * value - lo - hi) / (hi - lo)


def _draw_plan(drawn) -> list[tuple[int, int, int]]:
    """One identity's trait draws over the ``drawn`` variables, in stream
    order, as ``(start, stop, levels)`` spans of their columns.  A run of
    continuous and boolean variables (``levels`` 0) takes one double
    apiece from one ``random`` call; each categorical breaks the run
    with one ``integers(levels)`` call."""
    plan: list[tuple[int, int, int]] = []
    for i, var in enumerate(drawn):
        if var.kind == "categorical":
            plan.append((i, i + 1, len(var.levels)))
        elif plan and not plan[-1][2]:
            plan[-1] = (plan[-1][0], i + 1, 0)
        else:
            plan.append((i, i + 1, 0))
    return plan


def generate(config: SynthConfig, schema: AttributeSchema | None = None) -> SynthResult:
    """Draw the cohort; the same (config, schema) pair always returns
    identical records, attribute rows, and ground truth."""
    schema = schema or default_schema()
    config.validate_schema(schema)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    root_dim = np.sqrt(config.dim)
    hub = np.ones(config.dim) / root_dim
    base_pull = 1.0 - config.base_margin

    # The planted effects need each identity's aggregated attributes,
    # which are computed for all identities at once.  So the attributes
    # are drawn first; each identity's residual and scatter draws are
    # skipped then and drawn again below from the saved generator state.
    # Each identity draws its traits by the plan and its jitter with one
    # call; the values are scaled once all are drawn.  Both take the
    # values one call per value would: the stream is unchanged.
    counts = config.identities_per_group
    cells = [cell for cell in sorted(counts) for _ in range(counts[cell])]
    per = config.images_per_identity
    variables, names = schema.variables, schema.names()
    continuous = [j for j, var in enumerate(variables) if var.is_continuous]
    lo, hi = np.array([variables[j].bounds() for j in continuous]).reshape(-1, 2).T
    fixed = [names.index(name) for name in dict.fromkeys(config.group_attributes)]
    drawn = [j for j in range(len(variables)) if j not in fixed]
    plan = _draw_plan([variables[j] for j in drawn])
    doubles = np.empty((len(cells), len(drawn)))
    jitter = np.empty((len(cells), per, len(continuous)))
    # The generator state before each identity's residual draw, kept as
    # the three values that change: a whole state dict is ~600 bytes.
    saved = rng.bit_generator.state
    states = []
    skipped = np.empty((1 + per, config.dim))
    for u, row in enumerate(doubles):
        for start, stop, levels in plan:
            if levels:
                row[start] = rng.integers(levels)
            else:
                rng.random(out=row[start:stop])
        rng.standard_normal(out=jitter[u])
        state = rng.bit_generator.state
        states.append((state["state"]["state"], state["has_uint32"], state["uinteger"]))
        rng.standard_normal(out=skipped)
    traits = np.empty((len(cells), len(variables)))
    for j, column in zip(drawn, doubles.T):
        if variables[j].kind == "boolean":
            traits[:, j] = column < 0.15
        elif variables[j].is_continuous:
            low, high = variables[j].bounds()
            traits[:, j] = low + (high - low) * column  # as ``uniform(low, high)`` computes it
        else:
            traits[:, j] = column
    fixed_codes = {}  # cell -> the level codes it fixes, in ``fixed`` order
    for cell in counts:
        cell_levels = dict(zip(config.group_attributes, cell)).items()
        fixed_codes[cell] = [schema.variable(n).discrete_levels().index(v) for n, v in cell_levels]
    traits[:, fixed] = [fixed_codes[cell] for cell in cells]
    # Each image's continuous values drift from its identity's traits.
    jitter *= 0.03 * (hi - lo)
    jitter += 0.0  # as ``normal(0.0, sd)`` computes it, which turns -0.0 to 0.0
    values = np.repeat(traits, per, axis=0)
    drifted = values[:, continuous] + jitter.reshape(-1, len(continuous))
    values[:, continuous] = np.minimum(np.maximum(drifted, lo), hi)

    image_ids = tuple(f"u{u:05d}_{k:02d}" for u in range(len(cells)) for k in range(per))
    attributes = AttributeTable(image_ids=image_ids, values=values)
    codes = np.repeat(np.arange(len(cells)), per)
    aggregated = aggregate_table(attributes, image_ids, codes, len(cells), schema)
    vectors = np.empty((len(image_ids), config.dim), dtype=np.float32)
    identity_truth: dict[str, dict] = {}
    names = schema.names()
    for u, (cell, row) in enumerate(zip(cells, aggregated.tolist())):
        pull = base_pull - config.group_margin_shift.get(cell, 0.0)
        noise = config.noise_scale + config.group_noise_shift.get(cell, 0.0)
        for effect in config.attribute_effects:
            shift = effect.strength * _rescaled(
                row[names.index(effect.variable)], schema.variable(effect.variable)
            )
            if effect.target == "far":
                pull += shift
            else:
                noise += shift
        pull, noise = max(pull, _MIN_PULL), max(noise, _MIN_NOISE)

        saved["state"]["state"], saved["has_uint32"], saved["uinteger"] = states[u]
        rng.bit_generator.state = saved
        residual = rng.standard_normal(config.dim)
        residual /= math.sqrt(residual.dot(residual))  # as ``np.linalg.norm`` computes it
        centroid = residual + pull * hub
        centroid /= math.sqrt(centroid.dot(centroid))
        images = centroid + noise * (rng.standard_normal((per, config.dim)) / root_dim)
        for vec in images:
            vec /= math.sqrt(vec.dot(vec))  # row by row: a 2-D norm sums in another order
        vectors[u * per : (u + 1) * per] = images
        identity_truth[f"u{u:05d}"] = {"cell": list(cell), "pull": pull, "noise": noise}

    identities = list(identity_truth)
    identity_ids = tuple(identity for identity in identities for _ in range(per))
    records = build_cohort(image_ids, identity_ids, vectors)
    order = sorted(range(len(identities)), key=identities.__getitem__)  # "u100000" < "u99999"
    profiles = ProfileTable(tuple(identities[i] for i in order), aggregated[order])
    ground_truth = {"synth": to_json(config), "identities": identity_truth}
    return SynthResult(records, attributes, profiles, ground_truth)


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
    text = json.dumps(result.ground_truth, sort_keys=True, indent=2) + "\n"
    paths["ground_truth"].write_text(text, encoding="utf-8")
    return paths

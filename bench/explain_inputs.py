"""Seeded inputs for the explain-files workloads.

Writes, in the formats the README documents:

* ``scores.csv``: ``probe_image_id,reference_image_id,label,score``, with
  per identity (in sorted order) all 6 genuine pairs of its 4 images and
  then 50 distinct impostor pairs against other identities' images;
* ``attributes.csv``: ``image_id`` plus the 20 default-schema columns.

Scores carry a per-cell shift, a per-identity offset and a blur effect
on genuine scores, so group rates, rank tests and the regression all
have signal to work on.

This module deliberately imports nothing from ``faceaudit``: the files
depend only on the seed and the identity count, so they are
byte-identical on every commit of the program.  To write them by hand:

    python3 bench/explain_inputs.py --identities 9600 --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

import numpy as np

IMAGES = 4
GENUINE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
IMPOSTORS = 50
_CANDIDATES = 64  # impostor draws per identity before deduplication

CELLS = tuple((g, e) for g in ("man", "woman") for e in ("asian", "black", "caucasian"))
# Per-cell (genuine, impostor) score shifts.
_CELL_SHIFT = ((0.00, 0.00), (-0.04, 0.03), (0.02, -0.02), (-0.02, 0.05), (0.03, 0.01), (-0.05, 0.02))

# The default attribute schema, in column order: (name, kind, lo, hi).
# Kinds: "cat" (gender, ethnicity), "range" and "unit" (continuous),
# "bool" (identity-level flags).
SCHEMA = (
    ("gender", "cat", 0, 0),
    ("ethnicity", "cat", 0, 0),
    ("age", "range", 1.0, 100.0),
    ("mustache", "unit", 0.0, 1.0),
    ("beard", "unit", 0.0, 1.0),
    ("sideburns", "unit", 0.0, 1.0),
    ("eye_makeup", "unit", 0.0, 1.0),
    ("lip_makeup", "unit", 0.0, 1.0),
    ("head_wear", "unit", 0.0, 1.0),
    ("glasses", "unit", 0.0, 1.0),
    ("roll", "range", -180.0, 180.0),
    ("yaw", "range", -180.0, 180.0),
    ("pitch", "range", -180.0, 180.0),
    ("forehead_occluded", "bool", 0, 1),
    ("eyes_occluded", "bool", 0, 1),
    ("mouth_occluded", "bool", 0, 1),
    ("exposure", "unit", 0.0, 1.0),
    ("blur", "unit", 0.0, 1.0),
    ("noise", "unit", 0.0, 1.0),
    ("smile", "unit", 0.0, 1.0),
)


def _draw(n: int, seed: int):
    """All random content for ``n`` identities, drawn in a fixed order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_images = n * IMAGES
    cell = np.arange(n) // (n // len(CELLS))

    columns = {}
    for name, kind, lo, hi in SCHEMA:
        if kind == "cat":
            continue
        if kind == "bool":
            flag = (rng.random(n) < 0.15).astype(np.int64)
            columns[name] = np.repeat(flag, IMAGES)
            continue
        span = hi - lo
        if kind == "range" and lo < 0:  # head pose: mostly near frontal
            trait = rng.uniform(-45.0, 45.0, n)
        else:
            trait = rng.uniform(lo, hi, n)
        jitter = rng.normal(0.0, 0.03 * span, n_images)
        columns[name] = np.clip(np.repeat(trait, IMAGES) + jitter, lo, hi)

    blur = columns["blur"].reshape(n, IMAGES).mean(axis=1)
    shift = np.asarray(_CELL_SHIFT)[cell]
    gen_center = 0.55 + shift[:, 0] + rng.normal(0.0, 0.05, n) - 0.15 * blur
    imp_center = 0.05 + shift[:, 1] + rng.normal(0.0, 0.03, n)
    genuine = gen_center[:, None] + rng.normal(0.0, 0.12, (n, len(GENUINE_PAIRS)))
    impostor = imp_center[:, None] + rng.normal(0.0, 0.10, (n, IMPOSTORS))

    # Impostor pairs: a probe among the identity's own images and a
    # reference among every other identity's images, distinct per identity.
    probe = rng.integers(0, IMAGES, (n, _CANDIDATES))
    ref = rng.integers(0, n_images - IMAGES, (n, _CANDIDATES))
    ref += IMAGES * (ref >= IMAGES * np.arange(n)[:, None])
    keys = probe * n_images + ref
    order = np.argsort(keys, axis=1, kind="stable")
    ranked = np.take_along_axis(keys, order, axis=1)
    repeat_sorted = np.zeros_like(ranked, dtype=bool)
    repeat_sorted[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
    repeat = np.empty_like(repeat_sorted)
    np.put_along_axis(repeat, order, repeat_sorted, axis=1)
    keep = ~repeat & (np.cumsum(~repeat, axis=1) <= IMPOSTORS)
    if not (keep.sum(axis=1) == IMPOSTORS).all():
        raise RuntimeError(f"seed {seed}: too few distinct impostor draws")
    imp_probe = (IMAGES * np.arange(n)[:, None] + probe[keep].reshape(n, IMPOSTORS))
    imp_ref = ref[keep].reshape(n, IMPOSTORS)
    return cell, columns, np.clip(genuine, -1.0, 1.0), np.clip(impostor, -1.0, 1.0), imp_probe, imp_ref


def _image_ids(n: int) -> list[str]:
    return [f"i{i:05d}_{k:02d}" for i in range(n) for k in range(IMAGES)]


def _scores_text(n, ids, genuine, impostor, imp_probe, imp_ref) -> str:
    own = IMAGES * np.arange(n)[:, None]
    gen_probe = own + np.array([a for a, _ in GENUINE_PAIRS])
    gen_ref = own + np.array([b for _, b in GENUINE_PAIRS])
    probe = np.hstack([gen_probe, imp_probe]).ravel().tolist()
    ref = np.hstack([gen_ref, imp_ref]).ravel().tolist()
    score = np.hstack([genuine, impostor]).ravel().tolist()
    label = (["genuine"] * len(GENUINE_PAIRS) + ["impostor"] * IMPOSTORS) * n
    lines = ["probe_image_id,reference_image_id,label,score"]
    lines += [
        f"{ids[p]},{ids[r]},{lab},{s!r}" for p, r, lab, s in zip(probe, ref, label, score)
    ]
    return "\n".join(lines) + "\n"


def _attributes_text(cell, columns, ids) -> str:
    cells = [[CELLS[c][0] for c in cell], [CELLS[c][1] for c in cell]]
    cols = [ids, *(np.repeat(c, IMAGES).tolist() for c in cells)]
    for name, kind, _, _ in SCHEMA:
        if kind == "cat":
            continue
        values = columns[name].tolist()
        cols.append([str(v) for v in values] if kind == "bool" else [repr(v) for v in values])
    header = ",".join(["image_id", *(name for name, *_ in SCHEMA)])
    return "\n".join([header, *(",".join(row) for row in zip(*cols))]) + "\n"


def write_inputs(outdir: Path, identities: int, seed: int) -> dict[str, dict]:
    """Draw and write both files; the same arguments give the same bytes.

    Returns {file name: {"sha256", "bytes"}}."""
    if identities < 2 * len(CELLS) or identities % len(CELLS):
        raise ValueError(f"identities must be a multiple of {len(CELLS)}, at least {2 * len(CELLS)}")
    cell, columns, genuine, impostor, imp_probe, imp_ref = _draw(identities, seed)
    ids = _image_ids(identities)
    outdir.mkdir(parents=True, exist_ok=True)
    texts = {
        "scores.csv": _scores_text(identities, ids, genuine, impostor, imp_probe, imp_ref),
        "attributes.csv": _attributes_text(cell, columns, ids),
    }
    files = {}
    for name, text in texts.items():
        data = text.encode("ascii")
        (outdir / name).write_bytes(data)
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--identities", type=int, default=9600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    files = write_inputs(args.out, args.identities, args.seed)
    for name, info in sorted(files.items()):
        print(f"{name} sha256={info['sha256']} bytes={info['bytes']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Print the SHA-256 digest of every file a few fixed runs write, or
rewrite the golden bundles that tier-1 compares against.

    PYTHONPATH=src python3 scripts/bundle_digests.py > digests.txt
    PYTHONPATH=src python3 scripts/bundle_digests.py --update

The runs:

* ``run-all`` at the benchmark's runall-600 and runall-2400 configs
  (six gender x ethnicity cells, 4 images, dim 128, ``eer`` and
  ``far@0.01``, explain on), seeds 0-2;
* ``run-all`` at the README's every-key config;
* ``explain`` at ``eer``, ``far@0.01`` and ``far@0.001`` on the inputs
  ``bench/explain_inputs.py --identities 120 --seed 0`` writes, which do
  not depend on the program;
* ``calibrate`` at the same three policies on the same scores;
* ``explain --embeddings`` at ``eer`` and ``far@0.01`` on the
  embeddings, attributes and trials of the runall-600 seed-0 run;
* the same on a sparse ``run-all``: four cells of 30 identities, 8
  images, dim 32, seed 5, 1 genuine and 2 impostor pairs per identity,
  so that many embedded images are in no trial.  Its profiles aggregate
  the embedding file's images, and its digests show whether they still do;
* ``pairs``, then ``score``, on the runall-600 seed-0 embeddings: one
  unscored and one scored trial file;
* ``run-all`` at the runall-600 seed-0 config grouped by gender alone,
  300 identities a gender, so that every identity draws its ethnicity;
* ``run-all`` at the config of acceptance criterion 10.

Each run prints a line ``<run>  tree <digest>``, where the tree digest
is the SHA-256 of the run's sorted ``<sha256> <path>`` lines, followed
by those lines.  Output written by two checkouts of the program on one
machine differs exactly where their outputs do.

``GOLDEN_RUNS`` names the runs whose top-level ``*.json`` and
``tables/*.csv`` are committed under ``tests/golden/<run>/``;
``tests/test_golden.py`` regenerates them and compares.  ``--update``
rewrites those files from the program as it is: a change that moves
them is an announced change to the output.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

from faceaudit.cli import main as faceaudit

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CELLS = [f"{g},{e}" for g in ("man", "woman") for e in ("asian", "black", "caucasian")]
CRITERION_10 = {
    "synth": {"identities_per_group": {"man,asian": 14, "woman,asian": 14}, "dim": 24, "seed": 9},
    "audit": {"policies": ["eer", "far@0.01"]},
}


def _bench_config(identities: int, seed: int) -> dict:
    return {
        "synth": {
            "identities_per_group": {cell: identities // len(CELLS) for cell in CELLS},
            "images_per_identity": 4,
            "dim": 128,
            "seed": seed,
        },
        "audit": {"policies": ["eer", "far@0.01"], "explain": True},
    }


def _every_key_config() -> dict:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("A config that sets every key:") :]
    return json.loads(re.search(r"^```json\n(.*?)^```", section, flags=re.M | re.S).group(1))


def _run(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = faceaudit([str(arg) for arg in argv])
    if code != 0:
        raise SystemExit(f"faceaudit {' '.join(map(str, argv))} exited {code}")


def _run_all(config: dict, out: Path) -> None:
    path = out.with_suffix(".json")
    path.write_text(json.dumps(config), encoding="utf-8")
    _run(["run-all", "--config", path, "--out", out])


def _explain_inputs(out: Path) -> tuple[Path, list]:
    """Write the 120-identity seed-0 bench inputs beside ``out``; return
    their directory and the three ``--threshold-policy`` flags."""
    spec = importlib.util.spec_from_file_location("explain_inputs", ROOT / "bench" / "explain_inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    inputs.write_inputs(out.with_suffix(".inputs"), 120, 0)
    policies = []
    for policy in ("eer", "far@0.01", "far@0.001"):
        policies += ["--threshold-policy", policy]
    return out.with_suffix(".inputs"), policies


def _explain(out: Path) -> None:
    inputs, policies = _explain_inputs(out)
    argv = ["explain", "--scores", inputs / "scores.csv"]
    _run([*argv, "--attributes", inputs / "attributes.csv", "--out", out, *policies])


def _calibrate(out: Path) -> None:
    inputs, policies = _explain_inputs(out)
    out.mkdir(parents=True)
    argv = ["calibrate", "--scores", inputs / "scores.csv"]
    _run([*argv, "--out", out / "operating_points.json", *policies])


SPARSE = {
    "synth": {
        "identities_per_group": {cell: 30 for cell in CELLS if "caucasian" not in cell},
        "images_per_identity": 8,
        "dim": 32,
        "seed": 5,
    },
    "trials": {"positives_per_identity": 1, "negatives_per_identity": 2},
    "audit": {"policies": ["eer", "far@0.01"]},
}


def _explain_embeddings(config: dict, out: Path) -> None:
    source = out.with_suffix(".run-all")
    _run_all(config, source)
    argv = ["explain", "--embeddings", source / "data" / "embeddings.freb"]
    argv += ["--scores", source / "trials.csv", "--attributes", source / "data" / "attributes.csv"]
    _run([*argv, "--threshold-policy", "eer", "--threshold-policy", "far@0.01", "--out", out])


def _pairs_score(config: dict, out: Path) -> None:
    source = out.with_suffix(".run-all")
    _run_all(config, source)
    out.mkdir(parents=True)
    embeddings = source / "data" / "embeddings.freb"
    _run(["pairs", "--embeddings", embeddings, "--out", out / "pairs.csv"])
    _run(["score", "--embeddings", embeddings, "--pairs", out / "pairs.csv", "--out", out / "scores.csv"])


def _gender_only(seed: int) -> dict:
    config = _bench_config(600, seed)
    config["synth"].update(identities_per_group={"man": 300, "woman": 300}, group_attributes=["gender"])
    return config


GOLDEN_RUNS = {
    "criterion-10": lambda out: _run_all(CRITERION_10, out),
    "readme-every-key": lambda out: _run_all(_every_key_config(), out),
    "explain-120-seed0": _explain,
    "calibrate-120-seed0": _calibrate,
}


def golden_files(out: Path) -> list[Path]:
    """The files of a run's output that the golden corpus keeps."""
    return [*sorted(out.glob("*.json")), *sorted((out / "tables").glob("*.csv"))]


def _digests(out: Path) -> list[str]:
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()} {p.relative_to(out).as_posix()}" for p in files]


def _update(scratch: Path) -> None:
    for name, make in GOLDEN_RUNS.items():
        out = scratch / name
        make(out)
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        for path in golden_files(out):
            target = GOLDEN / name / path.relative_to(out)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)
            print(target.relative_to(ROOT).as_posix())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="rewrite tests/golden/ instead")
    args = parser.parse_args()
    runs = {
        f"runall-{n}-seed{seed}": lambda out, n=n, seed=seed: _run_all(_bench_config(n, seed), out)
        for n in (600, 2400)
        for seed in (0, 1, 2)
    }
    runs["explain-embeddings-600-seed0"] = lambda out: _explain_embeddings(_bench_config(600, 0), out)
    runs["explain-embeddings-sparse-seed5"] = lambda out: _explain_embeddings(SPARSE, out)
    runs["pairs-score-600-seed0"] = lambda out: _pairs_score(_bench_config(600, 0), out)
    runs["runall-600-gender-seed0"] = lambda out: _run_all(_gender_only(0), out)
    runs.update(GOLDEN_RUNS)
    with tempfile.TemporaryDirectory() as scratch:
        if args.update:
            _update(Path(scratch))
            return 0
        for name, make in runs.items():
            out = Path(scratch) / name
            make(out)
            lines = _digests(out)
            tree = hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
            print(f"{name}  tree {tree[:16]}")
            print("".join(f"  {line}\n" for line in lines), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

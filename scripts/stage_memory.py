"""Wall time and memory of each stage of one ``faceaudit explain`` run.

    PYTHONPATH=src python3 scripts/stage_memory.py [--identities 9600] [--seed 1]
        [--quote-ids] [--json]

Writes the explain-files inputs with ``bench/explain_inputs.py`` (run as
a child process) into a temporary directory; ``--quote-ids`` then quotes
every image id cell of both files, so the readers take their
``csv.reader`` path.  It then runs the stages ``explain`` runs on them
(``read_trials_csv``, ``trial_census``, ``read_attributes``,
``profiles_from_rows``, ``run_audit``, ``emit_bundle``) in its order, the
trial rows freed once the census is built, at the benchmark's 8
threshold policies, twice, each time in a fresh child process with one
BLAS thread:

* plain: each stage's wall time, and the process's ``VmHWM`` after it
  (from ``/proc/self/status``; elsewhere ``ru_maxrss``);
* traced: ``tracemalloc`` started after the imports, and each stage's
  traced peak and the traced size left when it returns.

Last come the stage with the highest traced peak and the first stage
after which ``VmHWM`` reads its final value, to 0.1 MB.  ``--json``
prints one JSON object instead of the table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POLICIES = ("eer", "far@0.1", "far@0.05", "far@0.02", "far@0.01", "far@0.005", "far@0.002", "far@0.001")
MB = 1 << 20


def _vmhwm_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    return maxrss / (MB if sys.platform == "darwin" else 1024)


def _quote_ids(path: Path, n_ids: int) -> None:
    """Quote the first ``n_ids`` cells of every row after the header."""
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(lines[0])
        for line in lines[1:]:
            cells = line.split(",", n_ids)
            fh.write(",".join([*(f'"{c}"' for c in cells[:n_ids]), cells[n_ids]]))


def _stages(inputs: Path, traced: bool) -> dict:
    """Run the explain stages on ``inputs``; ``VmHWM`` after the imports
    and the figures of each stage."""
    from faceaudit.cli import (
        AuditOptions,
        ImageTable,
        emit_bundle,
        profiles_from_rows,
        read_attributes,
        read_trials_csv,
        run_audit,
        trial_census,
    )
    from faceaudit.schema import default_schema

    schema = default_schema()
    options = AuditOptions(policies=POLICIES, group_by=("gender", "ethnicity"), explain=True)
    figures: dict[str, dict[str, float]] = {}
    start = _vmhwm_mb()
    if traced:
        tracemalloc.start()

    def stage(name, fn, *args):
        if traced:
            tracemalloc.reset_peak()
        began = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - began
        if traced:
            current, peak = tracemalloc.get_traced_memory()
            figures[name] = {"traced_peak_mb": peak / MB, "traced_current_mb": current / MB}
        else:
            figures[name] = {"wall_s": wall, "vmhwm_mb": _vmhwm_mb()}
        return result

    with tempfile.TemporaryDirectory() as out:
        trials, scores = stage("read_trials_csv", read_trials_csv, inputs / "scores.csv")
        census = stage("trial_census", trial_census, trials, scores)
        images = ImageTable(trials.image_ids, trials.identity_codes, trials.identities)
        del trials, scores  # as explain frees them
        table = stage("read_attributes", read_attributes, inputs / "attributes.csv", schema)
        profiles = stage("profiles_from_rows", profiles_from_rows, table, images, schema)
        del table, images
        results = stage("run_audit", run_audit, census, profiles, schema, options)
        stage("emit_bundle", emit_bundle, Path(out), results)
    return {"vmhwm_start_mb": start, "stages": figures}


def _child(inputs: Path, mode: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--inputs", str(inputs), "--mode", mode]
    done = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--identities", type=int, default=9600)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quote-ids", action="store_true", help="quote every image id cell")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)  # a child's inputs
    parser.add_argument("--mode", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.mode:
        print(json.dumps(_stages(args.inputs, args.mode == "traced")))
        return 0

    with tempfile.TemporaryDirectory() as work:
        inputs = Path(work)
        subprocess.run(
            [sys.executable, str(ROOT / "bench" / "explain_inputs.py"), "--identities",
             str(args.identities), "--seed", str(args.seed), "--out", str(inputs)],
            check=True, stdout=subprocess.DEVNULL,
        )
        if args.quote_ids:
            _quote_ids(inputs / "scores.csv", 2)
            _quote_ids(inputs / "attributes.csv", 1)
        plain, traced = _child(inputs, "plain"), _child(inputs, "traced")
    stages = {
        name: {**figures, **traced["stages"][name]} for name, figures in plain["stages"].items()
    }
    final = max(round(f["vmhwm_mb"], 1) for f in stages.values())
    peaks = {
        "traced": max(stages, key=lambda name: stages[name]["traced_peak_mb"]),
        "vmhwm": next(name for name, f in stages.items() if round(f["vmhwm_mb"], 1) == final),
    }
    if args.json:
        print(json.dumps({"vmhwm_start_mb": plain["vmhwm_start_mb"], "stages": stages, "peak": peaks}))
        return 0
    print(f"{'stage':<20} {'wall_s':>7} {'traced_peak_mb':>15} {'traced_current_mb':>18} {'vmhwm_mb':>9}")
    print(f"{'(imports)':<20} {'':>7} {'':>15} {'':>18} {plain['vmhwm_start_mb']:>9.1f}")
    for name, f in stages.items():
        print(
            f"{name:<20} {f['wall_s']:>7.3f} {f['traced_peak_mb']:>15.1f} "
            f"{f['traced_current_mb']:>18.1f} {f['vmhwm_mb']:>9.1f}"
        )
    print(f"traced peak in: {peaks['traced']}; VmHWM reached in: {peaks['vmhwm']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

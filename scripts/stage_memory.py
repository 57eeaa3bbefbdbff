"""Wall time and memory of each stage of one ``faceaudit explain`` run.

    PYTHONPATH=src python3 scripts/stage_memory.py [--identities 9600] [--seed 1]
        [--quote-ids] [--json]

Writes the explain-files inputs with ``bench/explain_inputs.py`` (run as
a child process) into a temporary directory; ``--quote-ids`` then quotes
every image id cell of both files, so the readers take their
``csv.reader`` path.  It then runs ``explain`` itself (``cli.main``) on
them at the benchmark's 8 threshold policies, twice, each time in a
fresh child process with one BLAS thread.  Each of ``STAGES`` is wrapped
under the name ``faceaudit.cli`` calls it by, so the stages are the
CLI's own, in its order:

* plain: each stage's wall time, and the process's ``VmHWM`` after it
  (from ``/proc/self/status``; elsewhere ``ru_maxrss``);
* traced: ``tracemalloc`` started after the imports, and each stage's
  traced peak and the traced size left when it returns.

``explain`` reads the attribute file in a forked child, the attribute
reader, where ``os.fork`` exists.  A stage run there writes its figures
to the run's temporary directory, since the child ends without
returning; its figures are that process's own, and it is labelled
``(reader)``.  Stages are listed in the order they started.

Last come the stage with the highest traced peak and the stage after
which ``VmHWM`` reads its final value.  ``VmHWM`` readings carry about
0.1 MB of slack, so when more than one stage reads within ``SLACK_MB``
of that value, all of them are listed.  ``--json``
prints one JSON object instead of the table.  A stage that ``explain``
never calls, or an ``explain`` that fails, exits 1 with one line that
names it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = (
    "read_trials_csv",
    "trial_census",
    "read_attributes",
    "profiles_from_rows",
    "run_audit",
    "emit_bundle",
)
POLICIES = ("eer", "far@0.1", "far@0.05", "far@0.02", "far@0.01", "far@0.005", "far@0.002", "far@0.001")
MB = 1 << 20
SLACK_MB = 0.2  # VmHWM readings this close to the final one may be that one


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
    """Run ``explain`` on ``inputs``; ``VmHWM`` after the imports and the
    figures of each stage."""
    from faceaudit import cli

    figures: dict[str, dict] = {}
    main_pid, work = os.getpid(), Path(tempfile.mkdtemp())

    def stage(name, fn):
        def timed(*args, **kwargs):
            if traced:
                tracemalloc.reset_peak()
            began = time.perf_counter()
            result = fn(*args, **kwargs)
            wall = time.perf_counter() - began
            if traced:
                current, peak = tracemalloc.get_traced_memory()
                figures[name] = {"traced_peak_mb": peak / MB, "traced_current_mb": current / MB}
            else:
                figures[name] = {"wall_s": wall, "vmhwm_mb": _vmhwm_mb()}
            figures[name] |= {"process": "main", "start": began}
            if os.getpid() != main_pid:  # the attribute reader: it never returns to explain
                figures[name]["process"] = "reader"
                (work / f"{name}.json").write_text(json.dumps(figures[name]), encoding="utf-8")
            return result

        return timed

    for name in STAGES:
        setattr(cli, name, stage(name, getattr(cli, name)))
    files = ["--scores", str(inputs / "scores.csv"), "--attributes", str(inputs / "attributes.csv")]
    policies = [f"--threshold-policy={policy}" for policy in POLICIES]
    start = _vmhwm_mb()
    if traced:
        tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["explain", *files, *policies, "--out", str(work / "out")])
        for path in work.glob("*.json"):
            figures[path.stem] = json.loads(path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work)
    if code:
        sys.exit(f"stage_memory: explain exited with {code}")
    for name in STAGES:
        if name not in figures:
            sys.exit(f"stage_memory: explain never called the stage {name}")
    order = sorted(figures, key=lambda name: figures[name].pop("start"))
    return {"vmhwm_start_mb": start, "stages": {name: figures[name] for name in order}}


def _child(inputs: Path, mode: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--inputs", str(inputs), "--mode", mode]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(done.stderr.strip() or f"stage_memory: {mode} run exited with {done.returncode}")
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
    final = max(f["vmhwm_mb"] for f in stages.values())
    peaks = {
        "traced": max(stages, key=lambda name: stages[name]["traced_peak_mb"]),
        "vmhwm": [name for name, f in stages.items() if final - f["vmhwm_mb"] < SLACK_MB],
    }
    if args.json:
        print(json.dumps({"vmhwm_start_mb": plain["vmhwm_start_mb"], "stages": stages, "peak": peaks}))
        return 0
    label = {name: name + " (reader)" * (f["process"] == "reader") for name, f in stages.items()}
    print(f"{'stage':<26} {'wall_s':>7} {'traced_peak_mb':>15} {'traced_current_mb':>18} {'vmhwm_mb':>9}")
    print(f"{'(imports)':<26} {'':>7} {'':>15} {'':>18} {plain['vmhwm_start_mb']:>9.1f}")
    for name, f in stages.items():
        print(
            f"{label[name]:<26} {f['wall_s']:>7.3f} {f['traced_peak_mb']:>15.1f} "
            f"{f['traced_current_mb']:>18.1f} {f['vmhwm_mb']:>9.1f}"
        )
    near = [label[name] for name in peaks["vmhwm"]]
    reached = near[0] if len(near) == 1 else f"one of {', '.join(near)} (within {SLACK_MB} MB)"
    print(f"traced peak in: {label[peaks['traced']]}; VmHWM reached in: {reached}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

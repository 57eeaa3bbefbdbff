"""End-to-end benchmark of the faceaudit command line.

    python3 bench/run_bench.py --workload runall-2400 --seed 0 --seconds 35 --trace 0
    python3 bench/run_bench.py --workload all      # every workload, one summary

Run it from the repository root; the program is used from ``src/`` as it
is, with nothing installed.  Scratch files go to ``.bench_work/``.

With ``--trace 0`` every timed iteration starts one ``python -m faceaudit``
child (one at a time, closed loop).  The run reports the lowest wall time
and the lowest own user+sys CPU time of its children, their median own
peak RSS (all from ``os.wait4``), and the median set-up time:
byte-compiling the program and building the workload's inputs.  Each
child does the same deterministic work, so its times vary only with the
machine; on shared hosts whose speed swings by 1.5-1.9x for minutes at a
time, the minimum is far steadier from run to run than the median.
With ``--trace 1`` the run alternates untraced children with children
run under ``traced_cli.py`` and reports per-layer self times and work
counts, the time a child needs to import ``faceaudit.cli``, and the
tracing overhead.  Every child, traced or not, is checked by the same
output oracle; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import traced_cli

BENCH_DIR = Path(__file__).resolve().parent
# Set in every child: with two BLAS threads, fresh processes were seen to
# stall for ~270 ms in the explain regression.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
GENUINE_PER_IDENTITY = 6
IMPOSTORS_PER_IDENTITY = 50
SETUP_REPEATS = 3
STARTUP_PROBES = 5
RUN_SLACK_S = 140  # a run ends within --seconds plus this, children killed if need be


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run-all" or "explain"
    identities: int
    policies: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # The full write path: synth, pairs, score, CSV write, audit, bundle.
        Workload("runall-2400", "run-all", 2400, ("eer", "far@0.01")),
        # The README read path from files: trial CSV read, attribute read,
        # metrics and explain at 8 operating points; no synth or pairing.
        Workload(
            "explain-files-9600",
            "explain",
            9600,
            ("eer", "far@0.1", "far@0.05", "far@0.02", "far@0.01", "far@0.005", "far@0.002", "far@0.001"),
        ),
        # run-all at a quarter of the size: fixed per-process cost weighs
        # more, and with runall-2400 it shows how each layer grows.
        Workload("runall-600", "run-all", 600, ("eer", "far@0.01")),
    )
}

CELLS = [f"{g},{e}" for g in ("man", "woman") for e in ("asian", "black", "caucasian")]

# Layers whose self time is reported, as ``<layer>_s``.
LAYERS = (
    "synth.generate",
    "synth.write",
    "cohort.load",
    "cohort.profiles",
    "cohort.read_attributes",
    "trials.generate",
    "trials.score",
    "trials.write_csv",
    "trials.read_csv",
    "pipeline.profiles_from_rows",
    "pipeline.run_audit",
    "calibration.calibrate",
    "metrics.individual_rates",
    "metrics.group_rates",
    "metrics.deltas",
    "metrics.kruskal_pairwise",
    "explain.explanatory_report",
    "report.emit_bundle",
)
# Counts recorded by traced_cli: count name -> the layer whose calls it counts.
COUNT_LAYERS = {
    "synth.images": "synth.generate",
    "trials.pairs": "trials.generate",
    "trials.csv_bytes": "trials.write_csv",
    "report.files": "report.emit_bundle",
    "report.bytes": "report.emit_bundle",
}


@dataclass
class Prepared:
    """A workload's inputs, ready for timed invocations."""

    argv: list[str]  # arguments after ``python -m faceaudit``
    out: Path  # the bundle directory the command writes
    inputs: dict[str, dict]  # input file name -> {"sha256", "bytes"}
    input_scores: Path | None = None  # the scored pairs the command reads, if any
    scores: tuple[list, list] | None = None  # input_scores parsed once, for the oracle


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Tally:
    """Invocations attempted and failed in one run, with the first
    report's digest that every later one must reproduce."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    report_sha256: str | None = None


# --- inputs -----------------------------------------------------------------


def _digest(path: Path) -> dict:
    sha, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
            size += len(chunk)
    return {"sha256": sha.hexdigest(), "bytes": size}


def prepare(workload: Workload, seed: int, work: Path, env: dict, deadline: float) -> Prepared:
    """Build the workload's inputs under ``work`` from the seed alone.

    The explain inputs are written by a child process, so that this
    process stays small: a child's max RSS as ``os.wait4`` reports it
    also counts the peak of the process that spawned it."""
    out = work / "out"
    if workload.command == "run-all":
        config = {
            "synth": {
                "identities_per_group": {c: workload.identities // len(CELLS) for c in CELLS},
                "images_per_identity": 4,
                "dim": 128,
                "seed": seed,
            },
            "audit": {"policies": list(workload.policies), "explain": True},
        }
        path = work / "config.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        argv = ["run-all", "--config", str(path), "--out", str(out)]
        return Prepared(argv=argv, out=out, inputs={path.name: _digest(path)})

    inputs = work / "inputs"
    made = spawn(
        [str(BENCH_DIR / "explain_inputs.py"), "--identities", str(workload.identities),
         "--seed", str(seed), "--out", str(inputs)],
        env, work / "inputs.log", deadline,
    )
    if made.code != 0:
        raise RuntimeError(f"explain_inputs.py exited {made.code}; see {work / 'inputs.log'}")
    scores, attributes = inputs / "scores.csv", inputs / "attributes.csv"
    argv = ["explain", "--scores", str(scores), "--attributes", str(attributes)]
    argv += ["--group-by", "gender,ethnicity", "--out", str(out)]
    for policy in workload.policies:
        argv += ["--threshold-policy", policy]
    digests = {path.name: _digest(path) for path in (scores, attributes)}
    return Prepared(argv=argv, out=out, inputs=digests, input_scores=scores)


def timed_setup(workload, seed, work, root, env, deadline, tally) -> tuple[Prepared, float]:
    """Set up several times; return the last inputs and the median time.

    One set-up byte-compiles the program from source, as a fresh
    checkout's first command would, and builds the workload's inputs.
    Every repeat must write the same input bytes."""
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        compiled = spawn(["-m", "compileall", "-f", "-q", str(root / "src")], env, work / "compile.log", deadline)
        prepared = prepare(workload, seed, work, env, deadline)
        times.append(time.perf_counter() - start)
        digests.append(prepared.inputs)
        tally.attempted += 1
        if compiled.code != 0:
            tally.failures.append(f"compileall exited {compiled.code}")
    if any(d != digests[0] for d in digests):
        raise RuntimeError(f"{workload.name}: inputs differ between set-ups with one seed")
    return prepared, statistics.median(times)


# --- children ---------------------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(args: list[str], env: dict, log: Path, deadline: float) -> Child:
    """Run ``python ARGS`` to completion and account for that child alone.

    The child is killed if it is still running at ``deadline``
    (``time.monotonic``)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Child(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


# --- oracle -----------------------------------------------------------------


def _sorted_scores(path: Path) -> tuple[list, list]:
    """Genuine and impostor scores of a scored pairs CSV, each sorted."""
    genuine, impostor = [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, _, label, score = line.rstrip("\n").split(",")
            (genuine if label == "genuine" else impostor).append(float(score))
    genuine.sort()
    impostor.sort()
    return genuine, impostor


def check_output(workload: Workload, prepared: Prepared, code: int) -> tuple[str | None, str | None]:
    """Return (failure reason or None, SHA-256 of report.json)."""
    if code != 0:
        return f"exit code {code}", None
    try:
        data = (prepared.out / "report.json").read_bytes()
        report = json.loads(data)
        if prepared.input_scores is None:
            genuine, impostor = _sorted_scores(prepared.out / "trials.csv")
        else:
            prepared.scores = prepared.scores or _sorted_scores(prepared.input_scores)
            genuine, impostor = prepared.scores
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}", None
    sha = hashlib.sha256(data).hexdigest()
    n = workload.identities
    expected = {
        "n_identities": n,
        "n_genuine_pairs": GENUINE_PER_IDENTITY * n,
        "n_impostor_pairs": IMPOSTORS_PER_IDENTITY * n,
    }
    if report.get("census") != expected:
        return f"census {report.get('census')} != {expected}", sha
    if (len(genuine), len(impostor)) != (expected["n_genuine_pairs"], expected["n_impostor_pairs"]):
        return f"scored pairs {len(genuine)}+{len(impostor)} do not match the census", sha
    try:
        points = [
            (op["policy"], float(op["tau"]), op["far"], op["frr"])
            for op in (a["operating_point"] for a in report["analyses"])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report.json: {exc!r}", sha
    if tuple(p[0] for p in points) != workload.policies:
        return f"policies {[p[0] for p in points]} != {list(workload.policies)}", sha
    for policy, tau, far_reported, frr_reported in points:
        # A pair is accepted when its score is strictly greater than tau.
        far = (len(impostor) - bisect.bisect_right(impostor, tau)) / len(impostor)
        frr = bisect.bisect_right(genuine, tau) / len(genuine)
        if (far, frr) != (far_reported, frr_reported):
            return (
                f"{policy}: recount at tau={tau!r} gives far={far} frr={frr}, "
                f"report says far={far_reported} frr={frr_reported}"
            ), sha
    return None, sha


def invoke(args, prepared, workload, env, log, deadline, tally: Tally) -> tuple[Child, bool]:
    """One checked child: clear the bundle, run, then apply the oracle.

    Returns the child and whether it passed."""
    shutil.rmtree(prepared.out, ignore_errors=True)
    child = spawn(args, env, log, deadline)
    reason, sha = check_output(workload, prepared, child.code)
    if reason is None and tally.report_sha256 not in (None, sha):
        reason = f"report.json digest {sha} differs from this run's first {tally.report_sha256}"
    tally.report_sha256 = tally.report_sha256 or sha
    tally.attempted += 1
    if reason is not None:
        tally.failures.append(reason)
        print(f"{workload.name}: check failed: {reason} (log: {log})", file=sys.stderr)
    return child, reason is None


def closed_loop(seconds: float, deadline: float, step) -> None:
    """Call ``step`` until the next call would end after ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        ends_at = time.perf_counter() - start + statistics.median(durations)
        if ends_at > seconds or time.monotonic() + durations[-1] > deadline:
            return


# --- traced layers ----------------------------------------------------------


def _covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(doc: dict, traced_wall_s: float) -> dict[str, float | None]:
    """Per-layer values of one traced child; None marks an absent layer.

    A layer is absent when none of its entry points exist.  Self time is
    a span's duration minus what its child spans cover."""
    spans = doc["spans"]
    present = {
        layer for name, layer in traced_cli.ENTRY_POINTS.items() if name not in doc["missing"]
    }
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    self_ns = dict.fromkeys(present, 0)
    calls = dict.fromkeys(present, 0)
    for s in spans:
        inner = _covered_ns(children.get(s["id"], ()))
        self_ns[s["layer"]] += s["end_ns"] - s["start_ns"] - inner
        calls[s["layer"]] += 1

    values: dict[str, float | None] = {
        f"{layer}_s": self_ns[layer] / 1e9 if layer in present else None for layer in LAYERS
    }
    for key, layer in COUNT_LAYERS.items():
        if layer not in present or (calls[layer] and key not in doc["counts"]):
            values[key] = None
        else:
            values[key] = doc["counts"].get(key, 0)
    for name, key in traced_cli.COUNTED.items():
        values[key] = None if name in doc["missing"] else doc["counts"].get(key, 0)
    values["calibration.calls"] = calls.get("calibration.calibrate")
    pairs, generate_s = values["trials.pairs"], values["trials.generate_s"]
    values["trials.generate_us_per_pair"] = (
        None if pairs is None or generate_s is None else (generate_s / pairs * 1e6 if pairs else 0.0)
    )
    roots = [(s["start_ns"], s["end_ns"]) for s in spans if s["parent"] is None]
    values["other_s"] = traced_wall_s - _covered_ns(roots) / 1e9
    return values


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us_per_pair", "us"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


# --- runs -------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, root: Path) -> tuple[dict, Tally, Prepared]:
    """Untraced run: end-to-end metrics."""
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    work = root / ".bench_work" / workload.name
    env, tally, children = child_env(root), Tally(), []
    prepared, setup_s = timed_setup(workload, seed, work, root, env, deadline, tally)
    args = ["-m", "faceaudit", *prepared.argv]
    closed_loop(
        seconds,
        deadline,
        lambda: children.append(
            invoke(args, prepared, workload, env, work / "child.log", deadline, tally)[0]
        ),
    )
    own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if min(c.peak_rss_mb for c in children) <= own_peak_mb:
        print(f"{workload.name}: peak_rss_mb may be this process's own peak ({own_peak_mb:.1f} MB)", file=sys.stderr)
    metrics = {
        "wall_s": (min(c.wall_s for c in children), "s"),
        "cpu_s": (min(c.cpu_s for c in children), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in children), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, tally, prepared


def trace(workload: Workload, seed: int, seconds: float, root: Path) -> tuple[dict, Tally, Prepared]:
    """Traced run: per-layer metrics, startup time and tracing overhead."""
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env, tally = child_env(root), Tally()
    prepared = prepare(workload, seed, work, env, deadline)

    startup = []
    for _ in range(STARTUP_PROBES):
        probe = spawn(["-c", "import faceaudit.cli"], env, work / "startup.log", deadline)
        tally.attempted += 1
        if probe.code != 0:
            tally.failures.append(f"import faceaudit.cli exited {probe.code}")
        startup.append(probe.wall_s)

    overheads, layer_runs = [], []
    spans_path = work / "spans.json"
    plain_args = ["-m", "faceaudit", *prepared.argv]
    traced_args = [str(BENCH_DIR / "traced_cli.py"), str(spans_path), *prepared.argv]

    def pair():
        plain, _ = invoke(plain_args, prepared, workload, env, work / "child.log", deadline, tally)
        spans_path.unlink(missing_ok=True)
        traced, passed = invoke(traced_args, prepared, workload, env, work / "traced.log", deadline, tally)
        overheads.append(traced.wall_s - plain.wall_s)
        if spans_path.exists():
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            layer_runs.append(layer_metrics(doc, traced.wall_s))
        elif passed:
            tally.failures.append("traced run wrote no spans")

    closed_loop(seconds, deadline, pair)
    metrics: dict[str, tuple] = {"cli.startup_s": (statistics.median(startup), "s")}
    for name in layer_runs[0] if layer_runs else ():
        samples = [run[name] for run in layer_runs]
        value = None if None in samples else statistics.median(samples)
        metrics[name] = (value, unit_of(name))
    # Paired differences cancel drift in machine speed between pairs.
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics, tally, prepared


# --- reporting --------------------------------------------------------------


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


_NUMPY_PROBE = (
    "import json, numpy; "
    "print(json.dumps({'numpy': numpy.__version__, "
    "'blas': numpy.show_config(mode='dicts')['Build Dependencies']['blas']}))"
)


def environment(root: Path) -> dict:
    """Interpreter, numpy/BLAS as the children see them, CPUs and commit."""
    work = root / ".bench_work"
    work.mkdir(parents=True, exist_ok=True)
    log = work / "numpy.log"
    probe = spawn(["-c", _NUMPY_PROBE], child_env(root), log, time.monotonic() + 60)
    numpy_info = json.loads(log.read_text(encoding="utf-8")) if probe.code == 0 else "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy_info,
        "child_env": dict(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(root),
    }


def result_json(metrics: dict, tallies: list[Tally]) -> str:
    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failures) for t in tallies)
    out = {}
    for name, (value, unit) in metrics.items():
        out[name] = {"value": value, "unit": unit} if value is not None else {
            "value": 0.0,
            "unit": unit,
            "absent": True,
        }
    return json.dumps(
        {"correct": attempted >= 1 and failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    )


def describe(workload: Workload, metrics: dict, tally: Tally) -> str:
    cells = []
    for name, (value, unit) in metrics.items():
        cells.append(f"{name} absent" if value is None else f"{name} {value:.6g} {unit}")
    failed = len(tally.failures)
    cells.append(f"failed_ratio {failed / max(tally.attempted, 1):.6g} ratio ({failed}/{tally.attempted})")
    return f"{workload.name}: " + "  ".join(cells)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so that the running
    # child is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "faceaudit" / "cli.py").is_file():
        print(f"bench: no faceaudit sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2

    env_info = environment(root)
    print("environment: " + json.dumps(env_info, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = trace if args.trace else measure
    combined, tallies = {}, []
    for name in names:
        workload = WORKLOADS[name]
        metrics, tally, prepared = run(workload, args.seed, args.seconds, root)
        for file_name, info in sorted(prepared.inputs.items()):
            print(f"{name}: input {file_name} sha256={info['sha256']} bytes={info['bytes']}")
        print(describe(workload, metrics, tally))
        tallies.append(tally)
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(result_json(combined, tallies))
    return 0


if __name__ == "__main__":
    sys.exit(main())

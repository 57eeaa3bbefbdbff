"""Run ``python -m faceaudit ARGS`` with spans around each layer's entry points.

    python3 bench/traced_cli.py SPANS_JSON ARGS...

The spans are recorded from outside the package: each entry point is
replaced, under the name its calling module uses, by a wrapper that
records (name, layer, start, end, parent span id).  Spans stay in memory
and are written to SPANS_JSON when the command returns.  The process
exits with the command's exit code.

``ENTRY_POINTS`` maps each wrapped name to its layer; ``COUNTED`` names
calls that are only counted, because a span around every one of them
would cost more than the call.  A name the package no longer has is
listed under ``missing`` instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import runpy
import sys
import threading
import time

ENTRY_POINTS = {
    "faceaudit.cli.generate": "synth.generate",
    "faceaudit.cli.write_synth": "synth.write",
    "faceaudit.cli.load_cohort": "cohort.load",
    "faceaudit.cli.aggregate_profiles": "cohort.profiles",
    "faceaudit.pipeline.aggregate_profiles": "cohort.profiles",
    "faceaudit.cli.read_attributes": "cohort.read_attributes",
    "faceaudit.cli.generate_trials": "trials.generate",
    "faceaudit.cli.score_parallel": "trials.score",
    "faceaudit.cli.score_trials": "trials.score",
    "faceaudit.pipeline.score_trials": "trials.score",
    "faceaudit.cli.write_trials_csv": "trials.write_csv",
    "faceaudit.cli.read_trials_csv": "trials.read_csv",
    "faceaudit.cli.profiles_from_rows": "pipeline.profiles_from_rows",
    "faceaudit.cli.run_audit": "pipeline.run_audit",
    "faceaudit.cli.audit_cohort": "pipeline.run_audit",
    "faceaudit.pipeline.run_audit": "pipeline.run_audit",
    "faceaudit.cli.calibrate": "calibration.calibrate",
    "faceaudit.pipeline.calibrate": "calibration.calibrate",
    "faceaudit.pipeline.individual_rates": "metrics.individual_rates",
    "faceaudit.pipeline.group_rates": "metrics.group_rates",
    "faceaudit.pipeline.extreme_delta": "metrics.deltas",
    "faceaudit.pipeline.one_axis_deltas": "metrics.deltas",
    "faceaudit.pipeline.kruskal_pairwise": "metrics.kruskal_pairwise",
    "faceaudit.pipeline.explanatory_report": "explain.explanatory_report",
    "faceaudit.cli.emit_bundle": "report.emit_bundle",
}

COUNTED = {
    "faceaudit.metrics.kruskal_wallis": "stats.kruskal_tests",
    "faceaudit.explain.fit_ols": "stats.ols_fits",
    "faceaudit.explain.pearson": "stats.pearson_calls",
}


def _bundle_files(written) -> list:
    return [written["report"], *written["tables"], *written["figures"]]


# Work counts read from a call's arguments and result: layer -> ((count
# name, function of (args, result)), ...).
ITEM_COUNTS = {
    "synth.generate": (("synth.images", lambda args, res: len(res.records)),),
    "trials.generate": (("trials.pairs", lambda args, res: len(res.pairs)),),
    "trials.write_csv": (("trials.csv_bytes", lambda args, res: os.path.getsize(args[0])),),
    "report.emit_bundle": (
        ("report.files", lambda args, res: len(_bundle_files(res))),
        ("report.bytes", lambda args, res: sum(map(os.path.getsize, _bundle_files(res)))),
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, layer: str, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "parent": stack[-1] if stack else None,
                "name": name,
                "layer": layer,
                "start_ns": time.perf_counter_ns(),
                "end_ns": None,
            }
            self.spans.append(record)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end_ns"] = time.perf_counter_ns()
                stack.pop()
            for key, count in ITEM_COUNTS.get(layer, ()):
                try:
                    self.counts[key] = self.counts.get(key, 0) + int(count(args, result))
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    pass  # the result no longer carries the count; it reads as absent
            return result

        return wrapper

    def counter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, layer in ENTRY_POINTS.items():
            self._replace(name, lambda fn: self.span(name, layer, fn))
        for name, key in COUNTED.items():
            self._replace(name, lambda fn: self.counter(key, fn))

    def _replace(self, name: str, wrap) -> None:
        module_name, attr = name.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        setattr(module, attr, wrap(original))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    sys.argv = ["faceaudit", *cli_args]
    start = time.perf_counter_ns()
    try:
        runpy.run_module("faceaudit", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    end = time.perf_counter_ns()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "command_ns": [start, end],
                "spans": tracer.spans,
                "counts": tracer.counts,
                "missing": tracer.missing,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

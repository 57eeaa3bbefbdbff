"""The benchmark's traced entry points still exist in the package.

``bench/traced_cli.py`` wraps functions by the names their calling
modules use; a name that no longer resolves turns its layer into an
absent metric, so a refactor must keep every one of them.  Its work
counts read attributes of the wrapped calls' results, so those must
keep reading too.
"""

import importlib
import importlib.util
from numbers import Integral
from pathlib import Path

import pytest
from conftest import small_config

from faceaudit.metrics import trial_census
from faceaudit.pipeline import AuditOptions, run_audit
from faceaudit.report import emit_bundle
from faceaudit.schema import default_schema
from faceaudit.synth import generate
from faceaudit.trials import TrialPolicy, generate_trials, score_trials, write_trials_csv

_TRACED_CLI = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"

# Names the harness lists for older versions of the package.
_GONE = {
    "faceaudit.cli.score_parallel",
    "faceaudit.pipeline.score_trials",
    "faceaudit.cli.audit_cohort",
    "faceaudit.cli.aggregate_profiles",
}


def _traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", _TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    module = _traced_cli()
    return sorted({*module.ENTRY_POINTS, *module.COUNTED} - _GONE)


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module_name, attr = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_gone_names_stay_gone():
    # if one of these comes back, it belongs among the checked names
    for name in _GONE:
        module_name, attr = name.rsplit(".", 1)
        assert not hasattr(importlib.import_module(module_name), attr)


def test_item_counts_read_real_results(tmp_path):
    # (args, result) of one real call per counted layer, as run-all makes them
    schema = default_schema()
    config = small_config(n=3)
    result = generate(config, schema)
    cohort = result.records
    trials = generate_trials(cohort, TrialPolicy(negatives_per_identity=5), 0)
    scores = score_trials(cohort, trials)
    path = tmp_path / "trials.csv"
    write_trials_csv(path, trials, scores)
    audit = run_audit(trial_census(trials, scores), result.profiles, schema, AuditOptions(), 0)
    calls = {
        "synth.generate": ((config, schema), result),
        "trials.generate": ((cohort, TrialPolicy(negatives_per_identity=5), 0), trials),
        "trials.write_csv": ((path, trials, scores), None),
        "report.emit_bundle": ((tmp_path / "out", audit), emit_bundle(tmp_path / "out", audit)),
    }
    item_counts = _traced_cli().ITEM_COUNTS
    assert set(item_counts) == set(calls)
    counts = {}
    for layer, items in item_counts.items():
        for name, count in items:
            counts[name] = count(*calls[layer])
            assert isinstance(counts[name], Integral) and counts[name] > 0, name
    assert counts["synth.images"] == len(result.attributes.image_ids) == 2 * 3 * 4
    assert counts["trials.pairs"] == len(trials.pairs)
    assert counts["trials.csv_bytes"] == path.stat().st_size

"""The bundles of a few fixed runs match the committed golden files.

``scripts/bundle_digests.py`` defines the runs (``GOLDEN_RUNS``) and
``--update`` rewrites ``tests/golden/``.  Each run is regenerated here
through ``cli.main`` and compared: each JSON file (``report.json``, or
the operating points ``calibrate`` writes) by structure, with keys,
strings, ints, booleans and nulls exact and floats to a relative 1e-12,
and the tables as text.  A difference fails naming its JSON path.

The tolerance does not make the comparison machine-independent.
numpy's SIMD dispatch moves no bytes, but OpenBLAS picks its kernels
by CPU, and under the Haswell, Zen or Sandybridge kernels two of these
tests fail: ROADMAP item 15 has the measurements and the fix.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_GOLDEN = _ROOT / "tests" / "golden"


def _bundle_digests():
    spec = importlib.util.spec_from_file_location(
        "bundle_digests", _ROOT / "scripts" / "bundle_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_RUNS = _bundle_digests()


def first_difference(got, want, path="report.json"):
    """The first place where ``got`` departs from ``want``, or None."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            return None
        return f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{path}: {json.dumps(got)} != {json.dumps(want)}"
    if isinstance(want, dict):
        if extra := sorted(got.keys() - want.keys()):
            return f"{path}.{extra[0]}: unexpected key"
        if missing := sorted(want.keys() - got.keys()):
            return f"{path}.{missing[0]}: missing"
        for key in sorted(want):
            if found := first_difference(got[key], want[key], f"{path}.{key}"):
                return found
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            if found := first_difference(a, b, f"{path}[{i}]"):
                return found
        return None
    return None if got == want else f"{path}: {json.dumps(got)} != {json.dumps(want)}"


def _golden_report(name):
    return json.loads((_GOLDEN / name / "report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_RUNS.GOLDEN_RUNS))
def test_bundle_matches_golden(tmp_path, name):
    out = tmp_path / name
    _RUNS.GOLDEN_RUNS[name](out)
    files = [p.relative_to(out).as_posix() for p in _RUNS.golden_files(out)]
    golden = _GOLDEN / name
    assert sorted(files) == sorted(
        p.relative_to(golden).as_posix() for p in golden.rglob("*") if p.is_file()
    )
    for file in files:
        text = (out / file).read_text(encoding="utf-8")
        want = (golden / file).read_text(encoding="utf-8")
        if file.endswith(".json"):
            difference = first_difference(json.loads(text), json.loads(want), file)
            assert difference is None, difference
        else:
            assert text == want, file


def _add_key(report):
    report["analyses"][0]["extra"] = 1


def _move_tau(report):
    report["analyses"][1]["operating_point"]["tau"] += 1e-9


def _swap_groups(report):
    groups = report["analyses"][0]["groups"]
    groups[0], groups[1] = groups[1], groups[0]


@pytest.mark.parametrize(
    "mutate, path",
    [
        (_add_key, "report.json.analyses[0].extra: unexpected key"),
        (_move_tau, "report.json.analyses[1].operating_point.tau: "),
        (_swap_groups, "report.json.analyses[0].groups[0]."),
    ],
)
def test_difference_names_its_path(mutate, path):
    want = _golden_report("criterion-10")
    got = _golden_report("criterion-10")
    assert first_difference(got, want) is None
    mutate(got)
    assert first_difference(got, want).startswith(path)

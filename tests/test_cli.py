"""Tests for the command-line interface: exit codes, pipelines, determinism."""

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from faceaudit.cli import main
from faceaudit.cohort import EmbeddingTable, load_embeddings, write_embeddings_binary
from faceaudit.trials import read_trials_csv


def _walk_bytes(root):
    """Relative path -> content for every file under root."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """One synthetic cohort taken through synth, pairs, and score."""
    root = tmp_path_factory.mktemp("cli")
    config = {
        "identities_per_group": {"man,asian": 14, "woman,asian": 14},
        "dim": 24,
        "seed": 3,
    }
    config_path = root / "synth.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    data = root / "data"
    assert main(["synth", "--config", str(config_path), "--out", str(data)]) == 0

    pairs = root / "pairs.csv"
    rc = main(
        ["pairs", "--embeddings", str(data / "embeddings.freb"), "--seed", "3", "--out", str(pairs)]
    )
    assert rc == 0

    scored = root / "scored.csv"
    rc = main(
        [
            "score",
            "--embeddings",
            str(data / "embeddings.freb"),
            "--pairs",
            str(pairs),
            "--out",
            str(scored),
        ]
    )
    assert rc == 0
    return {
        "root": root,
        "config": config_path,
        "embeddings": data / "embeddings.freb",
        "attributes": data / "attributes.csv",
        "schema": data / "schema.json",
        "pairs": pairs,
        "scored": scored,
    }


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["defragment"])
        assert exc.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])  # --config is required
        assert exc.value.code == 1

    def test_bad_policy_string(self):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--scores", "x.csv", "--threshold-policy", "frr@0.1"])
        assert exc.value.code == 1

    def test_negative_seed(self):
        with pytest.raises(SystemExit) as exc:
            main(["pairs", "--embeddings", "x.freb", "--seed", "-1"])
        assert exc.value.code == 1

    def test_missing_out_is_usage_error(self, workspace, capsys):
        rc = main(["pairs", "--embeddings", str(workspace["embeddings"])])
        assert rc == 1
        assert "--out" in capsys.readouterr().err

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestDataErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(
            ["synth", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_malformed_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad.json" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"identities_per_group": {"man,asian": 4}, "palette": "warm"}),
            encoding="utf-8",
        )
        rc = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unattainable_impostor_count(self, tmp_path, capsys):
        config = tmp_path / "tiny.json"
        config.write_text(
            json.dumps({"identities_per_group": {"man,asian": 3}, "dim": 16}),
            encoding="utf-8",
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        rc = main(
            [
                "pairs",
                "--embeddings",
                str(data / "embeddings.freb"),
                "--out",
                str(tmp_path / "pairs.csv"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "no embedding records"),  # no magic bytes: read as an empty text file
            (b"FREB", "truncated or corrupt embedding file"),
            (b"FREB\x01", "truncated or corrupt embedding file"),
        ],
        ids=["0-bytes", "4-bytes", "5-bytes"],
    )
    def test_short_embedding_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "short.freb"
        path.write_bytes(content)
        out = tmp_path / "pairs.csv"
        rc = main(["pairs", "--embeddings", str(path), "--out", str(out)])
        err = capsys.readouterr().err.strip()
        assert rc == 2
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_audit_rejects_unscored_pairs(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "audit",
                "--scores",
                str(workspace["pairs"]),  # unscored file
                "--attributes",
                str(workspace["attributes"]),
                "--out",
                str(tmp_path / "audit"),
            ]
        )
        assert rc == 2
        assert "score" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("who,with,what,how\n", "header"),
            ("probe_image_id,reference_image_id,label,score\na_0,a_1,genuine\n", "4 cells"),
            ("probe_image_id,reference_image_id,label,score\na_0,b_0,maybe,0.5\n", "label"),
            ("probe_image_id,reference_image_id,label,score\na_0,b_0,impostor,high\n", "score"),
            # float() would read 0_5 as 5.0
            (
                "probe_image_id,reference_image_id,label,score\n"
                "a_0,a_1,genuine,0.9\na_0,b_0,impostor,0_5\n",
                ":3: bad score '0_5'",
            ),
            (
                "probe_image_id,reference_image_id,label,score\n"
                "a_0,a_1,genuine,0.9\na_1,a_1,genuine,1.0\na_0,b_0,impostor,0.1\n",
                "cannot reuse image 'a_1'",
            ),
        ],
        ids=["header", "short-row", "label", "score", "score-underscore", "genuine-same-image"],
    )
    def test_malformed_trial_csv_one_line(self, tmp_path, capsys, body, reason):
        path = tmp_path / "scores.csv"
        path.write_text(body, encoding="utf-8")
        assert main(["calibrate", "--scores", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("faceaudit calibrate:")
        assert reason in err

    def test_unknown_group_by_attribute(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "audit",
                "--scores",
                str(workspace["scored"]),
                "--attributes",
                str(workspace["attributes"]),
                "--group-by",
                "nosuch",
                "--out",
                str(tmp_path / "audit"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'nosuch'" in err

    @pytest.mark.parametrize("key, value", [("policies", "eer"), ("group_by", "gender")])
    def test_run_all_bare_string_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "synth": {"identities_per_group": {"man,asian": 4, "woman,asian": 4}},
                    "audit": {key: value},
                }
            ),
            encoding="utf-8",
        )
        assert main(["run-all", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"audit.{key}" in err


    @pytest.mark.parametrize(
        "key, value",
        [
            ("negatives_per_identity", "5"),
            ("negatives_per_identity", 5.0),
            ("positives_per_identity", True),
            ("positive_mode", 1),
        ],
    )
    def test_run_all_mistyped_trials_value_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "synth": {"identities_per_group": {"man,asian": 4, "woman,asian": 4}},
                    "trials": {key: value},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["run-all", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"trials.{key}" in err
        assert not out.exists()  # rejected before any work


    @pytest.mark.parametrize(
        "group_by, flag, key",
        [
            (["nosuch"], [], "audit.group_by"),
            (["age"], [], "audit.group_by"),
            ([], [], "audit.group_by"),
            (["gender", "gender"], [], "audit.group_by"),
            (["gender"], ["--group-by", "nosuch"], "--group-by"),
        ],
        ids=["unknown", "continuous", "empty", "repeated", "flag"],
    )
    def test_run_all_bad_group_by_rejected_before_work(self, tmp_path, capsys, group_by, flag, key):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "synth": {"identities_per_group": {"man,asian": 4, "woman,asian": 4}},
                    "audit": {"group_by": group_by},
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["run-all", "--config", str(path), "--out", str(out), *flag]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"faceaudit run-all: {key}: ")
        assert not out.exists()  # rejected before any work

    def test_duplicate_attribute_column_rejected(self, workspace, tmp_path, capsys):
        attributes = tmp_path / "attributes.csv"
        lines = workspace["attributes"].read_text(encoding="utf-8").splitlines()
        blur = lines[0].split(",").index("blur")
        attributes.write_text(
            "".join(f"{line},{line.split(',')[blur]}\n" for line in lines), encoding="utf-8"
        )
        out = tmp_path / "o"
        rc = main(
            ["explain", "--scores", str(workspace["scored"]), "--attributes", str(attributes),
             "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "duplicate attribute column 'blur'" in err
        assert not out.exists()

    @pytest.mark.parametrize("config", [[], {"synth": {}, "trials": 5}])
    def test_run_all_config_shape_rejected(self, tmp_path, capsys, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run-all", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("\n") == 1


_CELLS = {"man,asian": 4, "woman,asian": 4}

# (id, section, that section's JSON, key path the one-line message names).
# A synth section is run bare through ``synth`` and under "synth" through
# ``run-all``; an audit section goes beside a valid synth section.  Mistyped
# trials values are covered by test_run_all_mistyped_trials_value_rejected.
_MALFORMED = [
    (
        "effect-without-target",
        "synth",
        {
            "identities_per_group": _CELLS,
            "attribute_effects": [{"variable": "blur", "strength": 0.2}],
        },
        "synth.attribute_effects[0].target",
    ),
    ("negative-seed", "synth", {"identities_per_group": _CELLS, "seed": -1}, "synth.seed"),
    (
        "cells-as-list",
        "synth",
        {"identities_per_group": [["man", "asian", 4]]},
        "synth.identities_per_group",
    ),
    (
        "cell-count-string",
        "synth",
        {"identities_per_group": {"man,asian": "many"}},
        "synth.identities_per_group['man,asian']",
    ),
    ("dim-fraction", "synth", {"identities_per_group": _CELLS, "dim": 16.9}, "synth.dim"),
    (
        "margin-string",
        "synth",
        {"identities_per_group": _CELLS, "base_margin": "0.3"},
        "synth.base_margin",
    ),
    ("bool-as-int", "synth", {"identities_per_group": _CELLS, "seed": True}, "synth.seed"),
    (
        "group-attributes-string",
        "synth",
        {"identities_per_group": _CELLS, "group_attributes": "gender,ethnicity"},
        "synth.group_attributes",
    ),
    (
        "group-attributes-nested-list",
        "synth",
        {"identities_per_group": _CELLS, "group_attributes": [["gender", "ethnicity"]]},
        "synth.group_attributes[0]",
    ),
    ("missing-cells", "synth", {"dim": 32}, "synth.identities_per_group"),
    ("unknown-key", "synth", {"identities_per_group": _CELLS, "colour": "red"}, "synth.colour"),
    ("explain-string", "audit", {"explain": "false"}, "audit.explain"),
    (
        "reference-levels-list",
        "audit",
        {"reference_levels": ["ethnicity", "black"]},
        "audit.reference_levels",
    ),
    (
        "reference-level-number",
        "audit",
        {"reference_levels": {"ethnicity": 3}},
        "audit.reference_levels['ethnicity']",
    ),
    (
        "reference-level-unknown",
        "audit",
        {"reference_levels": {"ethnicity": "martian"}},
        "audit.reference_levels['ethnicity']",
    ),
    (
        "reference-variable-unknown",
        "audit",
        {"reference_levels": {"planet": "mars"}},
        "audit.reference_levels['planet']",
    ),
    (
        "reference-variable-continuous",
        "audit",
        {"reference_levels": {"blur": "high"}},
        "audit.reference_levels['blur']",
    ),
    ("policy-out-of-range", "audit", {"policies": ["eer", "far@2"]}, "audit.policies"),
]


def _malformed_cases():
    for case_id, section, body, path in _MALFORMED:
        if section == "synth":
            yield pytest.param("synth", body, path, id=f"synth-{case_id}")
            config = {"synth": body}
        else:
            config = {"synth": {"identities_per_group": _CELLS}, section: body}
        yield pytest.param("run-all", config, path, id=f"run-all-{case_id}")


class TestMalformedConfig:
    @pytest.mark.parametrize("command, config, path", list(_malformed_cases()))
    def test_one_line_exit_2(self, tmp_path, capsys, command, config, path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"faceaudit {command}: ")
        assert path in err
        assert not out.exists()  # rejected before any work


def _readme_json_blocks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    return [pytest.param(block, id=f"block{i}") for i, block in enumerate(blocks)]


class TestReadme:
    """Every ```json block in README is a run-all config that runs."""

    def test_has_json_blocks(self):
        assert len(_readme_json_blocks()) >= 2

    @pytest.mark.parametrize("block", _readme_json_blocks())
    def test_json_block_runs(self, tmp_path, block):
        config = tmp_path / "pipeline.json"
        config.write_text(block, encoding="utf-8")
        assert main(["run-all", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


class TestNumericalErrors:
    def test_rank_deficiency_skips_explain(self, tmp_path):
        # cells differing in both protected attributes make the gender and
        # ethnicity dummies identical, which the regression cannot separate;
        # the regression is skipped, and the group rates and tests stand
        config = tmp_path / "aliased.json"
        config.write_text(
            json.dumps(
                {
                    "identities_per_group": {"man,asian": 14, "woman,caucasian": 14},
                    "dim": 24,
                    "seed": 0,
                }
            ),
            encoding="utf-8",
        )
        data = tmp_path / "data"
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        assert (
            main(
                [
                    "pairs",
                    "--embeddings",
                    str(data / "embeddings.freb"),
                    "--out",
                    str(tmp_path / "pairs.csv"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "score",
                    "--embeddings",
                    str(data / "embeddings.freb"),
                    "--pairs",
                    str(tmp_path / "pairs.csv"),
                    "--out",
                    str(tmp_path / "scored.csv"),
                ]
            )
            == 0
        )
        rc = main(
            [
                "explain",
                "--scores",
                str(tmp_path / "scored.csv"),
                "--attributes",
                str(data / "attributes.csv"),
                "--embeddings",
                str(data / "embeddings.freb"),
                "--out",
                str(tmp_path / "explain"),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "explain" / "report.json").read_text(encoding="utf-8"))
        (analysis,) = report["analyses"]
        for metric in ("far", "frr"):
            message = analysis["skipped_analyses"][f"explain_{metric}"]
            assert message.startswith("design matrix is rank deficient; dependent column(s): ")
        assert analysis["explain"] == {}
        assert analysis["groups"] and set(analysis["kruskal"]) == {"far", "frr"}


class TestPipeline:
    def test_synth_wrote_artifacts(self, workspace):
        for key in ("embeddings", "attributes", "schema"):
            assert workspace[key].exists()
        assert (workspace["embeddings"].parent / "ground_truth.json").exists()

    def test_pair_counts(self, workspace):
        trials, scores = read_trials_csv(workspace["pairs"])
        assert trials.n_genuine == 28 * 6
        assert trials.n_impostor == 28 * 50
        assert np.isnan(scores).all()

    def test_scored_file_complete(self, workspace):
        _, scores = read_trials_csv(workspace["scored"])
        assert not np.isnan(scores).any()

    def test_calibrate_far_target_recount(self, workspace, tmp_path, capsys):
        out = tmp_path / "ops.json"
        rc = main(
            [
                "calibrate",
                "--scores",
                str(workspace["scored"]),
                "--threshold-policy",
                "eer",
                "--threshold-policy",
                "far@0.01",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        ops = json.loads(out.read_text(encoding="utf-8"))["operating_points"]
        assert [op["policy"] for op in ops] == ["eer", "far@0.01"]
        trials, scores = read_trials_csv(workspace["scored"])
        impostor = scores[~trials.genuine]
        genuine = scores[trials.genuine]
        for op in ops:
            far = sum(1 for s in impostor if s > op["tau"]) / len(impostor)
            frr = sum(1 for s in genuine if s <= op["tau"]) / len(genuine)
            assert far == pytest.approx(op["far"], abs=1e-12)
            assert frr == pytest.approx(op["frr"], abs=1e-12)
        assert ops[1]["far"] <= 0.01

    def test_calibrate_prints_without_out(self, workspace, capsys):
        rc = main(["calibrate", "--scores", str(workspace["scored"])])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operating_points"][0]["policy"] == "eer"

    def test_audit_bundle(self, workspace, tmp_path, capsys):
        outdir = tmp_path / "audit"
        rc = main(
            [
                "audit",
                "--scores",
                str(workspace["scored"]),
                "--attributes",
                str(workspace["attributes"]),
                "--embeddings",
                str(workspace["embeddings"]),
                "--schema",
                str(workspace["schema"]),
                "--out",
                str(outdir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "eer: tau=" in out
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        assert report["census"]["n_identities"] == 28
        assert (outdir / "tables" / "eer_far.csv").exists()
        # audit does not run the explanatory analyses
        assert report["analyses"][0]["explain"] == {}

    def test_audit_without_embeddings_matches_with(self, workspace, tmp_path):
        with_dir = tmp_path / "with"
        without_dir = tmp_path / "without"
        base = [
            "--scores",
            str(workspace["scored"]),
            "--attributes",
            str(workspace["attributes"]),
        ]
        assert main(["audit", *base, "--embeddings", str(workspace["embeddings"]), "--out", str(with_dir)]) == 0
        assert main(["audit", *base, "--out", str(without_dir)]) == 0
        with_report = json.loads((with_dir / "report.json").read_text(encoding="utf-8"))
        without_report = json.loads((without_dir / "report.json").read_text(encoding="utf-8"))
        # identity labels may differ (reconstructed), but every rate agrees
        for a, b in zip(with_report["analyses"], without_report["analyses"]):
            assert a["operating_point"] == b["operating_point"]
            assert [g["far"] for g in a["groups"]] == [g["far"] for g in b["groups"]]
            assert [g["frr"] for g in a["groups"]] == [g["frr"] for g in b["groups"]]

    def test_explain_bundle(self, workspace, tmp_path):
        outdir = tmp_path / "explain"
        rc = main(
            [
                "explain",
                "--scores",
                str(workspace["scored"]),
                "--attributes",
                str(workspace["attributes"]),
                "--embeddings",
                str(workspace["embeddings"]),
                "--out",
                str(outdir),
            ]
        )
        assert rc == 0
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        explain = report["analyses"][0]["explain"]
        assert set(explain) == {"far", "frr"}
        assert explain["far"]["correlations"]["entries"]
        assert (outdir / "figures" / "eer_correlations.svg").exists()

    def test_report_rerenders_identically(self, workspace, tmp_path):
        outdir = tmp_path / "audit"
        args = [
            "audit",
            "--scores",
            str(workspace["scored"]),
            "--attributes",
            str(workspace["attributes"]),
            "--embeddings",
            str(workspace["embeddings"]),
            "--out",
            str(outdir),
        ]
        assert main(args) == 0
        rerender = tmp_path / "rerender"
        rc = main(["report", "--results", str(outdir / "report.json"), "--out", str(rerender)])
        assert rc == 0
        for name in ("tables/eer_far.csv", "tables/eer_frr.csv"):
            assert (rerender / name).read_bytes() == (outdir / name).read_bytes()


@pytest.fixture(scope="module")
def explain_report(workspace, tmp_path_factory):
    """A report.json payload with groups, Kruskal-Wallis tests and explain."""
    outdir = tmp_path_factory.mktemp("explain")
    argv = ["explain", "--scores", str(workspace["scored"]), "--attributes"]
    assert main([*argv, str(workspace["attributes"]), "--out", str(outdir)]) == 0
    return json.loads((outdir / "report.json").read_text(encoding="utf-8"))


def _set(path, value):
    """An edit of a payload that sets the item at key ``path`` to ``value``."""

    def edit(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value

    return edit


def _drop(path):
    def edit(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        del payload[last]

    return edit


class TestReportResults:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_drop(["analyses", 0, "groups"]), "analyses[0].groups is missing"),
            (_set(["analyses", 0, "groups", 0, "far"], "0.1"), "analyses[0].groups[0].far has"),
            (_set(["analyses"], {}), "analyses must be a list"),
            (_set(["analyses", 0, "groups", 1], []), "analyses[0].groups[1] must be a JSON object"),
            (_set(["analyses", 0, "groups", 0, "levels"], ["man"]), "analyses[0].groups[0]: lists"),
            (_set(["analyses", 0, "operating_point"], None), "analyses[0].operating_point must"),
            (_drop(["analyses", 0, "kruskal", "far", "p", 0]), "analyses[0].kruskal.far.p: lists"),
            (
                _set(["analyses", 0, "explain", "frr", "regression", "p_values"], [0.5]),
                "analyses[0].explain.frr.regression: lists",
            ),
            (
                _set(["analyses", 0, "explain", "far", "correlations", "entries", 0, "r"], "x"),
                "analyses[0].explain.far.correlations.entries[0].r has",
            ),
            (_set(["analyses", 0, "kruskal", "frr", "labels"], "ab"), "kruskal.frr.labels must"),
        ],
        ids=[
            "no-groups", "string-far", "analyses-object", "group-list", "short-levels",
            "null-operating-point", "short-p", "short-p-values", "string-r", "string-labels",
        ],
    )
    def test_malformed_payload_one_line(self, explain_report, tmp_path, capsys, edit, message):
        payload = json.loads(json.dumps(explain_report))
        edit(payload)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"faceaudit report: {path}: ")
        assert message in err

    def test_well_formed_payload_renders(self, explain_report, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(explain_report), encoding="utf-8")
        assert main(["report", "--results", str(path), "--out", str(tmp_path / "out")]) == 0


def _shuffled_rows(text, seed=0):
    """The header, then the data rows in a seeded random order."""
    header, *rows = text.splitlines()
    random.Random(seed).shuffle(rows)
    return "\n".join([header, *rows]) + "\n"


def _permuted_columns(text):
    """Attribute columns after image_id in reverse order."""
    rows = [line.split(",") for line in text.splitlines()]
    return "".join(",".join([row[0], *reversed(row[1:])]) + "\n" for row in rows)


def _level_indices(text):
    """Categorical cells written as level indices instead of names."""
    levels = {"man": "0", "woman": "1", "asian": "0", "black": "1", "caucasian": "2"}
    rows = [line.split(",") for line in text.splitlines()]
    header, body = rows[0], rows[1:]
    columns = [header.index("gender"), header.index("ethnicity")]
    for row in body:
        for c in columns:
            row[c] = levels[row[c]]
    return "".join(",".join(row) + "\n" for row in [header, *body])


# (transform id, input it rewrites, rewrite of that file's text)
_TRANSFORMS = [
    ("shuffle-attribute-rows", "attributes", _shuffled_rows),
    ("shuffle-trial-rows", "scored", _shuffled_rows),
    ("permute-attribute-columns", "attributes", _permuted_columns),
    ("categorical-level-indices", "attributes", _level_indices),
]


class TestInputOrder:
    """Rewrites of the inputs that keep their meaning keep every bundle byte."""

    @staticmethod
    def _explain(outdir, inputs, embeddings):
        argv = [
            "explain", "--scores", str(inputs["scored"]), "--attributes", str(inputs["attributes"]),
            "--threshold-policy", "eer", "--threshold-policy", "far@0.05", "--out", str(outdir),
        ]
        if embeddings:
            argv += ["--embeddings", str(inputs["embeddings"])]
        assert main(argv) == 0
        return _walk_bytes(outdir)

    @pytest.mark.parametrize("embeddings", [False, True], ids=["scores-only", "embeddings"])
    @pytest.mark.parametrize("name, which, rewrite", _TRANSFORMS, ids=[t[0] for t in _TRANSFORMS])
    def test_bundle_unchanged(self, workspace, tmp_path, name, which, rewrite, embeddings):
        path = tmp_path / workspace[which].name
        path.write_text(rewrite(workspace[which].read_text(encoding="utf-8")), encoding="utf-8")
        assert path.read_bytes() != workspace[which].read_bytes()
        want = self._explain(tmp_path / "want", workspace, embeddings)
        got = self._explain(tmp_path / "got", {**workspace, which: path}, embeddings)
        assert got == want

    @pytest.mark.parametrize("embeddings", [False, True], ids=["scores-only", "embeddings"])
    def test_identity_rename(self, workspace, tmp_path, embeddings):
        # Without u00005's attribute rows, identity names reach report.json.
        inputs = _without_attribute_rows(workspace, tmp_path, "u00005")
        renamed = _renamed(inputs, tmp_path / "renamed", "p-")
        want = self._explain(tmp_path / "want", inputs, embeddings)
        got = self._explain(tmp_path / "got", renamed, embeddings)
        want_report = json.loads(want.pop("report.json"))
        assert want_report["exclusions"]["unassigned"]
        assert json.loads(got.pop("report.json")) == _prefixed(want_report, "p-")
        assert got == want  # tables and figures name no identity


def _without_attribute_rows(workspace, tmp_path, identity):
    """The workspace inputs with no attribute row for ``identity``'s images."""
    lines = workspace["attributes"].read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "attributes.csv"
    kept = [line for line in lines if not line.startswith(f"{identity}_")]
    assert len(kept) < len(lines)
    path.write_text("".join(kept), encoding="utf-8")
    return {**workspace, "attributes": path}


def _renamed(inputs, outdir, prefix):
    """``inputs`` with ``prefix`` put before every identity and image id."""
    outdir.mkdir()
    table = load_embeddings(inputs["embeddings"])
    renamed = EmbeddingTable(
        tuple(prefix + image for image in table.image_ids),
        tuple(prefix + identity for identity in table.identity_ids),
        table.vectors,
    )
    write_embeddings_binary(outdir / "embeddings.freb", renamed)
    out = {**inputs, "embeddings": outdir / "embeddings.freb"}
    for which, n_ids in (("attributes", 1), ("scored", 2)):
        header, *rows = inputs[which].read_text(encoding="utf-8").splitlines()
        lines = [header]
        for cells in (row.split(",") for row in rows):
            lines.append(",".join([prefix + c for c in cells[:n_ids]] + cells[n_ids:]))
        out[which] = outdir / inputs[which].name
        out[which].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _prefixed(report, prefix):
    """A report.json payload with ``prefix`` before every identity it names."""
    report["exclusions"] = {k: [prefix + i for i in v] for k, v in report["exclusions"].items()}
    for analysis in report["analyses"]:
        for explain in analysis["explain"].values():
            explain["incomplete_identities"] = [prefix + i for i in explain["incomplete_identities"]]
    return report


class TestRowlessIdentity:
    def test_both_paths_list_it(self, workspace, tmp_path):
        # An identity none of whose images has an attribute row is kept,
        # all missing, whether identities come from --embeddings or from
        # the trial file, which names each by its smallest image id.
        inputs = _without_attribute_rows(workspace, tmp_path, "u00005")
        reports = {}
        for embeddings in (False, True):
            TestInputOrder._explain(tmp_path / str(embeddings), inputs, embeddings)
            text = (tmp_path / str(embeddings) / "report.json").read_text(encoding="utf-8")
            reports[embeddings] = json.loads(text)
        with_embeddings = reports[True]
        assert with_embeddings["exclusions"]["unassigned"] == ["u00005"]
        for analysis in with_embeddings["analyses"]:
            assert analysis["explain"]["far"]["incomplete_identities"] == ["u00005"]
        named_by_image = json.dumps(with_embeddings).replace('"u00005"', '"u00005_00"')
        assert json.loads(named_by_image) == reports[False]


class TestRunAll:
    def _config(self, tmp_path, seed=9):
        path = tmp_path / "pipeline.json"
        path.write_text(
            json.dumps(
                {
                    "synth": {
                        "identities_per_group": {"man,asian": 14, "woman,asian": 14},
                        "dim": 24,
                        "seed": seed,
                    },
                    "audit": {"policies": ["eer", "far@0.01"]},
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_bundle_complete(self, tmp_path, capsys):
        config = self._config(tmp_path)
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "data" / "embeddings.freb").exists()
        assert (out / "trials.csv").exists()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert len(report["analyses"]) == 2
        assert report["seed"] == 9

    def test_audits_its_cohort_in_memory(self, tmp_path, monkeypatch):
        # data/ is written for inspection; run-all never reads it back
        def refuse(*args, **kwargs):
            raise AssertionError("run-all loaded a cohort from files")

        monkeypatch.setattr("faceaudit.cli.load_cohort", refuse)
        monkeypatch.setattr("faceaudit.cli.read_attributes", refuse)
        config = self._config(tmp_path)
        out = tmp_path / "run"
        assert main(["run-all", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "data" / "embeddings.freb").exists()
        assert (out / "report.json").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        config = self._config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run-all", "--config", str(config), "--out", str(a)]) == 0
        assert main(["run-all", "--config", str(config), "--out", str(b)]) == 0
        assert _walk_bytes(a) == _walk_bytes(b)

    def test_seed_override_changes_report(self, tmp_path):
        config = self._config(tmp_path)
        a, b = tmp_path / "s9", tmp_path / "s10"
        assert main(["run-all", "--config", str(config), "--out", str(a)]) == 0
        assert (
            main(["run-all", "--config", str(config), "--seed", "10", "--out", str(b)]) == 0
        )
        assert (a / "report.json").read_bytes() != (b / "report.json").read_bytes()

    def test_unknown_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "synth": {"identities_per_group": {"man,asian": 4}},
                    "deploy": {"target": "prod"},
                }
            ),
            encoding="utf-8",
        )
        assert main(["run-all", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_synth_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"audit": {}}), encoding="utf-8")
        assert main(["run-all", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "faceaudit", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "faceaudit" in proc.stdout

"""Tests for the command-line interface: exit codes, pipelines, determinism."""

import codecs
import csv
import dataclasses
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
import typing
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import schema_document
from faceaudit import cli
from faceaudit.cli import build_parser, main
from faceaudit.cohort import load_cohort, write_embeddings_binary
from faceaudit.schema import Variable, load_schema
from faceaudit.synth import AttributeEffect, SynthConfig
from faceaudit.trials import TrialPolicy, generate_trials, read_trials_csv, write_trials_csv


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

    def test_unknown_subcommand(self, capsys):
        for command in ("defragment", "report"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--out", "out"])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"invalid choice: '{command}'" in err

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth"])  # --config is required
        assert exc.value.code == 1

    def test_bad_policy_string(self):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--scores", "x.csv", "--threshold-policy", "frr@0.1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("policy", ["far@0_1", "far@ 0.1", "far@\x0b0.1"])
    def test_far_target_read_as_a_decimal(self, capsys, policy):
        # float() reads "0_1" as 1.0 and skips the spaces around a number
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--scores", "x.csv", "--threshold-policy", policy])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "faceaudit calibrate: argument --threshold-policy: "
            f"malformed threshold policy {policy!r}\n"
        )

    def test_negative_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pairs", "--embeddings", "x.freb", "--seed", "-1", "--out", "p.csv"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "faceaudit pairs: argument --seed: expected an integer >= 0, got '-1'\n"
        )

    def test_missing_out_is_usage_error(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pairs", "--embeddings", str(workspace["embeddings"])])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "faceaudit pairs: the following arguments are required: --out\n"
        )

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("synth", "--group-by", "gender"),
            ("score", "--seed", "1"),
            ("audit", "--seed", "1"),
            ("audit", "--standardize", None),
            ("pairs", "--all-positives", None),
        ],
    )
    def test_flag_the_command_does_not_read(self, workspace, tmp_path, capsys, command, flag, value):
        # each command takes only the flags it reads; any other one is refused
        inputs = {
            "synth": ["--config", workspace["config"]],
            "score": ["--embeddings", workspace["embeddings"], "--pairs", workspace["pairs"]],
            "audit": ["--scores", workspace["scored"], "--attributes", workspace["attributes"]],
            "pairs": ["--embeddings", workspace["embeddings"]],
        }[command]
        out = tmp_path / "out"
        argv = [command, *inputs, flag, *([value] if value else []), "--out", out]
        with pytest.raises(SystemExit) as exc:
            main([str(arg) for arg in argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert "unrecognized arguments" in err
        assert not out.exists()

    def test_flags_per_command(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {
            name: sorted(a.option_strings[0] for a in p._actions if a.dest != "help")
            for name, p in sub.choices.items()
        }
        audit = ["--attributes", "--embeddings", "--group-by", "--out"]
        audit += ["--schema", "--scores", "--threshold-policy"]
        assert flags == {
            "synth": ["--config", "--out", "--schema", "--seed"],
            "pairs": ["--embeddings", "--negatives", "--out", "--positives", "--seed"],
            "score": ["--embeddings", "--out", "--pairs"],
            "calibrate": ["--out", "--scores", "--threshold-policy"],
            "audit": audit,
            "explain": sorted([*audit, "--standardize"]),
            "run-all": ["--config", "--group-by", "--out", "--schema", "--seed", "--threshold-policy"],
        }
        assert sum(map(len, flags.values())) == 36

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_positives_named(self, workspace, tmp_path, capsys, value):
        out = tmp_path / "pairs.csv"
        argv = ["pairs", "--embeddings", str(workspace["embeddings"]), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--positives", value])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            f"faceaudit pairs: argument --positives: expected an integer >= 1 or 'all', "
            f"got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "two"])
    def test_bad_negatives_named(self, workspace, tmp_path, capsys, value):
        out = tmp_path / "pairs.csv"
        argv = ["pairs", "--embeddings", str(workspace["embeddings"]), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--negatives", value])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            f"faceaudit pairs: argument --negatives: expected an integer >= 0, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "run-all"])
    @pytest.mark.parametrize("value", ["", "gender,,ethnicity", "gender,", " , "])
    def test_empty_group_by_part_named(self, workspace, tmp_path, capsys, command, value):
        # an empty name is refused, not dropped or read as the default grouping
        inputs = {
            "audit": ["--scores", workspace["scored"], "--attributes", workspace["attributes"]],
            "run-all": ["--config", workspace["config"]],
        }[command]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, *map(str, inputs), "--group-by", value, "--out", str(out)])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            f"faceaudit {command}: argument --group-by: "
            f"expected comma-separated attribute names, got {value!r}\n"
        )
        assert not out.exists()

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
            *(
                (
                    "probe_image_id,reference_image_id,label,score\n"
                    f"a_0,a_1,genuine,{first}\na_0,b_0,impostor,{cell}\n",
                    f":3: bad score '{cell}'",
                )
                # after a scored cell float() reads the block; after an empty one, _score
                for first in ("0.9", "")
                for cell in ("nan", "inf", "-inf", "1e999", "NaN")
            ),
            (
                "probe_image_id,reference_image_id,label,score\n"
                "a_0,a_1,genuine,0.9\na_1,a_1,genuine,1.0\na_0,b_0,impostor,0.1\n",
                ":3: pair compares image 'a_1' with itself",
            ),
            (
                "probe_image_id,reference_image_id,label,score\n"
                "a_0,a_1,genuine,0.9\na_1,a_1,impostor,1.0\na_0,b_0,impostor,0.1\n",
                ":3: pair compares image 'a_1' with itself",
            ),
            (
                "probe_image_id,reference_image_id,label,score\n"
                "a1,a2,genuine,0.9\na2,a3,genuine,0.8\na1,a3,impostor,0.7\n"
                "b1,b2,genuine,0.9\na1,b1,impostor,0.1\na2,b2,impostor,0.2\n",
                ":4: label contradicts the genuine pairs",
            ),
        ],
        ids=[
            "header", "short-row", "label", "score", "score-underscore",
            *(f"{cell}-after-{first}" for first in ("scored", "unscored")
              for cell in ("nan", "inf", "-inf", "1e999", "NaN")),
            "genuine-same-image",
            "impostor-same-image", "label-contradicts-genuine-pairs",
        ],
    )
    def test_malformed_trial_csv_one_line(self, tmp_path, capsys, body, reason):
        path = tmp_path / "scores.csv"
        path.write_text(body, encoding="utf-8")
        assert main(["calibrate", "--scores", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("faceaudit calibrate:")
        assert reason in err

    @pytest.mark.parametrize(
        "body, reason",
        [
            (
                "a_0,a,1.0,2.0\na_1,a,3.0\nb_0,b,5.0,6.0\n",
                ":2: dimension mismatch: 'a_1' has 1, expected 2",
            ),
            (
                "a_0,a,1.0,2.0\n\na_1,a,3.0,4.0,5.0\n",
                ":3: dimension mismatch: 'a_1' has 3, expected 2",
            ),
            ("a_0,a,1.0,2.0\na_1,a\n", ":2: expected image_id, identity_id, values..."),
            ("a_0,a,1.0,2.0\na_1,a,1_0,2.0\n", ":2: bad vector component: "),
        ],
        ids=["short-row", "long-row-after-blank", "no-values", "component-underscore"],
    )
    def test_malformed_text_embeddings_one_line(self, tmp_path, capsys, body, reason):
        path, out = tmp_path / "emb.csv", tmp_path / "pairs.csv"
        path.write_text(body, encoding="utf-8")
        assert main(["pairs", "--embeddings", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"faceaudit pairs: {path}{reason}")
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["audit", "explain"])
    def test_default_group_by_named(self, workspace, tmp_path, capsys, command):
        # no --group-by: the message names the default it tried, not the flag
        schema = tmp_path / "schema.json"
        document = schema_document({"protected": ["ethnicity", "age"]}, name="sex")
        schema.write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / "out"
        inputs = ["--scores", workspace["scored"], "--attributes", workspace["attributes"]]
        argv = [command, *map(str, inputs), "--schema", str(schema), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"faceaudit {command}: default group-by gender,ethnicity (--group-by overrides it): "
            "unknown attribute 'gender'\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["audit", "explain"])
    def test_attributes_naming_no_trial_image_rejected(self, workspace, tmp_path, capsys, command):
        # every image id suffixed: the file describes images the trials never use
        header, *rows = workspace["attributes"].read_text(encoding="utf-8").splitlines()
        attributes = tmp_path / "attributes.csv"
        rows = [row.replace(",", ".jpg,", 1) for row in rows]
        attributes.write_text("".join(f"{line}\n" for line in [header, *rows]), encoding="utf-8")
        scores, out = workspace["scored"], tmp_path / "o"
        argv = [command, "--scores", str(scores), "--attributes", str(attributes)]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        want = f"{attributes}: no attribute row names an image of {scores}"
        assert err == f"faceaudit {command}: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "explain"])
    def test_attributes_naming_no_embedded_image_rejected(self, workspace, tmp_path, capsys,
                                                          command):
        # a header-only file: the embedding file's image table takes the trial file's rule
        header = workspace["attributes"].read_text(encoding="utf-8").split("\n")[0]
        attributes, out = tmp_path / "attributes.csv", tmp_path / "o"
        attributes.write_text(header + "\n", encoding="utf-8")
        embeddings = workspace["embeddings"]
        argv = [command, "--embeddings", embeddings, "--scores", workspace["scored"],
                "--attributes", attributes, "--out", out]
        assert main(list(map(str, argv))) == 2
        captured = capsys.readouterr()
        want = f"{attributes}: no attribute row names an image of {embeddings}"
        assert captured.err == f"faceaudit {command}: {want}\n" and captured.out == ""
        assert not out.exists()

    def test_attribute_row_without_embedding_ignored(self, workspace, tmp_path):
        # with --embeddings, as without, rows of other images are ignored
        text = workspace["attributes"].read_text(encoding="utf-8")
        attributes = tmp_path / "attributes.csv"
        attributes.write_text(text + "zz_ghost" + ",1" * text.split("\n")[0].count(",") + "\n")
        bundles = []
        for path in (workspace["attributes"], attributes):
            out = tmp_path / f"o{len(bundles)}"
            argv = ["explain", "--embeddings", workspace["embeddings"], "--scores",
                    workspace["scored"], "--attributes", path, "--out", out]
            assert main(list(map(str, argv))) == 0
            bundles.append(_walk_bytes(out))
        assert bundles[0] == bundles[1]

    @pytest.mark.parametrize(
        "command, with_out",
        [("calibrate", False), ("calibrate", True), ("audit", True), ("explain", True)],
        ids=["calibrate-stdout", "calibrate-out", "audit", "explain"],
    )
    def test_repeated_policy_rejected(self, workspace, tmp_path, capsys, command, with_out):
        out = tmp_path / "o"
        argv = [command, "--scores", workspace["scored"]]
        argv += ["--threshold-policy", "eer", "--threshold-policy", "eer"]
        if command != "calibrate":
            argv += ["--attributes", workspace["attributes"]]
        if with_out:
            argv += ["--out", out]
        assert main(list(map(str, argv))) == 2
        captured = capsys.readouterr()
        assert captured.err == f"faceaudit {command}: policies must be distinct\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "explain"])
    @pytest.mark.parametrize("kind", ["genuine", "impostor"])
    def test_one_kind_of_pair_rejected(self, workspace, tmp_path, capsys, command, kind):
        scores, out = _one_kind(workspace, tmp_path / "scores.csv", kind), tmp_path / "o"
        argv = [command, "--scores", scores, "--attributes", workspace["attributes"]]
        assert main([*map(str, argv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"faceaudit {command}: {scores}: needs both genuine and impostor pairs\n"
        assert not out.exists()

    @pytest.mark.parametrize("embeddings", [False, True], ids=["trial-ids", "embeddings"])
    @pytest.mark.parametrize("unscored", [True, False], ids=["unscored", "genuine-only"])
    def test_trial_faults_before_attribute_faults(
        self, workspace, tmp_path, capsys, embeddings, unscored
    ):
        if unscored:
            scores, message = workspace["pairs"], "contains unscored pairs"
        else:
            scores = _one_kind(workspace, tmp_path / "scores.csv", "genuine")
            message = "needs both genuine and impostor pairs"
        attributes, out = tmp_path / "attributes.csv", tmp_path / "o"
        attributes.write_text("who,gender\na,man\n", encoding="utf-8")  # a bad header
        argv = ["explain", "--scores", scores, "--attributes", attributes]
        if embeddings:
            argv += ["--embeddings", workspace["embeddings"]]
        assert main([*map(str, argv), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"faceaudit explain: {scores}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("config", [[], {"synth": {}, "trials": 5}])
    def test_run_all_config_shape_rejected(self, tmp_path, capsys, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run-all", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("\n") == 1


_CELLS = {"man,asian": 4, "woman,asian": 4}


def _one_kind(workspace, path, kind):
    """``path``, written as the scored pairs of ``workspace`` whose label is ``kind``."""
    header, *rows = workspace["scored"].read_text(encoding="utf-8").splitlines()
    kept = [row for row in rows if row.split(",")[2] == kind]
    path.write_text("".join(f"{line}\n" for line in [header, *kept]), encoding="utf-8")
    return path


_TEXT_INPUTS = ["attributes", "trials", "text-embeddings", "run-all-config", "schema"]


def _input_argv(case, workspace, path, edit):
    """A command line whose ``case`` input is the file ``path``, written
    here as a valid input with ``edit`` applied to its bytes."""
    scores, attributes = workspace["scored"], workspace["attributes"]
    texts = {
        "attributes": attributes.read_bytes(),
        "trials": scores.read_bytes(),
        "text-embeddings": b"a_0,a,1.0,0.5\na_1,a,0.5,1.0\nb_0,b,1.0,1.0\nb_1,b,0.0,1.0\n",
        "run-all-config": json.dumps({"synth": {"identities_per_group": _CELLS}}).encode(),
        "schema": workspace["schema"].read_bytes(),
    }
    path.write_bytes(edit(texts[case]))
    return {
        "attributes": ["explain", "--scores", scores, "--attributes", path],
        "trials": ["explain", "--scores", path, "--attributes", attributes],
        "text-embeddings": ["pairs", "--embeddings", path, "--negatives", "2"],
        "run-all-config": ["run-all", "--config", path],
        "schema": ["explain", "--scores", scores, "--attributes", attributes, "--schema", path],
    }[case]


class TestNonUtf8Input:
    @pytest.mark.parametrize("case", _TEXT_INPUTS)
    def test_one_line_exit_2(self, workspace, tmp_path, capsys, case):
        bad, out = tmp_path / "bad", tmp_path / "out"
        # a valid input whose last line ends in a byte that is not UTF-8
        argv = _input_argv(case, workspace, bad, lambda text: text.rstrip(b"\n") + b"\xff\n")
        assert main([*map(str, argv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{bad}: not UTF-8 text" in err
        assert not out.exists()


class TestByteOrderMark:
    """A UTF-8 byte-order mark that starts a text input is dropped."""

    @pytest.mark.parametrize("case", _TEXT_INPUTS)
    def test_read_as_without_it(self, workspace, tmp_path, case):
        outputs = []
        for name, mark in [("plain", b""), ("marked", codecs.BOM_UTF8)]:
            (tmp_path / name).mkdir()
            path, out = tmp_path / name / "input", tmp_path / name / "out"
            argv = _input_argv(case, workspace, path, lambda text: mark + text)
            assert main([*map(str, argv), "--out", str(out)]) == 0
            outputs.append(_walk_bytes(out) if out.is_dir() else out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_one_after_the_start_is_data(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        path.write_text("\ufeffa_0,a,1.0,0.5\n\ufeffa_1,a,0.5,1.0\n", encoding="utf-8")
        assert load_cohort(path).image_ids == ("a_0", "\ufeffa_1")


class TestOversizedCell:
    """A cell longer than ``csv.field_size_limit()`` is named by file and
    line, whether the block reader splits its text or, after a quoted
    cell, the csv module reads it."""

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("case", ["trials", "attributes", "text-embeddings"])
    def test_one_line_exit_2(self, workspace, tmp_path, capsys, case, quoted):
        big = "x" * (csv.field_size_limit() + 1)
        first = '"a,0"' if quoted else "a_0"
        text, argv, line = {
            "trials": (
                f"probe_image_id,reference_image_id,label,score\n{first},b_0,impostor,0.1\n"
                f"a_1,{big},impostor,0.2\n",
                ["calibrate", "--scores"],
                3,
            ),
            "attributes": (
                f"image_id,blur\n{first},0.1\n\n{big},0.2\n",
                ["explain", "--scores", workspace["scored"], "--attributes"],
                4,
            ),
            "text-embeddings": (
                f"{first},a,1.0,0.5\na_1,a,0.5,{big}\n",
                ["pairs", "--embeddings"],
                2,
            ),
        }[case]
        bad, out = tmp_path / "bad.csv", tmp_path / "out"
        bad.write_text(text, encoding="utf-8")
        assert main([*map(str, argv), str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"faceaudit {argv[0]}: {bad}:{line}: "
            f"field larger than field limit ({csv.field_size_limit()})\n"
        )
        assert not out.exists()


class TestMalformedSchemaFile:
    @pytest.mark.parametrize("command", ["explain", "run-all"])
    @pytest.mark.parametrize(
        "document, message",
        [
            (schema_document(levels="mw"), 'schema.variables[0].levels must be a list, got "mw"'),
            (schema_document(levels=[1, 2]), "schema.variables[0].levels[0] must be a string"),
            (schema_document(level=["m", "w"]), "schema.variables[0].level is not a known key"),
            (schema_document({"version": 2}), "schema.version is not a known key"),
            (
                schema_document(kind="continuous_range", levels=None, lo="1", hi=2),
                'schema.variables[0].lo must be a number, got "1"',
            ),
            (schema_document({"protected": "gender"}), "schema.protected must be a list"),
            (schema_document(family="nope"), "schema.variables[0].family must be one of "),
        ],
        ids=["levels-string", "levels-ints", "misspelled-key", "unknown-key", "bound-string",
             "protected-string", "family"],
    )
    def test_one_line_exit_2(self, workspace, tmp_path, capsys, document, message, command):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(document), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"identities_per_group": _CELLS}}), "utf-8")
        inputs = {
            "explain": ["--scores", workspace["scored"], "--attributes", workspace["attributes"]],
            "run-all": ["--config", config],
        }[command]
        out = tmp_path / "out"
        argv = [command, *map(str, inputs), "--schema", str(schema), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"faceaudit {command}: {message}")
        assert not out.exists()


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
    ("policy-underscore", "audit", {"policies": ["eer", "far@0_1"]}, "audit.policies"),
    (
        "cell-unknown-level",
        "synth",
        {"identities_per_group": {"man,martian": 4, "woman,asian": 4}},
        "synth.identities_per_group['man,martian']",
    ),
    (
        "shift-cell-arity",
        "synth",
        {"identities_per_group": _CELLS, "group_margin_shift": {"man": -0.1}},
        "synth.group_margin_shift['man']",
    ),
    (
        "effect-on-categorical",
        "synth",
        {
            "identities_per_group": _CELLS,
            "attribute_effects": [{"variable": "ethnicity", "target": "far", "strength": 0.1}],
        },
        "synth.attribute_effects[0].variable",
    ),
    (
        "effect-unknown-variable",
        "synth",
        {
            "identities_per_group": _CELLS,
            "attribute_effects": [{"variable": "shoe_size", "target": "frr", "strength": 0.1}],
        },
        "synth.attribute_effects[0].variable",
    ),
    (
        "group-attributes-continuous",
        "synth",
        {"identities_per_group": {"30,man": 4, "40,woman": 4}, "group_attributes": ["age", "gender"]},
        "synth.group_attributes",
    ),
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
        assert err.count("\n") == 1 and err.startswith(f"faceaudit {command}: {path}")
        assert not out.exists()  # rejected before any work


class TestJsonLimits:
    """Every JSON input goes through one reader: nesting past the
    recursion limit, and an integer too long for int(), end in one line."""

    @pytest.mark.parametrize("case", ["run-all-config", "schema"])
    def test_deep_nesting_one_line_exit_2(self, tmp_path, capsys, case):
        bad, config, out = tmp_path / "bad.json", tmp_path / "config.json", tmp_path / "out"
        bad.write_text("[" * 100_000, encoding="utf-8")
        config.write_text(json.dumps({"synth": {"identities_per_group": _CELLS}}), "utf-8")
        argv = {
            "run-all-config": ["--config", bad],
            "schema": ["--config", config, "--schema", bad],
        }[case]
        assert main(["run-all", *map(str, argv), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"faceaudit run-all: {bad}: malformed JSON: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, digits, message",
        [
            ("seed", "9" * 300, "synth.seed must be an integer, got 1e+300"),
            ("dim", "9" * 5000, "synth.dim must be an integer, got Infinity"),  # past int()'s limit
        ],
        ids=["300-digits", "5000-digits"],
    )
    def test_long_integer_reads_as_float(self, tmp_path, capsys, key, digits, message):
        config, out = tmp_path / "config.json", tmp_path / "out"
        text = json.dumps({"synth": {"identities_per_group": _CELLS, key: 0}})
        config.write_text(text.replace(f'"{key}": 0', f'"{key}": {digits}'), encoding="utf-8")
        assert main(["run-all", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"faceaudit run-all: {message}\n"
        assert not out.exists()


_EFFECT = {"variable": "blur", "target": "far", "strength": 0.5}
_RANGE = {"kind": "continuous_range", "levels": None, "lo": 0.0, "hi": 2.0}
# key path -> (the synth section's keys, the --schema document) with the key set to x
_FLOAT_KEYS = {
    "synth.base_margin": lambda x: ({"base_margin": x}, None),
    "synth.noise_scale": lambda x: ({"noise_scale": x}, None),
    "synth.group_margin_shift['man,asian']": lambda x: ({"group_margin_shift": {"man,asian": x}}, None),
    "synth.group_noise_shift['man,asian']": lambda x: ({"group_noise_shift": {"man,asian": x}}, None),
    "synth.attribute_effects[0].strength": lambda x: (
        {"attribute_effects": [{**_EFFECT, "strength": x}]}, None
    ),
    "schema.variables[0].lo": lambda x: ({}, schema_document(**{**_RANGE, "lo": x})),
    "schema.variables[0].hi": lambda x: ({}, schema_document(**{**_RANGE, "hi": x})),
}


class TestNonFiniteNumbers:
    """Python's JSON reader takes NaN, Infinity and -Infinity as numbers;
    a number key refuses them."""

    def test_every_float_key_listed(self):
        fields = {
            name
            for cls in (SynthConfig, AttributeEffect, Variable)
            for name, hint in typing.get_type_hints(cls).items()
            if float in (hint, *typing.get_args(hint))
        }
        assert fields == {re.findall(r"\.(\w+)", path)[-1] for path in _FLOAT_KEYS}

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("path", list(_FLOAT_KEYS))
    def test_one_line_exit_2(self, tmp_path, capsys, path, literal):
        synth, schema = _FLOAT_KEYS[path](float(literal))
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps({"synth": {"identities_per_group": _CELLS, **synth}}), "utf-8")
        argv = ["run-all", "--config", str(config), "--out", str(out)]
        if schema is not None:
            (tmp_path / "schema.json").write_text(json.dumps(schema), "utf-8")
            argv += ["--schema", str(tmp_path / "schema.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"faceaudit run-all: {path} must be a finite number, got {literal}\n"
        assert not out.exists()  # rejected before any work


class TestWarnings:
    def test_one_stderr_line_per_warning(self, tmp_path, capsys):
        rows = [("a0", "id0"), ("b0", "id1"), ("b1", "id1"), ("c0", "id2"), ("c1", "id2")]
        embeddings = tmp_path / "emb.csv"
        text = "".join(f"{image},{identity},{k},1,0.5\n" for k, (image, identity) in enumerate(rows))
        embeddings.write_text(text, encoding="utf-8")
        out = tmp_path / "pairs.csv"
        shown, filters = warnings.showwarning, list(warnings.filters)
        argv = ["pairs", "--embeddings", str(embeddings), "--negatives", "2", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "faceaudit pairs: warning: identity 'id0' has fewer than two images; skipped\n"
        )
        assert (warnings.showwarning, warnings.filters) == (shown, filters)  # the caller's state
        # the library still warns, and the trial file is the library's
        cohort = load_cohort(embeddings)
        with pytest.warns(UserWarning, match="'id0' has fewer than two images"):
            trials = generate_trials(cohort, TrialPolicy(negatives_per_identity=2), 0)
        write_trials_csv(tmp_path / "library.csv", trials, None)
        assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_json_blocks():
    blocks = re.findall(r"^```json\n(.*?)^```", _readme(), flags=re.M | re.S)
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

    def test_schema_example_loads(self, tmp_path):
        (example,) = re.findall(r'^```\n(\{"variables".*?)^```', _readme(), flags=re.M | re.S)
        path = tmp_path / "schema.json"
        path.write_text(example, encoding="utf-8")
        schema = load_schema(path)
        assert schema.names() == ("gender", "age", "blur")
        assert schema.protected == ("gender", "age")

    def test_quick_start_runs(self, tmp_path, monkeypatch, capsys):
        # every faceaudit line of the Quick start block, after its heredoc files
        readme = _readme()
        section = readme[readme.index("## Quick start") :]
        block = re.search(r"^```sh\n(.*?)^```", section, flags=re.M | re.S).group(1)
        monkeypatch.chdir(tmp_path)
        for name, body in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, flags=re.M | re.S):
            Path(name).write_text(body, encoding="utf-8")
        commands = [shlex.split(line) for line in block.splitlines() if line.startswith("faceaudit ")]
        assert len(commands) == 5
        for argv in commands:
            assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


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

    def test_positives_all_keeps_every_genuine_pair(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(
            json.dumps({"identities_per_group": {"man,asian": 12}, "images_per_identity": 5}),
            encoding="utf-8",
        )
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        embeddings = str(tmp_path / "data" / "embeddings.freb")
        counts = {}
        for value in ("6", "all"):
            out = tmp_path / f"pairs-{value}.csv"
            argv = ["pairs", "--embeddings", embeddings, "--negatives", "5", "--out", str(out)]
            assert main([*argv, "--positives", value]) == 0
            counts[value] = read_trials_csv(out)[0].n_genuine
        assert counts == {"6": 12 * 6, "all": 12 * 10}  # 5 images: 10 pairs

    def test_file_audit_records_no_seed(self, workspace, tmp_path):
        # no seed played a role in an audit of files; run-all records its own
        out = tmp_path / "audit"
        argv = ["audit", "--scores", str(workspace["scored"])]
        assert main([*argv, "--attributes", str(workspace["attributes"]), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["seed"] is None

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

    def test_three_grouping_attributes(self, workspace, tmp_path):
        outdir = tmp_path / "explain"
        argv = ["explain", "--scores", str(workspace["scored"])]
        argv += ["--attributes", str(workspace["attributes"]), "--out", str(outdir)]
        assert main([*argv, "--group-by", "gender,ethnicity,forehead_occluded"]) == 0
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        table = (outdir / "tables" / "eer_far.csv").read_text(encoding="utf-8").splitlines()
        assert table[0] == "gender,ethnicity,forehead_occluded,far"
        assert len(table) == 1 + len(report["analyses"][0]["groups"])


class TestLabelsAndFarTargets:
    """Input that no bundle can hold is refused before anything is
    written: a FAR target that is no decimal, or a figure label, from a
    schema name or level, holding a character that XML 1.0, and so an
    SVG, cannot carry."""

    def test_far_target(self, tmp_path, capsys):
        config, out = tmp_path / "config.json", tmp_path / "out"
        audit = {"policies": ["eer", "far@0_1"]}
        config.write_text(json.dumps({"synth": {"identities_per_group": _CELLS}, "audit": audit}))
        assert main(["run-all", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "faceaudit run-all: audit.policies: malformed threshold policy 'far@0_1'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["explain", "run-all"])
    @pytest.mark.parametrize(
        "variable, key, value, where, char",
        [
            (3, "name", "must\x01ache", "schema.variables[3].name", "\x01"),
            (0, "levels", ["man", "wo\x00man"], "schema.variables[0].levels[1]", "\x00"),
        ],
        ids=["name", "level"],
    )
    def test_schema_label(
        self, workspace, tmp_path, capsys, command, variable, key, value, where, char
    ):
        document = schema_document()
        document["variables"][variable][key] = value
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps(document), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"identities_per_group": _CELLS}}), "utf-8")
        inputs = {
            "explain": ["--scores", workspace["scored"], "--attributes", workspace["attributes"]],
            "run-all": ["--config", config],
        }[command]
        out = tmp_path / "out"
        argv = [command, *map(str, inputs), "--schema", str(schema), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"faceaudit {command}: {schema}: {where} holds {char!r}, which XML 1.0 cannot carry\n"
        )
        assert not out.exists()


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
    cohort = load_cohort(inputs["embeddings"])
    renamed = dataclasses.replace(  # one prefix keeps the cohort order
        cohort,
        image_ids=tuple(prefix + image for image in cohort.image_ids),
        identities=tuple(prefix + identity for identity in cohort.identities),
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
        # data/ is written for inspection; run-all never reads it back, and
        # it audits with the profiles synth computed
        def refuse(*args, **kwargs):
            raise AssertionError("run-all loaded a cohort from files or aggregated it again")

        monkeypatch.setattr("faceaudit.cli.load_cohort", refuse)
        monkeypatch.setattr("faceaudit.cli.read_attributes", refuse)
        monkeypatch.setattr("faceaudit.cli.profiles_from_rows", refuse)
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


_SPLIT = pytest.mark.xfail(strict=True, reason="ROADMAP item 6")


class TestExplainOnRunAllFiles:
    """``explain`` on the files ``run-all`` writes reports what ``run-all``
    reported, apart from the seed.  The trial file names no identities,
    so an identity whose kept genuine pairs do not connect its images is
    read back as several (ROADMAP item 6): 6 pairs connect 4 images, but
    2 cannot connect 4, nor 6 connect 8."""

    @pytest.mark.parametrize(
        "images, positives",
        [(4, 6), pytest.param(4, 2, marks=_SPLIT), pytest.param(8, 6, marks=_SPLIT),
         pytest.param(8, 2, marks=_SPLIT)],
    )
    def test_same_report(self, tmp_path, images, positives):
        cells = ["man,asian", "woman,asian", "man,black", "woman,black"]
        synth = {"identities_per_group": dict.fromkeys(cells, 6), "images_per_identity": images,
                 "dim": 16, "seed": 3}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": synth, "trials": {
            "positives_per_identity": positives, "negatives_per_identity": 20}}), encoding="utf-8")
        run, explained = tmp_path / "run", tmp_path / "explain"
        assert main(["run-all", "--config", str(config), "--out", str(run)]) == 0
        argv = ["explain", "--scores", run / "trials.csv"]
        argv += ["--attributes", run / "data" / "attributes.csv", "--out", explained]
        assert main(list(map(str, argv))) == 0
        reports = [json.loads((out / "report.json").read_text(encoding="utf-8"))
                   for out in (run, explained)]
        for report in reports:
            del report["seed"]
        assert reports[0] == reports[1]


class TestTrialRowsFreed:
    """The audit reads the census of the scored trials: the trial pairs
    and the scores are freed before it starts."""

    @pytest.mark.parametrize("command", ["audit", "explain", "explain-embeddings", "run-all"])
    def test_dead_when_the_audit_starts(self, workspace, tmp_path, monkeypatch, command):
        refs, audits = [], []
        read_trials_csv, score_trials = cli.read_trials_csv, cli.score_trials
        run_audit = cli.run_audit

        def keep(trials, scores):
            refs.extend([weakref.ref(trials.pairs), weakref.ref(scores)])

        def reading(*args):
            trials, scores = read_trials_csv(*args)
            keep(trials, scores)
            return trials, scores

        def scoring(cohort, trials):
            scores = score_trials(cohort, trials)
            keep(trials, scores)
            return scores

        def auditing(*args):
            assert refs and not [ref for ref in refs if ref() is not None]
            audits.append(args)
            return run_audit(*args)

        monkeypatch.setattr(cli, "read_trials_csv", reading)
        monkeypatch.setattr(cli, "score_trials", scoring)
        monkeypatch.setattr(cli, "run_audit", auditing)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"identities_per_group": _CELLS}}), "utf-8")
        files = ["--scores", workspace["scored"], "--attributes", workspace["attributes"]]
        argv = {
            "audit": ["audit", *files],
            "explain": ["explain", *files],
            "explain-embeddings": ["explain", *files, "--embeddings", workspace["embeddings"]],
            "run-all": ["run-all", "--config", config],
        }[command]
        assert main([*map(str, argv), "--out", str(tmp_path / "out")]) == 0
        assert len(audits) == 1

    def test_vectors_dead_when_the_trials_are_read(self, workspace, tmp_path, monkeypatch):
        # the embedding file serves explain as an identity map only
        refs, reads = [], []
        load_cohort, read_trials_csv = cli.load_cohort, cli.read_trials_csv

        def loading(path):
            cohort = load_cohort(path)
            refs.append(weakref.ref(cohort.vectors))
            return cohort

        def reading(*args):
            assert refs and refs[0]() is None
            reads.append(args)
            return read_trials_csv(*args)

        monkeypatch.setattr(cli, "load_cohort", loading)
        monkeypatch.setattr(cli, "read_trials_csv", reading)
        argv = ["explain", "--scores", workspace["scored"], "--attributes",
                workspace["attributes"], "--embeddings", workspace["embeddings"]]
        assert main([*map(str, argv), "--out", str(tmp_path / "out")]) == 0
        assert len(reads) == 1


_ATTRIBUTE_FAULTS = (
    "header", "unknown-column", "duplicate-column", "duplicate-image", "bad-level", "bad-flag",
    "cell-count", "not-a-number", "header-only", "empty", "not-utf-8", "missing",
)


def _attribute_faults(text):
    """Fault name -> (file text, or None for no file; the line after the path)."""
    header, first, second, *rest = text.splitlines(keepends=True)
    rest = "".join(rest)
    number = second.replace(",0.", ",x0.", 1)
    appended = text.count("\n") + 1  # the file line of a row added at the end
    return {
        "header": ("who" + text[len("image_id"):], ": first attribute column must be image_id"),
        "unknown-column": (
            text.replace(",blur,", ",blurry,", 1), ": unknown attribute column 'blurry'"
        ),
        "duplicate-column": (
            text.replace(",blur,", ",age,", 1), ": duplicate attribute column 'age'"
        ),
        "duplicate-image": (text + first, f":{appended}: duplicate image_id 'u00000_00'"),
        "bad-level": (
            header + first.replace(",man,", ",robot,", 1) + second + rest,
            ":2: image 'u00000_00': variable 'gender': cannot parse value 'robot'",
        ),
        "bad-flag": (
            header + first.replace(",0,0,0,", ",0,7,0,", 1) + second + rest,
            ":2: image 'u00000_00': variable 'eyes_occluded': 7.0 is not a valid flag",
        ),
        "cell-count": (
            header + first[:-1] + ",1\n" + second + rest, ":2: expected 21 cells, got 22"
        ),
        "not-a-number": (
            header + first + number + rest,
            f":3: image 'u00000_01': variable 'mustache': cannot parse value "
            f"'{number.split(',')[4]}'",
        ),
        "header-only": (header, ": no attribute row names an image of {scores}"),
        "empty": ("", ": empty attribute file"),
        "not-utf-8": (
            header + "\udcff" + first + second + rest, ": not UTF-8 text: invalid start byte"
        ),
        "missing": (None, ": No such file or directory"),
    }


class TestAttributeReader:
    """``audit`` and ``explain`` read the attribute file in a forked child
    while they read the trial file; the faults, their order and the bundle
    are those of an in-process read, and no child outlives the command."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _explain(workspace, out, attributes=None, scores=None):
        argv = ["explain", "--scores", scores or workspace["scored"], "--attributes",
                attributes or workspace["attributes"], "--out", out]
        return main(list(map(str, argv)))

    @pytest.mark.parametrize("reader", ["faulty-file", "still-reading"])
    def test_trial_fault_named_first(self, workspace, tmp_path, capsys, monkeypatch, reader):
        lines = workspace["scored"].read_text(encoding="utf-8").splitlines(keepends=True)
        scores, attributes = tmp_path / "scores.csv", tmp_path / "attributes.csv"
        scores.write_text("".join([*lines[:4], "a,b,impostor,high\n", *lines[4:]]), "utf-8")
        attributes.write_text("who,gender\na,man\n", encoding="utf-8")
        if reader == "still-reading":  # the reader is killed, not waited for
            monkeypatch.setattr(cli, "read_attributes", lambda *args: time.sleep(60))
        began = time.monotonic()
        assert self._explain(workspace, tmp_path / "o", attributes, scores) == 2
        assert time.monotonic() - began < 30
        assert capsys.readouterr().err == f"faceaudit explain: {scores}:5: bad score 'high'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault", _ATTRIBUTE_FAULTS)
    def test_attribute_fault_unchanged(self, workspace, tmp_path, capsys, fault):
        # each line as the in-process read printed it
        text = workspace["attributes"].read_text(encoding="utf-8")
        body, message = _attribute_faults(text)[fault]
        attributes = tmp_path / f"{fault}.csv"
        if body is not None:
            attributes.write_bytes(body.encode("utf-8", "surrogateescape"))
        assert self._explain(workspace, tmp_path / "o", attributes) == 2
        message = message.format(scores=workspace["scored"])
        assert capsys.readouterr().err == f"faceaudit explain: {attributes}{message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the patched reader would end pytest")
    @pytest.mark.parametrize("how, status", [("exit", "3"), ("kill", "-9")])
    def test_reader_without_result(self, workspace, tmp_path, capsys, monkeypatch, how, status):
        def end(*args):
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli, "read_attributes", end)
        assert self._explain(workspace, tmp_path / "o") == 2
        captured = capsys.readouterr()
        want = f"the attribute reader ended without a result (exit status {status})"
        assert captured.err == f"faceaudit explain: {workspace['attributes']}: {want}\n"
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_fork_warning_not_printed(self, workspace, tmp_path, capsys, monkeypatch):
        # Python 3.12+ warns when a process with threads, such as OpenBLAS's, forks
        fork = os.fork

        def warning_fork():
            message = "This process is multi-threaded, use of fork() may lead to deadlocks"
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert self._explain(workspace, tmp_path / "o") == 0
        assert capsys.readouterr().err == ""

    def test_same_bundle_without_fork(self, workspace, tmp_path, monkeypatch):
        pids, read_attributes = [], cli.read_attributes

        def reading(*args):
            pids.append(os.getpid())
            return read_attributes(*args)

        monkeypatch.setattr(cli, "read_attributes", reading)
        assert self._explain(workspace, tmp_path / "forked") == 0
        assert pids == []  # the call, and its record, stayed in the child
        monkeypatch.delattr(os, "fork")
        assert self._explain(workspace, tmp_path / "in-process") == 0
        assert pids == [os.getpid()]
        forked, in_process = (_walk_bytes(tmp_path / d) for d in ("forked", "in-process"))
        assert forked == in_process and "report.json" in forked


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "faceaudit", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "faceaudit" in proc.stdout

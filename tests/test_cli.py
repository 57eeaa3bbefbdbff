"""Tests for the command-line interface: exit codes, pipelines, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from faceaudit.cli import main
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
            (
                "probe_image_id,reference_image_id,label,score\n"
                "a_0,a_1,genuine,0.9\na_1,a_1,genuine,1.0\na_0,b_0,impostor,0.1\n",
                "cannot reuse image 'a_1'",
            ),
        ],
        ids=["header", "short-row", "label", "score", "genuine-same-image"],
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


class TestNumericalErrors:
    def test_rank_deficiency_exits_three(self, tmp_path, capsys):
        # cells differing in both protected attributes make the gender and
        # ethnicity dummies identical, which the regression cannot separate
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
        assert rc == 3
        err = capsys.readouterr().err
        assert "faceaudit explain:" in err


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

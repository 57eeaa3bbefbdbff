"""Command-line front end.

Subcommands compose through the documented file formats, so each one is
runnable standalone:

    synth      draw a synthetic cohort and write its artifacts
    pairs      build verification pairs from an embedding file
    score      fill in cosine scores for a pair file
    calibrate  pick operating thresholds from scored pairs
    audit      group rates, gaps, and rank tests from scored pairs
    explain    audit plus correlation/regression analyses
    report     re-render tables and figures from a report.json
    run-all    synth + pairs + score + audit + explain + bundle

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from faceaudit import __version__
from faceaudit.calibration import calibrate, parse_policy
from faceaudit.cohort import aggregate_profiles, load_cohort, read_attributes
from faceaudit.errors import DataError, NumericalError
from faceaudit.pipeline import (
    AuditOptions,
    AuditResults,
    audit_cohort,
    profiles_from_rows,
    run_audit,
)
from faceaudit.report import dump_payload, emit_bundle, render_from_file
from faceaudit.schema import default_schema, load_schema
from faceaudit.synth import config_from_dict, generate, write_synth
from faceaudit.trials import (
    TrialPolicy,
    generate_trials,
    read_trials_csv,
    score_trials,
    write_trials_csv,
)

_DEFAULT_GROUP_BY = "gender,ethnicity"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1) from None


def _policy_arg(text: str) -> str:
    parse_policy(text)  # raises DataError (a ValueError) on bad input
    return text


def _seed_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed_arg, default=None, help="generator seed")
    common.add_argument(
        "--threshold-policy",
        action="append",
        type=_policy_arg,
        default=None,
        metavar="POLICY",
        help="eer or far@<rate>; repeat for several operating points",
    )
    common.add_argument(
        "--group-by",
        default=None,
        metavar="ATTRS",
        help="comma-separated grouping attributes (default gender,ethnicity)",
    )
    common.add_argument("--schema", default=None, metavar="PATH", help="schema JSON")
    common.add_argument("--out", default=None, metavar="PATH", help="output file/directory")

    parser = _Parser(prog="faceaudit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"faceaudit {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic cohort")
    p.add_argument("--config", required=True, metavar="PATH", help="synth config JSON")

    p = sub.add_parser("pairs", parents=[common], help="build verification pairs")
    p.add_argument("--embeddings", required=True, metavar="PATH")
    p.add_argument("--positives", type=int, default=6, metavar="N")
    p.add_argument("--negatives", type=int, default=50, metavar="N")
    p.add_argument(
        "--positive-mode", choices=("all_pairs_capped", "sample"), default="all_pairs_capped"
    )
    p.add_argument("--all-positives", action="store_true", help="keep every genuine pair")

    p = sub.add_parser("score", parents=[common], help="score pairs with cosine similarity")
    p.add_argument("--embeddings", required=True, metavar="PATH")
    p.add_argument("--pairs", required=True, metavar="PATH")

    p = sub.add_parser("calibrate", parents=[common], help="pick operating thresholds")
    p.add_argument("--scores", required=True, metavar="PATH")

    for name, help_text in (
        ("audit", "group rates, fairness gaps, rank tests"),
        ("explain", "audit plus correlations and regression"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--scores", required=True, metavar="PATH")
        p.add_argument("--attributes", required=True, metavar="PATH")
        p.add_argument("--embeddings", default=None, metavar="PATH")
        p.add_argument("--standardize", action="store_true")

    p = sub.add_parser("report", parents=[common], help="re-render an existing report")
    p.add_argument("--results", required=True, metavar="PATH", help="report.json path")

    p = sub.add_parser("run-all", parents=[common], help="full pipeline from a config")
    p.add_argument("--config", required=True, metavar="PATH", help="pipeline config JSON")

    return parser


def _require_out(args) -> Path:
    if not args.out:
        raise _UsageError("--out is required for this command")
    return Path(args.out)


def _load_schema(args):
    return load_schema(args.schema) if args.schema else default_schema()


def _group_by(args) -> tuple[str, ...]:
    text = args.group_by or _DEFAULT_GROUP_BY
    attrs = tuple(part.strip() for part in text.split(",") if part.strip())
    if not attrs:
        raise _UsageError("--group-by needs at least one attribute name")
    return attrs


def _policies(args) -> tuple[str, ...]:
    return tuple(args.threshold_policy) if args.threshold_policy else ("eer",)


def _read_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc}") from exc


def _cmd_synth(args) -> int:
    outdir = _require_out(args)
    data = _read_json(args.config)
    config = config_from_dict(data.get("synth", data) if isinstance(data, dict) else data)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    schema = _load_schema(args)
    result = generate(config, schema)
    paths = write_synth(outdir, result, schema)
    print(f"identities: {len(result.ground_truth['identities'])}")
    print(f"images: {len(result.records)}")
    for key in sorted(paths):
        print(f"{key}: {paths[key]}")
    return 0


def _cmd_pairs(args) -> int:
    out = _require_out(args)
    cohort = load_cohort(args.embeddings, None, default_schema())
    policy = TrialPolicy(
        positives_per_identity=None if args.all_positives else args.positives,
        negatives_per_identity=args.negatives,
        positive_mode=args.positive_mode,
    )
    trials = generate_trials(cohort, policy, args.seed if args.seed is not None else 0)
    write_trials_csv(out, trials, None)
    print(f"genuine pairs: {trials.n_genuine}")
    print(f"impostor pairs: {trials.n_impostor}")
    print(f"pairs file: {out}")
    return 0


def _cmd_score(args) -> int:
    out = _require_out(args)
    cohort = load_cohort(args.embeddings, None, default_schema())
    identity_of = {rec.image_id: rec.identity_id for rec in cohort.records.values()}
    trials, _ = read_trials_csv(args.pairs, identity_of)
    scores = score_trials(cohort, trials)
    write_trials_csv(out, trials, scores)
    print(f"scored pairs: {len(scores)}")
    print(f"scores file: {out}")
    return 0


def _split_scores(path):
    trials, scores = read_trials_csv(path)
    if np.isnan(scores).any():
        raise DataError(f"{path}: contains unscored pairs; run score first")
    labels = trials.genuine
    if labels.all() or not labels.any():
        raise DataError(f"{path}: needs both genuine and impostor pairs")
    return scores, labels


def _cmd_calibrate(args) -> int:
    scores, labels = _split_scores(args.scores)
    points = [
        calibrate(scores[labels], scores[~labels], policy) for policy in _policies(args)
    ]
    payload = {
        "operating_points": [
            {"policy": op.policy, "tau": op.tau, "far": op.far, "frr": op.frr}
            for op in points
        ]
    }
    text = dump_payload(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"operating points: {args.out}")
    else:
        print(text, end="")
    return 0


def _audit_like(args, explain: bool) -> int:
    outdir = _require_out(args)
    schema = _load_schema(args)
    if args.embeddings:
        cohort = load_cohort(args.embeddings, args.attributes, schema)
        identity_of = {rec.image_id: rec.identity_id for rec in cohort.records.values()}
        trials, scores = read_trials_csv(args.scores, identity_of)
        profiles = aggregate_profiles(cohort, schema)
    else:
        trials, scores = read_trials_csv(args.scores)
        rows = {r.image_id: r.values for r in read_attributes(args.attributes, schema)}
        profiles = profiles_from_rows(rows, trials.identity_of(), schema)
    if np.isnan(scores).any():
        raise DataError(f"{args.scores}: contains unscored pairs; run score first")
    options = AuditOptions(
        policies=_policies(args),
        group_by=_group_by(args),
        explain=explain,
        standardize=args.standardize,
    )
    seed = args.seed if args.seed is not None else 0
    return _finish(outdir, run_audit(trials, scores, profiles, schema, options, seed))


def _finish(outdir: Path, results: AuditResults) -> int:
    """Write the report bundle and print one summary line per policy."""
    written = emit_bundle(outdir, results)
    for analysis in results.analyses:
        op = analysis.operating_point
        print(f"{op.policy}: tau={op.tau:.6f} far={op.far:.6f} frr={op.frr:.6f}")
    print(f"report: {written['report']}")
    return 0


def _cmd_report(args) -> int:
    outdir = _require_out(args)
    written = render_from_file(args.results, outdir)
    print(f"tables: {len(written['tables'])}")
    print(f"figures: {len(written['figures'])}")
    return 0


_TRIALS_KEYS = {"positives_per_identity", "negatives_per_identity", "positive_mode"}
_AUDIT_KEYS = {"policies", "group_by", "explain", "standardize", "reference_levels"}


def _cmd_run_all(args) -> int:
    outdir = _require_out(args)
    data = _read_json(args.config)
    if "synth" not in data:
        raise DataError(f"{args.config}: run-all config needs a 'synth' section")
    for section, keys in (("trials", _TRIALS_KEYS), ("audit", _AUDIT_KEYS)):
        unknown = set(data.get(section, {})) - keys
        if unknown:
            raise DataError(f"{args.config}: unknown {section} keys: {sorted(unknown)}")
    unknown = set(data) - {"synth", "trials", "audit"}
    if unknown:
        raise DataError(f"{args.config}: unknown config sections: {sorted(unknown)}")
    audit_cfg = data.get("audit", {})
    for key in ("policies", "group_by"):
        value = audit_cfg.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise DataError(f"{args.config}: audit.{key} must be a list of strings")

    config = config_from_dict(data["synth"])
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    schema = _load_schema(args)
    result = generate(config, schema)
    artifact_paths = write_synth(outdir / "data", result, schema)

    cohort = load_cohort(artifact_paths["embeddings"], artifact_paths["attributes"], schema)
    trials_cfg = data.get("trials", {})
    policy = TrialPolicy(
        positives_per_identity=trials_cfg.get("positives_per_identity", 6),
        negatives_per_identity=trials_cfg.get("negatives_per_identity", 50),
        positive_mode=trials_cfg.get("positive_mode", "all_pairs_capped"),
    )
    trials = generate_trials(cohort, policy, config.seed)
    scores = score_trials(cohort, trials)
    write_trials_csv(outdir / "trials.csv", trials, scores)

    options = AuditOptions(
        policies=(
            _policies(args)
            if args.threshold_policy
            else tuple(audit_cfg.get("policies", ("eer",)))
        ),
        group_by=(
            _group_by(args)
            if args.group_by
            else tuple(audit_cfg.get("group_by", config.group_attributes))
        ),
        explain=bool(audit_cfg.get("explain", True)),
        standardize=bool(audit_cfg.get("standardize", False)),
        reference_levels=dict(audit_cfg.get("reference_levels", {})),
    )
    for policy_text in options.policies:
        parse_policy(policy_text)
    return _finish(outdir, audit_cohort(cohort, trials, scores, schema, options, config.seed))


_DISPATCH = {
    "synth": _cmd_synth,
    "pairs": _cmd_pairs,
    "score": _cmd_score,
    "calibrate": _cmd_calibrate,
    "audit": lambda args: _audit_like(args, explain=False),
    "explain": lambda args: _audit_like(args, explain=True),
    "report": _cmd_report,
    "run-all": _cmd_run_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"faceaudit {args.command}: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"faceaudit {args.command}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"faceaudit {args.command}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"faceaudit {args.command}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())

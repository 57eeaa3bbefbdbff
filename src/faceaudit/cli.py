"""Command-line front end.

Subcommands compose through the documented file formats, so each one is
runnable standalone:

    synth      draw a synthetic cohort and write its artifacts
    pairs      build verification pairs from an embedding file
    score      fill in cosine scores for a pair file
    calibrate  pick operating thresholds from scored pairs
    audit      group rates, gaps, and rank tests from scored pairs
    explain    audit plus correlation/regression analyses
    run-all    synth + pairs + score + audit + explain + bundle

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pickle
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from faceaudit import __version__
from faceaudit.calibration import calibrate, parse_policy
from faceaudit.cohort import ImageTable, load_cohort, read_attributes
from faceaudit.errors import DataError, NumericalError, SchemaError
from faceaudit.inputs import from_json, read_json
from faceaudit.metrics import TrialCensus, trial_census
from faceaudit.pipeline import AuditOptions, profiles_from_rows, run_audit
from faceaudit.report import dump_payload, emit_bundle, op_payload
from faceaudit.schema import default_schema, load_schema
from faceaudit.synth import SynthConfig, generate, write_synth
from faceaudit.trials import (
    TrialPolicy,
    generate_trials,
    read_trials_csv,
    score_trials,
    write_trials_csv,
)

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1, with
    argparse's message as one stderr line."""

    def error(self, message):
        print(f"{self.prog}: {message}", file=sys.stderr)
        raise SystemExit(1) from None


def _policy_arg(text: str) -> str:
    try:
        parse_policy(text)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _at_least(text: str, least: int, alternative: str = "") -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}{alternative}, got {text!r}")
    return value


def _positives_arg(text: str) -> int | None:
    return None if text == "all" else _at_least(text, 1, " or 'all'")


def _group_by_arg(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(","))
    if not all(names):
        raise argparse.ArgumentTypeError(f"expected comma-separated attribute names, got {text!r}")
    return names


# Every flag a command may take, with its argparse settings.
_FLAGS = {
    "--config": {"metavar": "PATH", "help": "config JSON"},
    "--seed": {"type": partial(_at_least, least=0), "help": "generator seed (default: the config's, or 0)"},
    "--embeddings": {"metavar": "PATH", "help": "embedding file"},
    "--positives": {"type": _positives_arg, "default": 6, "metavar": "N|all"},
    "--negatives": {"type": partial(_at_least, least=0), "default": 50, "metavar": "N"},
    "--pairs": {"metavar": "PATH", "help": "pair file"},
    "--scores": {"metavar": "PATH", "help": "scored pair file"},
    "--attributes": {"metavar": "PATH", "help": "attribute file"},
    "--threshold-policy": {
        "action": "append",
        "type": _policy_arg,
        "metavar": "POLICY",
        "help": "eer or far@<rate>; repeat for several operating points",
    },
    "--group-by": {
        "type": _group_by_arg,
        "metavar": "ATTRS",
        "help": "comma-separated grouping attributes (default gender,ethnicity)",
    },
    "--schema": {"metavar": "PATH", "help": "schema JSON"},
    "--standardize": {"action": "store_true", "help": "z-score continuous regression columns"},
    "--out": {"metavar": "PATH", "help": "output file or directory"},
}

# The flags each command reads, and only those; a bracketed one is optional.
_AUDIT = "--scores --attributes [--embeddings] [--threshold-policy] [--group-by] [--schema] --out"
_COMMANDS = {
    "synth": ("generate a synthetic cohort", "--config [--seed] [--schema] --out"),
    "pairs": ("build verification pairs", "--embeddings [--positives] [--negatives] [--seed] --out"),
    "score": ("score pairs with cosine similarity", "--embeddings --pairs --out"),
    "calibrate": ("pick operating thresholds", "--scores [--threshold-policy] [--out]"),
    "audit": ("group rates, fairness gaps, rank tests", _AUDIT),
    "explain": ("audit plus correlations and regression", f"{_AUDIT} [--standardize]"),
    "run-all": (
        "full pipeline from a config",
        "--config [--seed] [--threshold-policy] [--group-by] [--schema] --out",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="faceaudit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"faceaudit {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag.strip("[]"), required=flag[0] != "[", **_FLAGS[flag.strip("[]")])
    return parser


def _load_schema(args):
    return load_schema(args.schema) if args.schema else default_schema()


def _with_flags(options: AuditOptions, args) -> AuditOptions:
    """``options`` with the command's ``--threshold-policy`` and ``--group-by`` flags applied."""
    if args.threshold_policy:
        options = dataclasses.replace(options, policies=tuple(args.threshold_policy))
    if getattr(args, "group_by", None):
        options = dataclasses.replace(options, group_by=args.group_by)
    return options


def _synth_config(document, args, schema) -> SynthConfig:
    """The synth section, bare or under "synth", with ``--seed`` applied and checked."""
    if isinstance(document, dict):
        document = document.get("synth", document)
    config = from_json(SynthConfig, document, "synth")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        config.validate_schema(schema)
    except SchemaError as exc:
        raise SchemaError(f"synth.{exc}") from None
    return config


def _cmd_synth(args) -> int:
    schema = _load_schema(args)
    result = generate(_synth_config(read_json(args.config), args, schema), schema)
    paths = write_synth(args.out, result, schema)
    print(f"identities: {len(result.profiles.identities)}")
    print(f"images: {len(result.records)}")
    for key in sorted(paths):
        print(f"{key}: {paths[key]}")
    return 0


def _cmd_pairs(args) -> int:
    cohort = load_cohort(args.embeddings)
    policy = TrialPolicy(positives_per_identity=args.positives, negatives_per_identity=args.negatives)
    trials = generate_trials(cohort, policy, args.seed or 0)
    write_trials_csv(args.out, trials, None)
    print(f"genuine pairs: {trials.n_genuine}")
    print(f"impostor pairs: {trials.n_impostor}")
    print(f"pairs file: {args.out}")
    return 0


def _cmd_score(args) -> int:
    cohort = load_cohort(args.embeddings)
    trials, _ = read_trials_csv(args.pairs, cohort)
    scores = score_trials(cohort, trials)
    write_trials_csv(args.out, trials, scores)
    print(f"scored pairs: {len(scores)}")
    print(f"scores file: {args.out}")
    return 0


def _images(table: ImageTable) -> ImageTable:
    """The image table alone of ``table``, a cohort or a trial set."""
    return ImageTable(table.image_ids, table.identity_codes, table.identities)


def _read_census(path, embeddings=None) -> tuple[TrialCensus, ImageTable]:
    """The census of the scored trials in ``path`` and the image table of
    their identities: the ``embeddings`` file's if given (its vectors are
    freed at once), else the trial file's; the pairs and scores are freed
    when it returns."""
    identities = _images(load_cohort(embeddings)) if embeddings else None
    trials, scores = read_trials_csv(path, identities)
    if np.isnan(scores).any():
        raise DataError(f"{path}: contains unscored pairs; run score first")
    census = trial_census(trials, scores)
    if not (census.genuine_scores.size and census.impostor_scores.size):
        raise DataError(f"{path}: needs both genuine and impostor pairs")
    return census, identities or _images(trials)


def _cmd_calibrate(args) -> int:
    policies = _with_flags(AuditOptions(), args).policies
    census, _ = _read_census(args.scores)
    points = [calibrate(census.genuine_scores, census.impostor_scores, p) for p in policies]
    text = dump_payload({"operating_points": list(map(op_payload, points))})
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"operating points: {args.out}")
    else:
        print(text, end="")
    return 0


def _beside_attributes(path, schema, work):
    """``work()`` and ``read_attributes(path, schema)``, read in a forked child as ``work`` runs."""
    if not hasattr(os, "fork"):
        return work(), read_attributes(path, schema)
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with threads (OpenBLAS's) forks.  The
        # child is safe: it makes no BLAS call, starts no thread, and ends in os._exit.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if not pid:
        try:
            os.close(read)
            try:
                result = True, read_attributes(path, schema)
            except Exception as exc:
                result = False, exc
            with open(write, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            done = work()
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child ended without a result
                ok = None
        finally:  # the child has sent its result, or work raised: its faults come first
            os.kill(pid, 9)  # SIGKILL, so that no command pays for importing signal
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if ok is None:
        raise DataError(f"{path}: the attribute reader ended without a result (exit status {status})")
    if not ok:
        raise value
    return done, value


def _audit_like(args, options: AuditOptions) -> int:
    schema = _load_schema(args)
    options = _with_flags(options, args)
    default = f"default group-by {','.join(options.group_by)} (--group-by overrides it)"
    schema.check_grouping(options.group_by, group_key="--group-by" if args.group_by else default)
    read_census = partial(_read_census, args.scores, args.embeddings)
    (census, images), table = _beside_attributes(args.attributes, schema, read_census)
    if set(images.image_ids).isdisjoint(table.image_ids):  # rows of other images are ignored
        source = args.embeddings or args.scores
        raise DataError(f"{args.attributes}: no attribute row names an image of {source}")
    profiles = profiles_from_rows(table, images, schema)
    del table, images  # the audit reads only the census and the profiles
    return _finish(args.out, run_audit(census, profiles, schema, options))


def _finish(outdir: str | Path, report: dict) -> int:
    """Write the report bundle and print one summary line per policy."""
    written = emit_bundle(outdir, report)
    for analysis in report["analyses"]:
        op = analysis["operating_point"]
        print(f"{op['policy']}: tau={op['tau']:.6f} far={op['far']:.6f} frr={op['frr']:.6f}")
    print(f"report: {written['report']}")
    return 0


def _cmd_run_all(args) -> int:
    outdir = Path(args.out)
    data = read_json(args.config)
    if not isinstance(data, dict) or "synth" not in data:
        raise DataError(f"{args.config}: run-all config needs a 'synth' section")
    unknown = set(data) - {"synth", "trials", "audit"}
    if unknown:
        raise DataError(f"{args.config}: unknown config sections: {sorted(unknown)}")
    schema = _load_schema(args)
    config = _synth_config(data, args, schema)
    policy = from_json(TrialPolicy, data.get("trials", {}), "trials")
    defaults = {"explain": True, "group_by": config.group_attributes}
    options = _with_flags(from_json(AuditOptions, data.get("audit", {}), "audit", **defaults), args)
    schema.check_grouping(
        options.group_by,
        options.reference_levels,
        "--group-by" if args.group_by else "audit.group_by",
        "audit.reference_levels",
    )

    result = generate(config, schema)
    write_synth(outdir / "data", result, schema)  # for inspection; the audit reads none of it
    trials = generate_trials(result.records, policy, config.seed)
    scores = score_trials(result.records, trials)
    write_trials_csv(outdir / "trials.csv", trials, scores)
    census = trial_census(trials, scores)
    profiles = result.profiles
    del result, trials, scores  # the audit reads the census and the profiles
    return _finish(outdir, run_audit(census, profiles, schema, options, config.seed))


_DISPATCH = {
    "synth": _cmd_synth,
    "pairs": _cmd_pairs,
    "score": _cmd_score,
    "calibrate": _cmd_calibrate,
    "audit": lambda args: _audit_like(args, AuditOptions()),
    "explain": lambda args: _audit_like(
        args, AuditOptions(explain=True, standardize=args.standardize)
    ),
    "run-all": _cmd_run_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    def show(message, *_):  # one stderr line per warning
        print(f"faceaudit {args.command}: warning: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():  # the caller's warnings state is restored
            warnings.showwarning = show
            return _DISPATCH[args.command](args)
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

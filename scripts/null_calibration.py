"""Measure the regression false-positive rate on effect-free cohorts.

Generates many cohorts with no planted attribute effects, fits the
per-identity FAR regression on each, and reports how often a
coefficient comes out significant at p < 0.05.  A well-calibrated
model should land near the nominal 5 percent.
"""

import argparse

import numpy as np

from faceaudit.calibration import calibrate
from faceaudit.cohort import aggregate_profiles, build_cohort
from faceaudit.explain import explanatory_report
from faceaudit.metrics import individual_rates
from faceaudit.schema import default_schema
from faceaudit.synth import SynthConfig, generate
from faceaudit.trials import TrialPolicy, generate_trials, score_trials


def run(seeds: int, n_identities: int) -> None:
    schema = default_schema()
    hits = total = 0
    for seed in range(seeds):
        config = SynthConfig(
            identities_per_group={("man", "asian"): n_identities}, dim=32, seed=seed
        )
        result = generate(config, schema)
        cohort = build_cohort(result.records, result.attributes)
        trials = generate_trials(cohort, TrialPolicy(), seed=seed)
        scores = score_trials(cohort, trials)
        labels = trials.genuine
        op = calibrate(scores[labels], scores[~labels], "eer")
        rates, _ = individual_rates(trials, scores, op.tau)
        profiles = aggregate_profiles(cohort, schema)
        report = explanatory_report(profiles, rates, schema, "far", op)
        if report.regression is None:
            print(f"seed {seed}: constant response, skipped")
            continue
        p = np.asarray(report.regression.p_values[1:])
        hits += int((p < 0.05).sum())
        total += p.size
    print(
        f"{seeds} effect-free cohorts of {n_identities} identities: "
        f"{hits}/{total} coefficients significant at p<0.05 "
        f"({hits / total:.1%}, nominal 5.0%)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--identities", type=int, default=120)
    args = parser.parse_args()
    run(args.seeds, args.identities)


if __name__ == "__main__":
    main()

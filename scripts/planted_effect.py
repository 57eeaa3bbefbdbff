"""Plant a blur-to-FAR effect and check the explanatory model finds it.

Generates a cohort where image blur narrows the genuine/impostor
margin, audits it, and prints the Pearson correlation and regression
coefficient the toolkit reports for every image characteristic.  The
blur row should dominate; everything else should sit near zero.
"""

import argparse

from faceaudit.calibration import calibrate
from faceaudit.cohort import aggregate_profiles, build_cohort
from faceaudit.explain import explanatory_report
from faceaudit.metrics import individual_rates
from faceaudit.schema import default_schema
from faceaudit.synth import AttributeEffect, SynthConfig, generate
from faceaudit.trials import TrialPolicy, generate_trials, score_trials


def run(seed: int, strength: float, n_per_group: int) -> None:
    schema = default_schema()
    config = SynthConfig(
        identities_per_group={
            ("man", "asian"): n_per_group,
            ("woman", "asian"): n_per_group,
        },
        dim=48,
        seed=seed,
        attribute_effects=(AttributeEffect("blur", "far", strength),),
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

    print(
        f"seed {seed}: planted blur->far strength {strength}, "
        f"{report.n_cases} identities, tau={op.tau:.4f}"
    )
    print(f"{'column':<22}{'pearson r':>12}{'p':>12}{'coef':>12}{'p':>12}")
    fit = report.regression
    for entry in report.correlations.entries:
        coef = fit.coefficient(entry.column) if fit is not None else float("nan")
        p = fit.p_value(entry.column) if fit is not None else float("nan")
        marker = "  <-- planted" if entry.column == "blur" else ""
        print(
            f"{entry.column:<22}{entry.r:>12.4f}{entry.p_value:>12.2e}"
            f"{coef:>12.4f}{p:>12.2e}{marker}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strength", type=float, default=0.25)
    parser.add_argument("--per-group", type=int, default=300)
    args = parser.parse_args()
    run(args.seed, args.strength, args.per_group)


if __name__ == "__main__":
    main()

"""Plant a blur-to-FAR effect and check the explanatory model finds it.

Generates a cohort where image blur narrows the genuine/impostor
margin, audits it, and prints the Pearson correlation and regression
coefficient the toolkit reports for every image characteristic.  The
blur row should dominate; everything else should sit near zero.
"""

import argparse

from faceaudit.calibration import calibrate
from faceaudit.explain import build_design, explanatory_report
from faceaudit.metrics import individual_rates, trial_census
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
    cohort = result.records
    trials = generate_trials(cohort, TrialPolicy(), seed=seed)
    scores = score_trials(cohort, trials)
    census = trial_census(trials, scores)
    op = calibrate(census.genuine_scores, census.impostor_scores, "eer")
    far, frr = individual_rates(census, op.tau)
    # The trials cover every cohort identity, so the rates align with the profile rows.
    report = explanatory_report(build_design(result.profiles, schema), {"far": far, "frr": frr}, "far", op)

    print(
        f"seed {seed}: planted blur->far strength {strength}, "
        f"{report.n_cases} identities, tau={op.tau:.4f}"
    )
    print(f"{'column':<22}{'pearson r':>12}{'p':>12}{'coef':>12}{'p':>12}")
    fit = report.regression
    for column, entry in report.correlations.entries.items():
        coef = fit.coefficient(column) if fit is not None else float("nan")
        p = fit.p_value(column) if fit is not None else float("nan")
        marker = "  <-- planted" if column == "blur" else ""
        print(
            f"{column:<22}{entry.r:>12.4f}{entry.p_value:>12.2e}"
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

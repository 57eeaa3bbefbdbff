"""Show a pooled gender FAR gap reversing inside ethnicity cells.

Builds the skewed-composition benchmark cohort (men concentrated where
matching is easy, women where it is hard, men harder than women within
every cell), audits it at the EER operating point, and prints the
pooled and per-ethnicity gender gaps side by side.
"""

import argparse

from faceaudit.calibration import calibrate
from faceaudit.metrics import (
    group_membership,
    group_rates,
    individual_rates,
    one_axis_deltas,
    trial_census,
)
from faceaudit.schema import default_schema
from faceaudit.synth import generate, simpson_config
from faceaudit.trials import TrialPolicy, generate_trials, score_trials


def run(seed: int) -> None:
    schema = default_schema()
    config = simpson_config(seed=seed)
    result = generate(config, schema)
    cohort = result.records
    trials = generate_trials(cohort, TrialPolicy(), seed=seed)
    scores = score_trials(cohort, trials)
    census = trial_census(trials, scores)
    op = calibrate(census.genuine_scores, census.impostor_scores, "eer")
    far, frr = individual_rates(census, op.tau)
    # The trials cover every cohort identity, so the rates align with the profile rows.
    membership = group_membership(result.profiles, ("gender", "ethnicity"), schema)
    groups = group_rates(far, frr, membership)

    print(f"seed {seed}: tau={op.tau:.4f} far={op.far:.4f} frr={op.frr:.4f}")
    print(f"{'comparison':<28}{'delta FAR (man - woman)':>26}")
    for d in one_axis_deltas(groups):
        a, b = d.group_a.split(","), d.group_b.split(",")
        if a[0] == "man" and b[0] == "woman" and a[1] == b[1]:
            scope = "pooled" if a[1] == "all" else f"within {a[1]}"
            print(f"{scope:<28}{d.delta_far:>+26.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run(args.seed)


if __name__ == "__main__":
    main()

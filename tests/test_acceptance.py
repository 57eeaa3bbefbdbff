"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion
lines.  Each check pins its tolerance inline; Monte-Carlo checks use
fixed seeds so reruns are bit-for-bit repeatable.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from faceaudit.calibration import calibrate, pooled_rates
from faceaudit.cli import main
from faceaudit.explain import build_design, explanatory_report
from faceaudit.metrics import (
    Group,
    GroupRates,
    fairness_delta,
    individual_rates,
    one_axis_deltas,
    trial_census,
)
from faceaudit.pipeline import AuditOptions, run_audit
from faceaudit.schema import default_schema
from faceaudit.stats import (
    DesignMatrix,
    chi_square_sf,
    fit_ols,
    kruskal_wallis,
    reg_incomplete_beta,
    student_t_sf_two_sided,
)
from faceaudit.synth import AttributeEffect, SynthConfig, generate, simpson_config
from faceaudit.trials import TrialPolicy, generate_trials, score_trials

mpmath.mp.dps = 30


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _audited_far_rates(config, trial_seed=0, negatives=50):
    """Generate, pair, score, calibrate at EER; return (rates, profiles, op)."""
    schema = default_schema()
    result = generate(config, schema)
    cohort = result.records
    trials = generate_trials(
        cohort, TrialPolicy(negatives_per_identity=negatives), seed=trial_seed
    )
    scores = score_trials(cohort, trials)
    census = trial_census(trials, scores)
    op = calibrate(census.genuine_scores, census.impostor_scores, "eer")
    far, frr = individual_rates(census, op.tau)
    # The trials cover every cohort identity, so the rates align with the profile rows.
    return {"far": far, "frr": frr}, result.profiles, op


def test_criterion_01_pair_protocol_arithmetic():
    config = SynthConfig(
        identities_per_group={("man", "asian"): 4, ("woman", "caucasian"): 4},
        dim=16,
        seed=0,
    )
    result = generate(config)
    cohort = result.records
    trials = generate_trials(cohort, TrialPolicy(), seed=0)
    probe = trials.identity_codes[trials.pairs[:, 0]]
    genuine = np.bincount(probe[trials.genuine], minlength=len(trials.identities))
    impostor = np.bincount(probe[~trials.genuine], minlength=len(trials.identities))
    ok = len(trials.identities) == 8 and (genuine == 6).all() and (impostor == 50).all()
    _verdict(1, ok, "4 images/identity gives exactly 6 genuine and 50 impostor pairs")


def test_criterion_02_calibration_recount_oracle():
    rng = np.random.default_rng(12)
    genuine = rng.normal(0.55, 0.15, size=400)
    impostor = rng.normal(0.05, 0.15, size=600)
    gen, imp = np.sort(genuine), np.sort(impostor)
    pooled = np.unique(np.concatenate([genuine, impostor]))
    thresholds = [pooled[0] - 1.0, *pooled, pooled[-1] + 1.0]  # every candidate
    exact = True
    for tau in thresholds:
        far, frr = pooled_rates(gen, imp, tau)
        far_count = sum(1 for s in impostor if s > tau)
        frr_count = sum(1 for s in genuine if s <= tau)
        exact = exact and far == far_count / 600 and frr == frr_count / 400
    op = calibrate(gen, imp, "eer")
    bound = 1.0 / min(len(genuine), len(impostor))
    ok = exact and abs(op.far - op.frr) <= bound
    _verdict(
        2,
        ok,
        f"rates at every candidate of 1000 pairs match a brute-force recount; |FAR-FRR|={abs(op.far - op.frr):.6f} <= {bound}",
    )


def test_criterion_03_rate_delta_arithmetic():
    def cell(levels, far, frr):
        return GroupRates(
            group=Group(("gender", "ethnicity"), levels),
            far=far,
            frr=frr,
            n_members=10,
            members=np.arange(10),
        )

    d = fairness_delta(
        cell(("man", "asian"), 0.051, 0.087), cell(("woman", "asian"), 0.044, 0.061)
    )
    ok = (
        d.delta_far == 0.051 - 0.044
        and d.delta_frr == 0.087 - 0.061
        and round(d.delta_far, 3) == 0.007
        and round(d.delta_frr, 3) == 0.026
    )
    _verdict(3, ok, f"deltas {d.delta_far:.3f} / {d.delta_frr:.3f} match 0.007 / 0.026")


def test_criterion_04_statistics_kernel_accuracy():
    worst = 0.0
    for i in range(50):
        dof = (i % 30) + 1
        t = -8.0 + 16.0 * i / 49.0
        nu = mpmath.mpf(dof)

        def t_pdf(u, nu=nu):
            c = mpmath.gamma((nu + 1) / 2) / (
                mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2)
            )
            return c * (1 + u**2 / nu) ** (-(nu + 1) / 2)

        want_t = float(2 * mpmath.quad(t_pdf, [abs(t), mpmath.inf]))
        worst = max(worst, abs(student_t_sf_two_sided(t, dof) - min(want_t, 1.0)))

        x = 0.1 + 59.9 * i / 49.0
        want_chi = float(
            mpmath.gammainc(mpmath.mpf(dof) / 2, a=x / 2, b=mpmath.inf, regularized=True)
        )
        worst = max(worst, abs(chi_square_sf(x, dof) - want_chi))

        a = 0.5 + 14.5 * i / 49.0
        b = 15.0 - 14.5 * i / 49.0
        xb = (i + 0.5) / 50.0
        want_beta = float(mpmath.betainc(a, b, 0, xb, regularized=True))
        worst = max(worst, abs(reg_incomplete_beta(a, b, xb) - want_beta))
    ok = worst <= 1e-8
    _verdict(4, ok, f"worst error vs quadrature/series oracle {worst:.3e} <= 1e-8")


def test_criterion_05_ols_recovery():
    n, f = 500, 21
    rng = np.random.default_rng(100)
    beta = rng.uniform(-1.0, 1.0, size=f + 1)

    def design(seed):
        r = np.random.default_rng(seed)
        x = np.ones((n, f + 1))
        x[:, 1:] = r.normal(size=(n, f))
        return x

    x = design(0)
    names = ("intercept", *(f"x{j}" for j in range(1, f + 1)))
    noiseless = fit_ols(
        DesignMatrix(matrix=x, column_names=names, row_ids=tuple(map(str, range(n)))),
        x @ beta,
    )
    exact_err = float(np.max(np.abs(noiseless.coefficients - beta)))

    hits = total = 0
    for seed in range(100):
        xs = design(1000 + seed)
        noisy_rng = np.random.default_rng(2000 + seed)
        y = xs @ beta + noisy_rng.normal(0.0, 0.1, size=n)
        fit = fit_ols(
            DesignMatrix(matrix=xs, column_names=names, row_ids=tuple(map(str, range(n)))),
            y,
        )
        inside = np.abs(fit.coefficients - beta) <= 3.0 * fit.std_errors
        hits += int(inside.sum())
        total += inside.size
    coverage = hits / total
    ok = exact_err <= 1e-8 and coverage >= 0.99
    _verdict(
        5,
        ok,
        f"noiseless max error {exact_err:.2e} <= 1e-8; "
        f"3-SE coverage {coverage:.4f} >= 0.99 over 100 runs",
    )


def test_criterion_06_type_one_error_calibration():
    schema = default_schema()
    false_positives = coefficients = 0
    for seed in range(50):
        config = SynthConfig(
            identities_per_group={("man", "asian"): 120}, dim=32, seed=seed
        )
        rates, profiles, op = _audited_far_rates(config, trial_seed=seed)
        report = explanatory_report(build_design(profiles, schema), rates, "far", op)
        fit = report.regression
        if fit is None:
            continue
        p = np.asarray(fit.p_values[1:])
        false_positives += int((p < 0.05).sum())
        coefficients += p.size
    rate = false_positives / coefficients
    ok = rate <= 0.10
    _verdict(
        6,
        ok,
        f"null-model p<0.05 rate {rate:.4f} ({false_positives}/{coefficients}) <= 0.10",
    )


def test_criterion_07_composition_reversal():
    schema = default_schema()
    reversed_runs = 0
    for seed in range(10):
        config = simpson_config(seed=seed)
        result = generate(config, schema)
        cohort = result.records
        trials = generate_trials(cohort, TrialPolicy(), seed=seed)
        scores = score_trials(cohort, trials)
        census = trial_census(trials, scores)
        report = run_audit(census, result.profiles, schema, AuditOptions(policies=("eer",)))
        deltas = report["analyses"][0]["deltas"]["one_axis"]
        marginal = next(
            d for d in deltas if d["group_a"] == "man,all" and d["group_b"] == "woman,all"
        )
        within = [
            d
            for d in deltas
            if d["group_a"].startswith("man,")
            and d["group_b"].startswith("woman,")
            and not d["group_a"].endswith(",all")
            and d["group_a"].split(",")[1] == d["group_b"].split(",")[1]
        ]
        flipped = any(
            d["delta_far"] != 0
            and marginal["delta_far"] != 0
            and math.copysign(1, d["delta_far"]) != math.copysign(1, marginal["delta_far"])
            for d in within
        )
        reversed_runs += int(flipped)
    ok = reversed_runs == 10
    _verdict(
        7,
        ok,
        f"pooled gender FAR gap reverses inside ethnicity cells in {reversed_runs}/10 seeds",
    )


def test_criterion_08_planted_effect_recovery():
    schema = default_schema()
    detections = 0
    premise_shift = None
    for seed in range(20):
        config = SynthConfig(
            identities_per_group={("man", "asian"): 300, ("woman", "asian"): 300},
            dim=48,
            seed=seed,
            attribute_effects=(AttributeEffect("blur", "far", 0.25),),
        )
        rates, profiles, op = _audited_far_rates(config, trial_seed=seed)
        report = explanatory_report(build_design(profiles, schema), rates, "far", op)
        entry = report.correlations.entries["blur"]
        fit = report.regression
        coef = fit.coefficient("blur")
        if premise_shift is None:
            # blur spans [0, 1], so the coefficient is the full-range FAR shift
            premise_shift = coef
        detected = (
            entry.r > 0
            and entry.p_value < 0.01
            and coef > 0
            and fit.p_value("blur") < 0.05
        )
        detections += int(detected)
    ok = premise_shift >= 0.05 and detections >= 19
    _verdict(
        8,
        ok,
        f"planted FAR shift {premise_shift:.3f} >= 0.05; "
        f"sign+significance recovered in {detections}/20 runs (need >= 19)",
    )


def test_criterion_09_rank_test_oracle():
    h, p = kruskal_wallis([np.arange(1.0, 6.0), np.arange(6.0, 11.0)])
    ok = abs(h - 6.818) <= 0.001 and abs(p - 0.009) <= 0.001
    _verdict(9, ok, f"H={h:.4f} within 6.818±0.001, p={p:.4f} within 0.009±0.001")


def test_criterion_10_run_all_determinism(tmp_path):
    config_path = tmp_path / "pipeline.json"
    config_path.write_text(
        json.dumps(
            {
                "synth": {
                    "identities_per_group": {"man,asian": 14, "woman,asian": 14},
                    "dim": 24,
                    "seed": 9,
                },
                "audit": {"policies": ["eer", "far@0.01"]},
            }
        ),
        encoding="utf-8",
    )

    def bundle_bytes(outdir):
        rc = main(["run-all", "--config", str(config_path), "--out", str(outdir)])
        assert rc == 0
        return {
            p.relative_to(outdir).as_posix(): p.read_bytes()
            for p in sorted(outdir.rglob("*"))
            if p.is_file()
        }

    first = bundle_bytes(tmp_path / "a")
    second = bundle_bytes(tmp_path / "b")
    ok = first == second and "report.json" in first
    _verdict(10, ok, f"{len(first)} bundle files byte-identical across reruns")

"""Tests for threshold calibration: rate sweeps, EER, and FAR-targeted picks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faceaudit.calibration import calibrate, parse_policy, sweep_rates
from faceaudit.errors import DataError


def brute_far(impostor, tau):
    return sum(1 for s in impostor if s > tau) / len(impostor)


def brute_frr(genuine, tau):
    return sum(1 for s in genuine if s <= tau) / len(genuine)


score_lists = st.lists(
    st.floats(-1.0, 1.0).map(lambda v: round(v, 4)), min_size=2, max_size=40
)


class TestSweepRates:
    def test_small_example(self):
        genuine = np.array([0.9, 0.7, 0.5])
        impostor = np.array([0.6, 0.4, 0.2])
        curve = sweep_rates(genuine, impostor)
        # distinct pooled scores plus two sentinels
        assert len(curve.thresholds) == 8
        assert curve.thresholds[0] == pytest.approx(0.2 - 1.0)
        assert curve.thresholds[-1] == pytest.approx(0.9 + 1.0)
        # below everything: accept all impostors, reject no genuine
        assert curve.far[0] == 1.0 and curve.frr[0] == 0.0
        # above everything: reject all
        assert curve.far[-1] == 0.0 and curve.frr[-1] == 1.0

    def test_rates_match_brute_force(self):
        rng = np.random.default_rng(0)
        genuine = rng.normal(0.6, 0.2, size=40)
        impostor = rng.normal(0.1, 0.2, size=60)
        curve = sweep_rates(genuine, impostor)
        for tau, far, frr in zip(curve.thresholds, curve.far, curve.frr):
            assert far == pytest.approx(brute_far(impostor, tau), abs=1e-12)
            assert frr == pytest.approx(brute_frr(genuine, tau), abs=1e-12)

    def test_far_non_increasing_frr_non_decreasing(self):
        rng = np.random.default_rng(1)
        curve = sweep_rates(rng.normal(size=30), rng.normal(size=30))
        assert (np.diff(curve.far) <= 0).all()
        assert (np.diff(curve.frr) >= 0).all()

    def test_empty_side_rejected(self):
        with pytest.raises(DataError):
            sweep_rates(np.array([]), np.array([0.5]))
        with pytest.raises(DataError):
            sweep_rates(np.array([0.5]), np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            sweep_rates(np.array([0.5, np.nan]), np.array([0.1]))

    @given(score_lists, score_lists)
    @settings(max_examples=40, deadline=None)
    def test_sweep_agrees_with_recount_everywhere(self, gen, imp):
        curve = sweep_rates(np.array(gen), np.array(imp))
        for tau, far, frr in zip(curve.thresholds, curve.far, curve.frr):
            assert far == pytest.approx(brute_far(imp, tau), abs=1e-12)
            assert frr == pytest.approx(brute_frr(gen, tau), abs=1e-12)


class TestParsePolicy:
    def test_eer(self):
        assert parse_policy("eer") == ("eer", None)

    def test_far_at(self):
        assert parse_policy("far@0.01") == ("far", 0.01)
        assert parse_policy("far@0.001") == ("far", 0.001)

    def test_malformed(self):
        for bad in ("far@", "far@lots", "frr@0.1", "EER", "far0.01"):
            with pytest.raises(DataError):
                parse_policy(bad)

    def test_target_out_of_range(self):
        with pytest.raises(DataError):
            parse_policy("far@1.5")
        with pytest.raises(DataError):
            parse_policy("far@-0.1")


class TestCalibrateEer:
    def test_small_example(self):
        # tau = 0.5 accepts impostor 0.6 (far 1/3) and rejects genuine 0.5 (frr 1/3)
        genuine = np.array([0.9, 0.7, 0.5])
        impostor = np.array([0.6, 0.4, 0.2])
        op = calibrate(genuine, impostor, "eer")
        assert op.tau == pytest.approx(0.5)
        assert op.far == pytest.approx(1 / 3)
        assert op.frr == pytest.approx(1 / 3)

    def test_fully_separated(self):
        op = calibrate(np.array([0.8, 0.9]), np.array([0.1, 0.2]), "eer")
        assert op.far == 0.0 and op.frr == 0.0

    def test_all_scores_equal(self):
        # any threshold >= 0.5 rejects everything, below accepts everything;
        # |far - frr| is 1 at every candidate, lowest threshold wins
        op = calibrate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), "eer")
        assert op.tau == pytest.approx(-0.5)
        assert op.far == 1.0 and op.frr == 0.0

    def test_ties_take_lowest_threshold(self):
        genuine = np.array([0.2, 0.8])
        impostor = np.array([0.3, 0.7])
        curve = sweep_rates(genuine, impostor)
        gaps = np.abs(curve.far - curve.frr)
        op = calibrate(genuine, impostor, "eer")
        best = gaps.min()
        ties = curve.thresholds[gaps == best]
        assert op.tau == pytest.approx(ties.min())

    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=60, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_granularity_bound(self, pooled):
        # with tie-free scores the crossing gap is limited by step size;
        # heavy ties can jump past the crossing, so distinctness matters
        k = len(pooled) // 2
        gen, imp = pooled[:k], pooled[k:]
        op = calibrate(np.array(gen), np.array(imp), "eer")
        assert abs(op.far - op.frr) <= 1.0 / min(len(gen), len(imp)) + 1e-12

    @given(score_lists, score_lists)
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, gen, imp):
        # rates at the chosen point are invariant under increasing maps
        op_raw = calibrate(np.array(gen), np.array(imp), "eer")

        def warp(x):
            return np.tanh(1.7 * np.asarray(x)) + 0.1 * np.asarray(x)

        op_warp = calibrate(warp(gen), warp(imp), "eer")
        assert op_warp.far == pytest.approx(op_raw.far, abs=1e-12)
        assert op_warp.frr == pytest.approx(op_raw.frr, abs=1e-12)


class TestCalibrateFarTarget:
    def test_small_example(self):
        genuine = np.array([0.9, 0.7, 0.5])
        impostor = np.array([0.6, 0.4, 0.2])
        op = calibrate(genuine, impostor, "far@0.34")
        assert op.far <= 0.34
        # the next lower candidate must overshoot the target
        curve = sweep_rates(genuine, impostor)
        below = curve.thresholds < op.tau
        if below.any():
            assert curve.far[below][-1] > 0.34

    def test_zero_target_reaches_zero(self):
        rng = np.random.default_rng(2)
        op = calibrate(rng.normal(0.5, 0.1, 30), rng.normal(0.0, 0.1, 30), "far@0.0")
        assert op.far == 0.0

    @given(score_lists, score_lists, st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_target_respected_and_tight(self, gen, imp, target):
        policy = f"far@{target}"
        op = calibrate(np.array(gen), np.array(imp), policy)
        assert op.far <= target
        # tightness: every strictly smaller candidate threshold violates the target
        curve = sweep_rates(np.array(gen), np.array(imp))
        smaller = curve.far[curve.thresholds < op.tau]
        assert (smaller > target).all()

    def test_policy_recorded(self):
        op = calibrate(np.array([0.9, 0.8]), np.array([0.1, 0.2]), "far@0.01")
        assert op.policy == "far@0.01"
        assert calibrate(np.array([0.9, 0.8]), np.array([0.1, 0.2]), "eer").policy == "eer"

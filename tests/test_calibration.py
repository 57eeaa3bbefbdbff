"""Tests for threshold calibration: pooled rates, EER, and FAR-targeted picks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faceaudit.calibration import calibrate, parse_policy, pooled_rates
from faceaudit.errors import DataError


def brute_far(impostor, tau):
    return sum(1 for s in impostor if s > tau) / len(impostor)


def brute_frr(genuine, tau):
    return sum(1 for s in genuine if s <= tau) / len(genuine)


def candidates(genuine, impostor):
    """Every candidate threshold: the distinct pooled scores and a sentinel 1.0 beyond each end."""
    pooled = np.unique(np.concatenate([genuine, impostor]))
    return np.concatenate([[pooled[0] - 1.0], pooled, [pooled[-1] + 1.0]])


def sorted_calibrate(genuine, impostor, policy):
    return calibrate(np.sort(genuine), np.sort(impostor), policy)


def full_curve(genuine, impostor):
    """The reference curve: (thresholds, FAR, FRR) at every candidate, counted
    on the whole grid at once."""
    gen, imp = np.sort(genuine), np.sort(impostor)
    thresholds = candidates(gen, imp)
    far = (imp.size - np.searchsorted(imp, thresholds, side="right")) / imp.size
    frr = np.searchsorted(gen, thresholds, side="right") / gen.size
    return thresholds, far, frr


def full_curve_calibrate(genuine, impostor, policy):
    """The reference pick on the full curve: the first argmin of |FAR - FRR|,
    or the first threshold whose FAR meets the target."""
    thresholds, far, frr = full_curve(genuine, impostor)
    kind, target = parse_policy(policy)
    if kind == "eer":
        idx = int(np.argmin(np.abs(far - frr)))
    else:
        idx = int(np.flatnonzero(far <= target)[0])
    return thresholds[idx], far[idx], frr[idx]


score_lists = st.lists(
    st.floats(-1.0, 1.0).map(lambda v: round(v, 4)), min_size=2, max_size=40
)


class TestSweepRates:
    """``pooled_rates`` over the whole candidate sweep."""

    def test_small_example(self):
        genuine = np.sort([0.9, 0.7, 0.5])
        impostor = np.sort([0.6, 0.4, 0.2])
        thresholds = candidates(genuine, impostor)
        # distinct pooled scores plus two sentinels
        assert len(thresholds) == 8
        # below everything: accept all impostors, reject no genuine
        assert pooled_rates(genuine, impostor, thresholds[0]) == (1.0, 0.0)
        # above everything: reject all
        assert pooled_rates(genuine, impostor, thresholds[-1]) == (0.0, 1.0)
        # the sentinels are the thresholds calibrate picks at the extremes
        assert sorted_calibrate(genuine, impostor, "far@1").tau == 0.2 - 1.0
        assert sorted_calibrate(genuine, genuine, "far@0").tau == 0.9

    def test_rates_match_brute_force(self):
        rng = np.random.default_rng(0)
        genuine = rng.normal(0.6, 0.2, size=40)
        impostor = rng.normal(0.1, 0.2, size=60)
        thresholds = candidates(genuine, impostor)
        fars, frrs = pooled_rates(np.sort(genuine), np.sort(impostor), thresholds)
        for tau, far, frr in zip(thresholds, fars, frrs):
            assert far == brute_far(impostor, tau)
            assert frr == brute_frr(genuine, tau)

    def test_far_non_increasing_frr_non_decreasing(self):
        rng = np.random.default_rng(1)
        genuine, impostor = np.sort(rng.normal(size=30)), np.sort(rng.normal(size=30))
        far, frr = pooled_rates(genuine, impostor, candidates(genuine, impostor))
        assert (np.diff(far) <= 0).all()
        assert (np.diff(frr) >= 0).all()

    def test_empty_side_rejected(self):
        for policy in ("eer", "far@0.01"):
            with pytest.raises(DataError):
                calibrate(np.array([]), np.array([0.5]), policy)
            with pytest.raises(DataError):
                calibrate(np.array([0.5]), np.array([]), policy)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="finite"):
                sorted_calibrate(np.array([0.5, bad]), np.array([0.1]), "eer")
            with pytest.raises(DataError, match="finite"):
                sorted_calibrate(np.array([0.5]), np.array([0.1, bad]), "far@0.1")

    @given(score_lists, score_lists)
    @settings(max_examples=40, deadline=None)
    def test_sweep_agrees_with_recount_everywhere(self, gen, imp):
        thresholds = candidates(gen, imp)
        for tau in thresholds:
            far, frr = pooled_rates(np.sort(gen), np.sort(imp), tau)
            assert far == brute_far(imp, tau)
            assert frr == brute_frr(gen, tau)


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
        op = sorted_calibrate(genuine, impostor, "eer")
        assert op.tau == pytest.approx(0.5)
        assert op.far == pytest.approx(1 / 3)
        assert op.frr == pytest.approx(1 / 3)

    def test_fully_separated(self):
        op = sorted_calibrate(np.array([0.8, 0.9]), np.array([0.1, 0.2]), "eer")
        assert op.far == 0.0 and op.frr == 0.0

    def test_all_scores_equal(self):
        # any threshold >= 0.5 rejects everything, below accepts everything;
        # |far - frr| is 1 at every candidate, lowest threshold wins
        op = sorted_calibrate(np.array([0.5, 0.5]), np.array([0.5, 0.5]), "eer")
        assert op.tau == pytest.approx(-0.5)
        assert op.far == 1.0 and op.frr == 0.0

    def test_ties_take_lowest_threshold(self):
        # |far - frr| is 1/2 at both 0.1 and 0.3
        genuine = np.array([0.3])
        impostor = np.array([0.1, 0.5])
        thresholds = candidates(genuine, impostor)
        gaps = np.array([abs(brute_far(impostor, t) - brute_frr(genuine, t)) for t in thresholds])
        op = sorted_calibrate(genuine, impostor, "eer")
        ties = thresholds[gaps == gaps.min()]
        assert len(ties) > 1
        assert op.tau == ties.min()

    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=60, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_granularity_bound(self, pooled):
        # with tie-free scores the crossing gap is limited by step size;
        # heavy ties can jump past the crossing, so distinctness matters
        k = len(pooled) // 2
        gen, imp = pooled[:k], pooled[k:]
        op = sorted_calibrate(np.array(gen), np.array(imp), "eer")
        assert abs(op.far - op.frr) <= 1.0 / min(len(gen), len(imp)) + 1e-12

    @given(score_lists, score_lists)
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, gen, imp):
        # rates at the chosen point are invariant under increasing maps
        op_raw = sorted_calibrate(np.array(gen), np.array(imp), "eer")

        def warp(x):
            return np.tanh(1.7 * np.asarray(x)) + 0.1 * np.asarray(x)

        op_warp = sorted_calibrate(warp(gen), warp(imp), "eer")
        assert op_warp.far == pytest.approx(op_raw.far, abs=1e-12)
        assert op_warp.frr == pytest.approx(op_raw.frr, abs=1e-12)


class TestCalibrateFarTarget:
    def test_small_example(self):
        genuine = np.array([0.9, 0.7, 0.5])
        impostor = np.array([0.6, 0.4, 0.2])
        op = sorted_calibrate(genuine, impostor, "far@0.34")
        assert op.far <= 0.34
        # the next lower candidate must overshoot the target
        below = candidates(genuine, impostor)
        below = below[below < op.tau]
        if below.size:
            assert brute_far(impostor, below[-1]) > 0.34

    def test_zero_target_reaches_zero(self):
        rng = np.random.default_rng(2)
        op = sorted_calibrate(rng.normal(0.5, 0.1, 30), rng.normal(0.0, 0.1, 30), "far@0.0")
        assert op.far == 0.0

    @given(score_lists, score_lists, st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_target_respected_and_tight(self, gen, imp, target):
        policy = f"far@{target}"
        op = sorted_calibrate(np.array(gen), np.array(imp), policy)
        assert op.far <= target
        # tightness: every strictly smaller candidate threshold violates the target
        thresholds = candidates(gen, imp)
        assert all(brute_far(imp, t) > target for t in thresholds[thresholds < op.tau])

    def test_policy_recorded(self):
        genuine, impostor = np.array([0.8, 0.9]), np.array([0.1, 0.2])
        assert calibrate(genuine, impostor, "far@0.01").policy == "far@0.01"
        assert calibrate(genuine, impostor, "eer").policy == "eer"


def _rounded(decimals):
    return st.lists(
        st.floats(-1.0, 1.0).map(lambda v: round(v, decimals)), min_size=1, max_size=30
    )


# Scores on a coarse grid, so both kinds share values and FAR and FRR tie often.
tie_heavy_pairs = st.one_of(
    st.tuples(_rounded(1), _rounded(1)),
    st.tuples(_rounded(2), _rounded(2)),
    # equal genuine and impostor multisets: |FAR - FRR| ties exactly at
    # candidates on both sides of the crossing
    _rounded(1).flatmap(lambda scores: st.tuples(st.just(scores), st.permutations(scores))),
)
policies = st.one_of(
    st.sampled_from(["eer", "far@0", "far@1", "far@0.1", "far@0.5"]),
    st.floats(0.0, 1.0).map(lambda t: f"far@{t}"),
)


class TestCalibrateMatchesFullCurve:
    """The binary search picks what the first-index argmin or the first
    eligible threshold picks on the full candidate curve."""

    @given(tie_heavy_pairs, st.lists(policies, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    @example(([0.5, 0.5], [0.5, 0.5]), ["eer", "far@0", "far@1"])
    @example(([0.2, 0.8], [0.3, 0.7]), ["eer"])
    @example(([0.1, 0.3, 0.3], [0.3, 0.1, 0.3]), ["eer", "far@0.34", "far@0.6666666666666666"])
    @example(([0.0], [0.0, 1.0]), ["far@0.5", "far@0.49"])
    def test_matches_full_curve(self, lists, chosen):
        genuine, impostor = (np.array(v, dtype=np.float64) for v in lists)
        for policy in chosen:
            op = sorted_calibrate(genuine, impostor, policy)
            assert (op.tau, op.far, op.frr) == full_curve_calibrate(genuine, impostor, policy)
            assert op.far == brute_far(impostor, op.tau)
            assert op.frr == brute_frr(genuine, op.tau)

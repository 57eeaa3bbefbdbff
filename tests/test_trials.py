"""Tests for trial-pair generation, scoring, decisions, and CSV round-trips."""

import csv
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import embedding_table, identity_map, image_table, trial_set

from faceaudit.cohort import build_cohort
from faceaudit.errors import DataError, TrialError
from faceaudit.metrics import individual_rates, trial_census
from faceaudit.trials import (
    TrialPolicy,
    generate_trials,
    read_trials_csv,
    score_trials,
    write_trials_csv,
)


def _cohort(n_identities=8, images_each=4, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    records = [
        (f"p{i:02d}_{k}", f"p{i:02d}", rng.normal(size=dim).astype(np.float32))
        for i in range(n_identities)
        for k in range(images_each)
    ]
    return build_cohort(embedding_table(records))


def _image_pairs(trials):
    """(probe image id, reference image id) per trial."""
    ids = trials.image_ids
    return [(ids[p], ids[r]) for p, r in trials.pairs.tolist()]


def _by_identity(trials):
    """Probe identity -> [(probe id, reference id, genuine, reference identity)]."""
    identity_of = identity_map(trials)
    out = {}
    for (probe, ref), genuine in zip(_image_pairs(trials), trials.genuine.tolist()):
        out.setdefault(identity_of[probe], []).append(
            (probe, ref, genuine, identity_of[ref])
        )
    return out


def _pair_score(u, v):
    """score_trials on one genuine pair whose images hold vectors u and v."""
    cohort = build_cohort(embedding_table([("a_0", "a", u), ("a_1", "a", v)]))
    trials = trial_set([("a_0", "a_1")], {"a_0": "a", "a_1": "a"})
    return float(score_trials(cohort, trials)[0])


def _reference_pairs(cohort, policy, seed):
    """The pair list of the original string-based sampler.

    For each identity it rebuilds the list of every other identity's
    image ids and rejection-samples (probe, reference) id pairs from it,
    drawing from the generator in the same order as ``generate_trials``.
    """
    images_of = {}
    for image, code in zip(cohort.image_ids, cohort.identity_codes.tolist()):
        images_of.setdefault(cohort.identities[code], []).append(image)
    all_images = [(image, ident) for ident in sorted(images_of) for image in images_of[ident]]
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for identity in sorted(images_of):
        ids = list(images_of[identity])
        if len(ids) < 2:
            continue
        genuine = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
        cap = policy.positives_per_identity
        if policy.positive_mode == "sample" or (cap is not None and len(genuine) > cap):
            chosen = rng.choice(len(genuine), size=min(cap, len(genuine)), replace=False)
            genuine = [genuine[i] for i in sorted(chosen)]
        out.extend(genuine)
        if policy.negatives_per_identity == 0:
            continue
        others = [image for image, ident in all_images if ident != identity]
        seen = set()
        while len(seen) < policy.negatives_per_identity:
            pair = (ids[rng.integers(len(ids))], others[rng.integers(len(others))])
            if pair not in seen:
                seen.add(pair)
                out.append(pair)
    return out


def _uneven_cohort():
    """Identities with 1 to 7 images, two of them lone, in no size order."""
    rng = np.random.default_rng(11)
    sizes = {"ann": 3, "bob": 1, "cat": 7, "dan": 2, "eve": 5, "fay": 1, "gus": 4, "hal": 2, "ivy": 6}
    records = [
        (f"{name}_{k}", name, rng.normal(size=8).astype(np.float32))
        for name, size in sizes.items()
        for k in range(size)
    ]
    return build_cohort(embedding_table(records))


class TestTrialPair:
    def test_genuine_flag(self, tmp_path):
        identity_of = {"a": "x", "b": "x", "c": "y"}
        path = tmp_path / "trials.csv"
        path.write_text(
            "probe_image_id,reference_image_id,label,score\n"
            "a,b,genuine,0.9\na,c,impostor,0.1\nc,b,impostor,0.2\n",
            encoding="utf-8",
        )
        trials, _ = read_trials_csv(path, image_table(identity_of))
        assert trials.genuine.tolist() == [True, False, False]
        assert (trials.n_genuine, trials.n_impostor) == (1, 2)

    def test_genuine_self_pair_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "probe_image_id,reference_image_id,label,score\n"
            "a_0,a_1,genuine,0.9\n"
            "a_0,a_0,genuine,1.0\n",
            encoding="utf-8",
        )
        for table in (None, image_table({"a_0": "a", "a_1": "a"})):
            with pytest.raises(DataError, match="cannot reuse image 'a_0'"):
                read_trials_csv(path, table)


class TestReferenceSampler:
    @pytest.mark.filterwarnings("ignore:identity .* has fewer than two images")
    @pytest.mark.parametrize("uneven", [False, True], ids=["uniform", "uneven"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize(
        "policy",
        [
            TrialPolicy(),
            TrialPolicy(positives_per_identity=2, positive_mode="sample"),
            TrialPolicy(negatives_per_identity=0),
        ],
        ids=["default", "sample", "no-negatives"],
    )
    def test_same_pairs_as_string_sampler(self, policy, seed, uneven):
        cohort = _uneven_cohort() if uneven else _cohort(n_identities=6, images_each=4)
        trials = generate_trials(cohort, policy, seed=seed)
        assert _image_pairs(trials) == _reference_pairs(cohort, policy, seed)

    @pytest.mark.filterwarnings("ignore:identity .* has fewer than two images")
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize(
        "make_cohort, policy",
        [
            # 60 of the 4 * 16 = 64 possible impostor pairs: many redraws
            (
                partial(_cohort, n_identities=5, images_each=4),
                TrialPolicy(negatives_per_identity=60),
            ),
            (_uneven_cohort, TrialPolicy(negatives_per_identity=6)),
        ],
        ids=["high-collision", "uneven-few-negatives"],
    )
    def test_batched_redraws_keep_the_stream(self, make_cohort, policy, seed):
        cohort = make_cohort()
        trials = generate_trials(cohort, policy, seed=seed)
        assert _image_pairs(trials) == _reference_pairs(cohort, policy, seed)


class TestBatchedDraws:
    """The samplers draw a batch per identity where one call per value
    was made before.  That keeps every output byte only because numpy
    hands a batch the same values, and leaves the generator in the same
    state, as the scalar calls; if a numpy release changes this, these
    tests fail rather than the pair lists changing silently."""

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "half-used-buffer"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize(
        "bounds",
        [(4, 9596), (3, 3_000_000_001), (2_500_000_000, 7), (2**32 - 1, 5), (2**32, 2**32 + 1)],
    )
    def test_array_bounds_match_alternating_scalar_draws(self, bounds, seed, warm):
        batched, scalar = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        if warm:  # a bounded 32-bit draw keeps the other half of a 64-bit draw
            batched.integers(5), scalar.integers(5)
        drawn = batched.integers(0, np.tile(bounds, 40))
        expected = [int(scalar.integers(bound)) for _ in range(40) for bound in bounds]
        assert drawn.tolist() == expected
        assert batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_normal_blocks_match_scalar_draws(self, seed):
        batched, scalar = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        sd = np.tile([0.03, 0.03 * 99.0, 0.03 * 360.0], (4, 1))
        assert batched.normal(0.0, sd).ravel().tolist() == [
            scalar.normal(0.0, s) for s in sd.ravel().tolist()
        ]
        block = batched.standard_normal((3, 5))
        rows = [scalar.standard_normal(5) for _ in range(3)]
        assert block.tobytes() == np.array(rows).tobytes()
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestTrialPolicy:
    def test_defaults(self):
        policy = TrialPolicy()
        assert policy.positives_per_identity == 6
        assert policy.negatives_per_identity == 50

    def test_bad_mode_rejected(self):
        with pytest.raises(TrialError):
            TrialPolicy(positive_mode="guess")

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(TrialError):
            TrialPolicy(positives_per_identity=0)

    def test_negative_negatives_rejected(self):
        with pytest.raises(TrialError):
            TrialPolicy(negatives_per_identity=-1)

    def test_sample_mode_needs_count(self):
        with pytest.raises(TrialError):
            TrialPolicy(positives_per_identity=None, positive_mode="sample")


class TestGenuinePairs:
    def test_four_images_give_six_pairs(self):
        cohort = _cohort(n_identities=8, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(negatives_per_identity=0), seed=0)
        per_identity = _by_identity(trials)
        assert len(per_identity) == 8
        for identity, pairs in per_identity.items():
            assert len(pairs) == 6
            assert all(genuine for _, _, genuine, _ in pairs)
            # C(4,2) pairs, all distinct, never an image against itself
            keys = {(probe, ref) for probe, ref, _, _ in pairs}
            assert len(keys) == 6
            assert all(probe != ref for probe, ref in keys)

    def test_two_images_give_one_pair(self):
        cohort = _cohort(n_identities=4, images_each=2)
        trials = generate_trials(cohort, TrialPolicy(negatives_per_identity=0), seed=0)
        for pairs in _by_identity(trials).values():
            assert len(pairs) == 1

    def test_cap_subsamples_when_exceeded(self):
        cohort = _cohort(n_identities=3, images_each=6)  # C(6,2) = 15 > 6
        trials = generate_trials(cohort, TrialPolicy(negatives_per_identity=0), seed=0)
        for pairs in _by_identity(trials).values():
            assert len(pairs) == 6
            keys = {(probe, ref) for probe, ref, _, _ in pairs}
            assert len(keys) == 6

    def test_uncapped_keeps_everything(self):
        cohort = _cohort(n_identities=3, images_each=6)
        policy = TrialPolicy(positives_per_identity=None, negatives_per_identity=0)
        trials = generate_trials(cohort, policy, seed=0)
        for pairs in _by_identity(trials).values():
            assert len(pairs) == 15

    def test_sample_mode_draws_exactly(self):
        cohort = _cohort(n_identities=3, images_each=6)
        policy = TrialPolicy(
            positives_per_identity=4, negatives_per_identity=0, positive_mode="sample"
        )
        trials = generate_trials(cohort, policy, seed=0)
        for pairs in _by_identity(trials).values():
            assert len(pairs) == 4


class TestImpostorPairs:
    def test_fifty_distinct_cross_identity(self):
        cohort = _cohort(n_identities=8, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=0)
        for identity, pairs in _by_identity(trials).items():
            impostors = [pair for pair in pairs if not pair[2]]
            assert len(impostors) == 50
            keys = {(probe, ref) for probe, ref, _, _ in impostors}
            assert len(keys) == 50
            for _, _, _, ref_identity in impostors:
                assert ref_identity != identity

    def test_unattainable_count_rejected(self):
        # 3 identities x 4 images: 4 * 8 = 32 distinct impostor pairs < 50
        cohort = _cohort(n_identities=3, images_each=4)
        with pytest.raises(TrialError):
            generate_trials(cohort, TrialPolicy(), seed=0)

    def test_exact_boundary_attainable(self):
        # 4 * 12 = 48 < 50 fails; widen to 5 identities: 4 * 16 = 64 >= 50
        cohort = _cohort(n_identities=5, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=0)
        assert trials.n_impostor == 5 * 50


class TestGenerateTrials:
    def test_deterministic(self):
        cohort = _cohort()
        a = generate_trials(cohort, TrialPolicy(), seed=7)
        b = generate_trials(cohort, TrialPolicy(), seed=7)
        assert np.array_equal(a.pairs, b.pairs)

    def test_seed_changes_impostors(self):
        cohort = _cohort()
        a = generate_trials(cohort, TrialPolicy(), seed=0)
        b = generate_trials(cohort, TrialPolicy(), seed=1)
        assert not np.array_equal(a.pairs, b.pairs)

    def test_genuine_pairs_stable_across_seeds_when_uncapped(self):
        cohort = _cohort(images_each=3)  # C(3,2) = 3 <= 6, no subsampling
        a = generate_trials(cohort, TrialPolicy(negatives_per_identity=0), seed=0)
        b = generate_trials(cohort, TrialPolicy(negatives_per_identity=0), seed=99)
        assert np.array_equal(a.pairs, b.pairs)

    def test_single_image_identity_skipped_with_warning(self):
        rng = np.random.default_rng(0)
        records = [
            (f"p{i}_{k}", f"p{i}", rng.normal(size=8).astype(np.float32))
            for i in range(4)
            for k in range(3)
        ]
        records.append(("lone_0", "lone", rng.normal(size=8).astype(np.float32)))
        cohort = build_cohort(embedding_table(records))
        with pytest.warns(UserWarning, match="lone"):
            trials = generate_trials(
                cohort, TrialPolicy(negatives_per_identity=8), seed=0
            )
        assert trials.skipped_identities == ("lone",)
        assert "lone" not in _by_identity(trials)
        # skipped images stay in the table and may serve as impostor references
        assert "lone_0" in trials.image_ids

    def test_too_few_eligible_identities_rejected(self):
        rng = np.random.default_rng(0)
        records = [
            ("a_0", "a", rng.normal(size=8).astype(np.float32)),
            ("a_1", "a", rng.normal(size=8).astype(np.float32)),
            ("b_0", "b", rng.normal(size=8).astype(np.float32)),
        ]
        cohort = build_cohort(embedding_table(records))
        with pytest.warns(UserWarning):
            with pytest.raises(DataError):
                generate_trials(cohort, TrialPolicy(negatives_per_identity=1), seed=0)

    def test_counts(self):
        cohort = _cohort(n_identities=8, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=0)
        assert trials.n_genuine == 8 * 6
        assert trials.n_impostor == 8 * 50
        assert len(trials.pairs) == 8 * 56


class TestCosineScore:
    def test_frozen_value(self):
        got = _pair_score([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert got == pytest.approx(0.9746318461970762, abs=1e-12)

    def test_identical_vectors(self):
        v = [0.3, -0.4, 0.5]
        assert _pair_score(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert _pair_score([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_opposite(self):
        v = np.array([1.0, 2.0])
        assert _pair_score(v, -v) == pytest.approx(-1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError):
            _pair_score(np.zeros(3), np.ones(3))

    # Vectors are stored as float32, so the scale is a power of two: it
    # then scales every stored component exactly.
    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.integers(-3, 6).map(lambda k: 2.0**k),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, xs, scale):
        u = np.asarray(xs)
        if np.linalg.norm(u) < 1e-6:
            return
        v = np.array([0.5, -1.0, 2.0])
        assert _pair_score(scale * u, v) == pytest.approx(_pair_score(u, v), abs=1e-9)

    def test_result_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = _pair_score(rng.normal(size=5), rng.normal(size=5))
            assert -1.0 <= s <= 1.0


class TestScoreTrials:
    def test_matches_pairwise_scorer(self):
        cohort = _cohort(n_identities=5, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=0)
        scores = score_trials(cohort, trials)
        vector = dict(zip(cohort.image_ids, cohort.vectors.astype(np.float64)))
        for (probe, ref), score in zip(_image_pairs(trials)[:40], scores[:40]):
            u, v = vector[probe], vector[ref]
            want = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert score == pytest.approx(want, abs=1e-12)

    def test_chunk_size_is_invisible(self):
        cohort = _cohort(n_identities=5, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=0)
        a = score_trials(cohort, trials, chunk_size=7)
        b = score_trials(cohort, trials, chunk_size=4096)
        np.testing.assert_array_equal(a, b)

    def test_zero_norm_named(self):
        rng = np.random.default_rng(0)
        records = [
            (f"p{i}_{k}", f"p{i}", rng.normal(size=4).astype(np.float32))
            for i in range(5)
            for k in range(2)
        ]
        records[3] = ("p1_1", "p1", np.zeros(4, dtype=np.float32))
        cohort = build_cohort(embedding_table(records))
        trials = generate_trials(cohort, TrialPolicy(negatives_per_identity=4), seed=0)
        with pytest.raises(DataError, match="p1_1"):
            score_trials(cohort, trials)

    def test_zero_norm_first_in_pair_order(self):
        rng = np.random.default_rng(0)
        records = [
            (f"p{i}_{k}", f"p{i}", rng.normal(size=4).astype(np.float32))
            for i in range(4)
            for k in range(2)
        ]
        records[3] = ("p1_1", "p1", np.zeros(4, dtype=np.float32))
        records[6] = ("p3_0", "p3", np.zeros(4, dtype=np.float32))
        cohort = build_cohort(embedding_table(records))
        # p1_1 comes first in the image table, p3_0 first among the pairs
        trials = trial_set([("p2_0", "p2_1"), ("p3_0", "p1_1")], identity_map(cohort))
        with pytest.raises(DataError, match="^cannot score zero-norm embedding 'p3_0'$"):
            score_trials(cohort, trials)

    def test_matches_one_float64_matrix(self):
        # per-chunk gathers give the bits of one float64 copy of the matrix
        cohort = _cohort(n_identities=30, images_each=5, dim=64)
        trials = generate_trials(cohort, TrialPolicy(), seed=2)
        vectors = cohort.vectors.astype(np.float64)
        norms = np.linalg.norm(vectors, axis=1)
        probe, reference = trials.pairs.T
        want = np.clip(
            np.einsum("ij,ij->i", vectors[probe], vectors[reference])
            / (norms[probe] * norms[reference]),
            -1.0,
            1.0,
        )
        assert score_trials(cohort, trials, chunk_size=100).tobytes() == want.tobytes()

    def test_read_back_trials_rescored(self, tmp_path):
        # read-back trials hold a table of their own images, not the cohort's
        cohort = _cohort(n_identities=6, images_each=4)
        kept = [i for i, image in enumerate(cohort.image_ids) if not image.startswith("p01")]
        part = build_cohort(
            embedding_table(
                (cohort.image_ids[i], cohort.identities[cohort.identity_codes[i]], cohort.vectors[i])
                for i in kept
            )
        )
        trials = generate_trials(part, TrialPolicy(negatives_per_identity=3), seed=1)
        path = tmp_path / "pairs.csv"
        write_trials_csv(path, trials)
        got, _ = read_trials_csv(path, cohort)
        assert got.image_ids == part.image_ids != cohort.image_ids
        assert score_trials(cohort, got).tobytes() == score_trials(part, trials).tobytes()

    def test_image_without_embedding_rejected(self):
        cohort = _cohort(n_identities=2, images_each=2)
        trials = trial_set([("p00_0", "ghost")], {"p00_0": "p00", "ghost": "p09"})
        with pytest.raises(DataError, match="'ghost'"):
            score_trials(cohort, trials)


def _accepted(score, tau):
    """Whether individual_rates counts a trial scored ``score`` as a match at ``tau``."""
    identity_of = {"a_0": "a", "a_1": "a", "b_0": "b"}
    trials = trial_set([("a_0", "a_1"), ("a_0", "b_0")], identity_of)
    far, frr = individual_rates(trial_census(trials, np.array([score, score])), tau)
    assert far[0] == 1.0 - frr[0]  # the genuine and the impostor trial agree
    return bool(far[0] == 1.0)


class TestDecide:
    def test_above_threshold_accepts(self):
        assert _accepted(0.8, 0.5) is True

    def test_equal_rejects(self):
        assert _accepted(0.5, 0.5) is False

    def test_negative_scores(self):
        assert _accepted(-0.2, -0.3) is True
        assert _accepted(-0.3, -0.2) is False


class TestTrialCsv:
    def test_scored_round_trip(self, tmp_path):
        cohort = _cohort(n_identities=5, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=3)
        scores = score_trials(cohort, trials)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials, scores)
        got, loaded = read_trials_csv(path, cohort)
        assert _image_pairs(got) == _image_pairs(trials)
        np.testing.assert_array_equal(got.genuine, trials.genuine)
        np.testing.assert_array_equal(loaded, scores)

    def test_unscored_round_trip(self, tmp_path):
        cohort = _cohort(n_identities=5, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=3)
        path = tmp_path / "pairs.csv"
        write_trials_csv(path, trials)
        got, scores = read_trials_csv(path, cohort)
        assert _image_pairs(got) == _image_pairs(trials)
        assert identity_map(got) == identity_map(cohort)
        assert np.isnan(scores).all()

    def test_header_and_columns(self, tmp_path):
        cohort = _cohort(n_identities=5, images_each=2)
        trials = generate_trials(cohort, TrialPolicy(negatives_per_identity=5), seed=0)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials, score_trials(cohort, trials))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "probe_image_id,reference_image_id,label,score"
        assert all(line.count(",") == 3 for line in lines)

    def test_reconstructed_identities_preserve_grouping(self, tmp_path):
        cohort = _cohort(n_identities=6, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=1)
        scores = score_trials(cohort, trials)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials, scores)
        got, _ = read_trials_csv(path)  # no identity map: reconstruct
        assert _image_pairs(got) == _image_pairs(trials)
        np.testing.assert_array_equal(got.genuine, trials.genuine)
        # grouping matches up to renaming: same partition of probe images
        want_of, got_of = identity_map(trials), identity_map(got)
        want_groups = {}
        got_groups = {}
        for probe, _ in _image_pairs(trials):
            want_groups.setdefault(want_of[probe], set()).add(probe)
            got_groups.setdefault(got_of[probe], set()).add(probe)
        assert sorted(want_groups.values(), key=sorted) == sorted(
            got_groups.values(), key=sorted
        )

    def test_label_contradiction_detected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "probe_image_id,reference_image_id,label,score\n"
            "a_0,a_1,impostor,0.9\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError):
            read_trials_csv(path, image_table({"a_0": "a", "a_1": "a"}))

    def test_unknown_image_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "probe_image_id,reference_image_id,label,score\n"
            "a_0,b_0,impostor,0.1\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError):
            read_trials_csv(path, image_table({"a_0": "a"}))

    @pytest.mark.parametrize(
        "row, identity_of, reason",
        [
            ("a_0,c_0,impostor,0.1", {"a_0": "a", "a_1": "a", "b_0": "b"}, "unknown image_id"),
            ("a_0,a_1,impostor,0.9", {"a_0": "a", "a_1": "a", "b_0": "b"}, "contradicts"),
            ("a_1,a_1,genuine,1.0", None, "cannot reuse image 'a_1'"),
        ],
        ids=["unknown-image", "label-contradiction", "same-image"],
    )
    def test_identity_errors_name_the_file_line(self, tmp_path, row, identity_of, reason):
        # the bad row is on line 5, after two blank lines
        path = tmp_path / "trials.csv"
        path.write_text(
            "probe_image_id,reference_image_id,label,score\n"
            "a_0,a_1,genuine,0.9\n\n\n"
            f"{row}\n"
            "a_0,b_0,impostor,0.1\n",
            encoding="utf-8",
        )
        table = None if identity_of is None else image_table(identity_of)
        with pytest.raises(DataError, match=reason) as info:
            read_trials_csv(path, table)
        assert str(info.value).startswith(f"{path}:5: ")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("who,with,what,how\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_trials_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "probe_image_id,reference_image_id,label,score\na,b,maybe,0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError):
            read_trials_csv(path)

    def test_bad_score_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "probe_image_id,reference_image_id,label,score\na,b,impostor,high\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError):
            read_trials_csv(path)

    def test_score_count_mismatch_rejected(self, tmp_path):
        cohort = _cohort(n_identities=5, images_each=2)
        trials = generate_trials(cohort, TrialPolicy(negatives_per_identity=5), seed=0)
        with pytest.raises(DataError):
            write_trials_csv(tmp_path / "x.csv", trials, np.zeros(3))

    def test_quoted_ids_match_csv_writer(self, tmp_path):
        # ids holding the delimiter, a quote or a line break are quoted
        # as csv.writer quotes them, and read back unchanged
        identity_of = {'a,1': "a", 'a"2': "a", "b\n1": "b", '"b2"': "b", " c 1": "c", "c2,": "c"}
        pairs = [('a,1', 'a"2'), ("b\n1", '"b2"'), (" c 1", "c2,"), ('a"2', "b\n1"), ("c2,", 'a,1')]
        trials = trial_set(pairs, identity_of)
        scores = np.array([0.5, -0.25, 1 / 3, 1e-300, -0.0])
        for cells in (scores, None):
            path = tmp_path / "trials.csv"
            write_trials_csv(path, trials, cells)
            reference = tmp_path / "reference.csv"
            with open(reference, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["probe_image_id", "reference_image_id", "label", "score"])
                texts = [""] * 5 if cells is None else map(repr, scores.tolist())
                for (probe, ref), genuine, text in zip(pairs, trials.genuine.tolist(), texts):
                    writer.writerow([probe, ref, "genuine" if genuine else "impostor", text])
            assert path.read_bytes() == reference.read_bytes()
            got, loaded = read_trials_csv(path, trials)
            assert _image_pairs(got) == pairs
            if cells is not None:
                assert loaded.tobytes() == scores.tobytes()

    def test_scores_survive_exactly(self, tmp_path):
        # repr round-trips float64 exactly
        cohort = _cohort(n_identities=5, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=5)
        scores = score_trials(cohort, trials)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials, scores)
        _, loaded = read_trials_csv(path, cohort)
        assert all(a == b for a, b in zip(scores, loaded))

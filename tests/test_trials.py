"""Tests for trial-pair generation, scoring, decisions, and CSV round-trips."""

import csv
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cohort_of, identity_map, image_table, trial_set, write_bench_inputs

import faceaudit.trials
from faceaudit.cohort import WRITE_CELLS
from faceaudit.errors import DataError, TrialError
from faceaudit.metrics import individual_rates, trial_census
from faceaudit.trials import (
    TrialPolicy,
    _components,
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
    return cohort_of(records)


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
    cohort = cohort_of([("a_0", "a", u), ("a_1", "a", v)])
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
        if cap is not None and len(genuine) > cap:
            chosen = rng.choice(len(genuine), size=cap, replace=False)
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
    return cohort_of(records)


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
            with pytest.raises(DataError, match="compares image 'a_0' with itself"):
                read_trials_csv(path, table)


class TestReferenceSampler:
    @pytest.mark.filterwarnings("ignore:identity .* has fewer than two images")
    @pytest.mark.parametrize("uneven", [False, True], ids=["uniform", "uneven"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize(
        "policy",
        [
            TrialPolicy(),
            # a cap of 2 samples the genuine pairs of every identity with 3+ images
            TrialPolicy(positives_per_identity=2),
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

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_scaled_standard_normals_match_normal(self, seed):
        # synth scales the standard normals itself; 0.0 + keeps the sign
        # of zero that normal(0.0, sd) gives where sd * z is -0.0
        batched, scalar = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        sd = np.tile([0.03, 0.0, 0.03 * 99.0, 0.03 * 360.0], (5, 1))
        drawn = 0.0 + sd * batched.standard_normal(sd.shape)
        assert drawn.tobytes() == scalar.normal(0.0, sd).tobytes()
        assert batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_one_double_per_value_matches_uniform_and_random(self, seed):
        # synth draws a run of continuous and boolean traits with one
        # random(k) call, where it made a uniform or random call per value;
        # a categorical breaks the run with its own integers call
        bounds = [(0.0, 1.0), None, (0.0, 99.0), (-30.0, 45.5), None, (-180.0, 180.0)]
        batched, scalar = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        for _ in range(20):
            u = batched.random(len(bounds))
            level = batched.integers(7)
            expected = [
                float(scalar.random() < 0.15) if pair is None else float(scalar.uniform(*pair))
                for pair in bounds
            ]
            assert level == scalar.integers(7)
            got = [
                float(x < 0.15) if pair is None else pair[0] + (pair[1] - pair[0]) * x
                for pair, x in zip(bounds, u.tolist())
            ]
            assert np.array(got).tobytes() == np.array(expected).tobytes()
            lo, hi = np.array([pair for pair in bounds if pair]).T
            columns = np.array([x for pair, x in zip(bounds, u.tolist()) if pair])
            assert (lo + (hi - lo) * columns).tolist() == [e for pair, e in zip(bounds, expected) if pair]
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestTrialPolicy:
    def test_defaults(self):
        policy = TrialPolicy()
        assert policy.positives_per_identity == 6
        assert policy.negatives_per_identity == 50

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(TrialError):
            TrialPolicy(positives_per_identity=0)

    def test_negative_negatives_rejected(self):
        with pytest.raises(TrialError):
            TrialPolicy(negatives_per_identity=-1)


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
        cohort = cohort_of(records)
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
        cohort = cohort_of(records)
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

    def test_chunk_size_is_invisible(self, monkeypatch):
        # By default a chunk holds 1 MiB of float64 rows: 8,192 at dim 16,
        # and one row at dim 150,000, past the budget of a single row.
        def scored(cohort, trials, rows):
            dim = cohort.vectors.shape[1]
            monkeypatch.setattr(faceaudit.trials, "_GATHER_BYTES", rows * 8 * dim)
            return score_trials(cohort, trials)

        for dim in (16, 150_000):
            cohort = _cohort(n_identities=5, images_each=4, dim=dim)
            trials = generate_trials(cohort, TrialPolicy(), seed=0)
            c = score_trials(cohort, trials)
            a = scored(cohort, trials, 7)
            b = scored(cohort, trials, 4096)
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_zero_norm_named(self):
        rng = np.random.default_rng(0)
        records = [
            (f"p{i}_{k}", f"p{i}", rng.normal(size=4).astype(np.float32))
            for i in range(5)
            for k in range(2)
        ]
        records[3] = ("p1_1", "p1", np.zeros(4, dtype=np.float32))
        cohort = cohort_of(records)
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
        cohort = cohort_of(records)
        # p1_1 comes first in the image table, p3_0 first among the pairs
        trials = trial_set([("p2_0", "p2_1"), ("p3_0", "p1_1")], identity_map(cohort))
        with pytest.raises(DataError, match="^cannot score zero-norm embedding 'p3_0'$"):
            score_trials(cohort, trials)

    def test_matches_one_float64_matrix(self, monkeypatch):
        # per-chunk gathers give the bits of one float64 copy of the matrix
        monkeypatch.setattr(faceaudit.trials, "_GATHER_BYTES", 100 * 8 * 64)  # 100 rows
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
        assert score_trials(cohort, trials).tobytes() == want.tobytes()

    def test_read_back_trials_rescored(self, tmp_path):
        # read-back trials hold a table of their own images, not the cohort's
        cohort = _cohort(n_identities=6, images_each=4)
        kept = [i for i, image in enumerate(cohort.image_ids) if not image.startswith("p01")]
        part = cohort_of(
            (cohort.image_ids[i], cohort.identities[cohort.identity_codes[i]], cohort.vectors[i])
            for i in kept
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


class TestComponents:
    def test_matches_connected_components(self):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(0)
        n = 12_000
        edges = rng.integers(0, n, size=(9_000, 2))  # more than one 4,096-edge chunk
        root = _components(n, edges)
        graph = coo_matrix((np.ones(len(edges)), edges.T), shape=(n, n))
        _, labels = connected_components(graph, directed=False)
        _, first = np.unique(labels, return_index=True)  # each component's smallest node
        np.testing.assert_array_equal(root, first[labels])


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

    def test_nan_score_written_unscored(self, tmp_path):
        # an empty cell is the one spelling of "unscored"; "nan" is no score
        cohort = _cohort(n_identities=5, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=3)
        scores = score_trials(cohort, trials)
        scores[::3] = np.nan
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials, scores)
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.endswith(",") for row in rows] == np.isnan(scores).tolist()
        _, loaded = read_trials_csv(path, cohort)
        np.testing.assert_array_equal(loaded, scores)

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

    @pytest.mark.parametrize("identified", [False, True], ids=["components", "identity-map"])
    def test_labels_checked_past_the_first_slice(self, tmp_path, identified):
        # rows are checked 32,768 at a time; the contradiction is in the second slice
        rows = ["a_0,a_1,genuine,0.9", *["a_0,b_0,impostor,0.1"] * 40_000, "a_1,a_0,impostor,0.9"]
        path = tmp_path / "trials.csv"
        path.write_text("probe_image_id,reference_image_id,label,score\n" + "\n".join(rows) + "\n")
        table = image_table({"a_0": "a", "a_1": "a", "b_0": "b"}) if identified else None
        with pytest.raises(DataError) as info:
            read_trials_csv(path, table)
        assert str(info.value).startswith(f"{path}:40003: label contradicts the ")

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
            ("a_1,a_1,genuine,1.0", None, "compares image 'a_1' with itself"),
            ("a_1,a_1,impostor,1.0", {"a_0": "a", "a_1": "a", "b_0": "b"}, "with itself"),
            ("a_1,a_0,impostor,0.9", None, "label contradicts the genuine pairs"),
        ],
        ids=[
            "unknown-image", "label-contradiction", "same-image", "impostor-same-image",
            "components-contradiction",
        ],
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
        # ids holding the delimiter, a quote or a line break are quoted as
        # csv.writer quotes them, a NaN score is an empty cell whatever an
        # id holds, and the rows span several write blocks
        identity_of = {'a,1': "a", 'a"2': "a", "b\n1": "b", '"b2"': "b", " c 1": "c", "c2,": "c"}
        identity_of["d,nan\n1"] = "d"
        base = [('a,1', 'a"2'), ("b\n1", '"b2"'), (" c 1", "c2,"), ('a"2', "b\n1"), ("c2,", 'a,1')]
        base += [("d,nan\n1", "a,1"), ("c2,", "d,nan\n1")]
        rows_per_block = WRITE_CELLS // 4
        pairs = base * (3 * rows_per_block // len(base) + 2)
        trials = trial_set(pairs, identity_of)
        values = [0.5, -0.25, np.nan, 1 / 3, 1e-300, -0.0, np.nan, 2.0, np.nan]
        scores = np.resize(values, len(pairs))
        for cells in (scores, None):
            path = tmp_path / "trials.csv"
            write_trials_csv(path, trials, cells)
            reference = tmp_path / "reference.csv"
            with open(reference, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["probe_image_id", "reference_image_id", "label", "score"])
                texts = [""] * len(pairs)
                if cells is not None:
                    texts = ["" if np.isnan(score) else repr(score) for score in scores.tolist()]
                for (probe, ref), genuine, text in zip(pairs, trials.genuine.tolist(), texts):
                    writer.writerow([probe, ref, "genuine" if genuine else "impostor", text])
            assert path.read_bytes() == reference.read_bytes()
            got, loaded = read_trials_csv(path, trials)
            assert _image_pairs(got) == pairs
            if cells is not None:
                assert loaded.tobytes() == scores.tobytes()

    @pytest.mark.parametrize("special", ["\r", "\n", "\r\n", ",", '"'])
    def test_special_ids_round_trip(self, tmp_path, special):
        # an id holding a line break, the delimiter or a quote is written
        # quoted and read back, with and without an image table
        identity_of = {f"a{special}1": "a", "a_2": "a", f"b{special}1": "b", "b_2": "b"}
        pairs = [(f"a{special}1", "a_2"), (f"b{special}1", "b_2"), ("a_2", f"b{special}1")]
        trials = trial_set(pairs, identity_of)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials, np.array([0.5, 0.25, -0.5]))
        quoted = '"a' + special.replace('"', '""') + '1"'
        assert f"\n{quoted},a_2,genuine,0.5\n".encode() in path.read_bytes()  # a_2 stays bare
        for table in (None, trials):
            got, scores = read_trials_csv(path, table)
            assert _image_pairs(got) == pairs
            assert scores.tolist() == [0.5, 0.25, -0.5]

    def test_scores_survive_exactly(self, tmp_path):
        # repr round-trips float64 exactly
        cohort = _cohort(n_identities=5, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=5)
        scores = score_trials(cohort, trials)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, trials, scores)
        _, loaded = read_trials_csv(path, cohort)
        assert all(a == b for a, b in zip(scores, loaded))


class TestTrialRows:
    """Both paths give int32 trial rows, and a file read keeps a bounded working set."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        # 600 identities give 33,600 pairs: the read spans many text
        # blocks, and the in-place row remap more than one slice
        cohort = _cohort(n_identities=600, images_each=4)
        trials = generate_trials(cohort, TrialPolicy(), seed=4)
        path = tmp_path_factory.mktemp("rows") / "trials.csv"
        write_trials_csv(path, trials, score_trials(cohort, trials))
        return cohort, trials, path

    def test_pairs_and_codes_are_int32(self, written):
        cohort, trials, path = written
        for got in (trials, read_trials_csv(path)[0], read_trials_csv(path, cohort)[0]):
            assert got.pairs.dtype == np.int32
            assert got.pairs.shape == trials.pairs.shape
            assert got.identity_codes.dtype == np.int32

    def test_round_trip_with_the_cohort_keeps_the_pairs(self, written):
        cohort, trials, path = written
        got, _ = read_trials_csv(path, cohort)
        assert got.image_ids == trials.image_ids
        assert got.identities == trials.identities
        np.testing.assert_array_equal(got.identity_codes, trials.identity_codes)
        np.testing.assert_array_equal(got.pairs, trials.pairs)

    def test_genuine_matches_a_per_trial_loop(self, written):
        cohort, trials, path = written
        for got in (trials, read_trials_csv(path)[0], read_trials_csv(path, cohort)[0]):
            codes = got.identity_codes.tolist()
            loop = [codes[probe] == codes[reference] for probe, reference in got.pairs.tolist()]
            assert got.genuine.tolist() == loop
            np.testing.assert_array_equal(got.genuine, trials.genuine)

    def test_read_peak_is_bounded(self, tmp_path):
        # The traced peak of reading the 2,400-identity benchmark trial
        # file (6.3 MB): 5.8 MB with 64 KiB blocks and int32 rows, so the
        # bound is that plus 25%.  1 MiB blocks and intp rows took 19.1 MB.
        write_bench_inputs(tmp_path, 2400, 0)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            read_trials_csv(tmp_path / "scores.csv")
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 7.3 * 2**20, f"traced peak {peak / 2**20:.1f} MB"

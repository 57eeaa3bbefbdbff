"""Tests for per-identity rates, group aggregation, deltas, and pairwise tests."""

import math

import numpy as np
import pytest
import scipy.stats

from faceaudit.cohort import AttributeProfile
from faceaudit.errors import DataError, SchemaError
from faceaudit.metrics import (
    FairnessDelta,
    Group,
    GroupRates,
    GroupSpec,
    IndividualRates,
    assign_levels,
    extreme_delta,
    fairness_delta,
    group_rates,
    individual_rates,
    kruskal_pairwise,
    one_axis_deltas,
    table_grid,
)
from faceaudit.report import GLYPH_POLICY, _glyphs_for
from faceaudit.schema import default_schema
from faceaudit.trials import TrialSet


def _trial_set(pairs):
    """Trials from (probe image, reference image, probe identity, reference identity)."""
    identity_of = {}
    for probe, ref, probe_ident, ref_ident in pairs:
        identity_of[probe], identity_of[ref] = probe_ident, ref_ident
    return TrialSet.from_image_pairs([pair[:2] for pair in pairs], identity_of)


def _profile(identity, gender=None, ethnicity=None, **extra):
    values = dict(extra)
    if gender is not None:
        values["gender"] = float(("man", "woman").index(gender))
    if ethnicity is not None:
        values["ethnicity"] = float(("asian", "black", "caucasian").index(ethnicity))
    return AttributeProfile(identity_id=identity, values=values, coverage={})


class TestIndividualRates:
    def test_hand_counted(self):
        pairs = [
            ("a0", "a1", "a", "a"),  # genuine, score 0.9 > 0.5: accept
            ("a0", "a2", "a", "a"),  # genuine, score 0.3 <= 0.5: reject
            ("a0", "b0", "a", "b"),  # impostor, score 0.7 > 0.5: accept
            ("a1", "b1", "a", "b"),  # impostor, score 0.2: reject
            ("b0", "b1", "b", "b"),  # genuine, score 0.6: accept
            ("b0", "a0", "b", "a"),  # impostor, score 0.5: reject (strict)
        ]
        scores = np.array([0.9, 0.3, 0.7, 0.2, 0.6, 0.5])
        rates, excluded = individual_rates(_trial_set(pairs), scores, tau=0.5)
        assert excluded == ()
        by_id = {r.identity_id: r for r in rates}
        assert by_id["a"].frr == pytest.approx(0.5)
        assert by_id["a"].far == pytest.approx(0.5)
        assert by_id["a"].n_genuine == 2 and by_id["a"].n_impostor == 2
        assert by_id["b"].frr == 0.0
        assert by_id["b"].far == 0.0

    def test_counts_by_probe_identity(self):
        # the impostor trial belongs to the probe side's identity
        pairs = [
            ("a0", "a1", "a", "a"),
            ("a0", "b0", "a", "b"),
            ("b0", "b1", "b", "b"),
            ("b0", "a1", "b", "a"),
        ]
        scores = np.array([0.9, 0.9, 0.9, 0.1])
        rates, _ = individual_rates(_trial_set(pairs), scores, tau=0.5)
        by_id = {r.identity_id: r for r in rates}
        assert by_id["a"].far == 1.0  # a's impostor accepted
        assert by_id["b"].far == 0.0  # b's impostor rejected

    def test_missing_side_excluded(self):
        pairs = [
            ("a0", "a1", "a", "a"),  # a has only genuine
            ("b0", "a0", "b", "a"),  # b has only impostor
            ("c0", "c1", "c", "c"),
            ("c0", "a0", "c", "a"),
        ]
        scores = np.array([0.9, 0.1, 0.9, 0.1])
        rates, excluded = individual_rates(_trial_set(pairs), scores, tau=0.5)
        assert excluded == ("a", "b")
        assert [r.identity_id for r in rates] == ["c"]

    def test_recount_against_brute_force(self):
        rng = np.random.default_rng(0)
        pairs = []
        identities = [f"p{i}" for i in range(6)]
        for ident in identities:
            for k in range(4):
                pairs.append((f"{ident}_0", f"{ident}_{k + 1}", ident, ident))
            for k in range(9):
                other = identities[(identities.index(ident) + 1 + k % 5) % 6]
                pairs.append((f"{ident}_0", f"{other}_x{k}", ident, other))
        scores = rng.uniform(-1, 1, size=len(pairs))
        tau = 0.1
        rates, _ = individual_rates(_trial_set(pairs), scores, tau)
        for r in rates:
            own = [(p, s) for p, s in zip(pairs, scores) if p[2] == r.identity_id]
            gen = [s for p, s in own if p[3] == p[2]]
            imp = [s for p, s in own if p[3] != p[2]]
            assert r.frr == pytest.approx(sum(1 for s in gen if s <= tau) / len(gen))
            assert r.far == pytest.approx(sum(1 for s in imp if s > tau) / len(imp))

    def test_length_mismatch_rejected(self):
        pairs = [("a0", "a1", "a", "a")]
        with pytest.raises(DataError):
            individual_rates(_trial_set(pairs), np.zeros(3), tau=0.5)


class TestGroupSpec:
    def test_empty_rejected(self):
        with pytest.raises(DataError):
            GroupSpec(attributes=())

    def test_duplicates_rejected(self):
        with pytest.raises(DataError):
            GroupSpec(attributes=("gender", "gender"))

    def test_continuous_attribute_rejected(self):
        with pytest.raises(SchemaError):
            GroupSpec(attributes=("age",)).validate(default_schema())

    def test_discrete_attributes_accepted(self):
        GroupSpec(attributes=("gender", "eyes_occluded")).validate(default_schema())


class TestGroupGrid:
    def test_two_axis_grid_shape(self):
        grid = table_grid(GroupSpec(("gender", "ethnicity")), default_schema())
        # (2 levels + union) x (3 levels + union)
        assert len(grid) == 12
        labels = [g.label for g in grid]
        assert "man,asian" in labels
        assert "woman,all" in labels
        assert "all,all" in labels

    def test_one_axis_grid(self):
        grid = table_grid(GroupSpec(("ethnicity",)), default_schema())
        assert [g.label for g in grid] == ["asian", "black", "caucasian", "all"]

    def test_union_flag(self):
        grid = table_grid(GroupSpec(("gender", "ethnicity")), default_schema())
        assert sum(1 for g in grid if g.is_union) == 2 + 3 + 1  # row, column, grand

    def test_matches(self):
        g = Group(("gender", "ethnicity"), ("man", None))
        assert g.matches(("man", "asian"))
        assert g.matches(("man", "black"))
        assert not g.matches(("woman", "asian"))

    def test_level_slot_count_checked(self):
        with pytest.raises(DataError):
            Group(("gender",), ("man", "asian"))


class TestAssignLevels:
    def test_assignment_and_unassigned(self):
        profiles = [
            _profile("a", gender="man", ethnicity="asian"),
            _profile("b", gender="woman", ethnicity="black"),
            _profile("c", gender="man"),  # missing ethnicity
        ]
        assigned, unassigned = assign_levels(
            profiles, GroupSpec(("gender", "ethnicity")), default_schema()
        )
        assert assigned == {"a": ("man", "asian"), "b": ("woman", "black")}
        assert unassigned == ("c",)

    def test_boolean_levels_stringified(self):
        profiles = [AttributeProfile("a", {"eyes_occluded": 1.0}, {})]
        assigned, _ = assign_levels(profiles, GroupSpec(("eyes_occluded",)), default_schema())
        assert assigned == {"a": ("1",)}


class TestGroupRates:
    def _rates(self):
        return [
            IndividualRates("a", far=0.10, frr=0.20, n_genuine=5, n_impostor=10),
            IndividualRates("b", far=0.30, frr=0.40, n_genuine=5, n_impostor=10),
            IndividualRates("c", far=0.50, frr=0.60, n_genuine=5, n_impostor=10),
        ]

    def _profiles(self):
        return [
            _profile("a", gender="man", ethnicity="asian"),
            _profile("b", gender="man", ethnicity="asian"),
            _profile("c", gender="woman", ethnicity="black"),
        ]

    def test_macro_mean_recount(self):
        groups, unassigned = group_rates(
            self._rates(), self._profiles(), GroupSpec(("gender", "ethnicity")), default_schema()
        )
        assert unassigned == ()
        by_label = {g.group.label: g for g in groups}
        cell = by_label["man,asian"]
        assert cell.far == pytest.approx((0.10 + 0.30) / 2)
        assert cell.frr == pytest.approx((0.20 + 0.40) / 2)
        assert cell.n_members == 2
        assert cell.member_ids == ("a", "b")

    def test_union_rows_pool_members(self):
        groups, _ = group_rates(
            self._rates(), self._profiles(), GroupSpec(("gender", "ethnicity")), default_schema()
        )
        by_label = {g.group.label: g for g in groups}
        assert by_label["man,all"].n_members == 2
        assert by_label["all,all"].n_members == 3
        assert by_label["all,all"].far == pytest.approx((0.10 + 0.30 + 0.50) / 3)

    def test_empty_cell_is_nan(self):
        groups, _ = group_rates(
            self._rates(), self._profiles(), GroupSpec(("gender", "ethnicity")), default_schema()
        )
        by_label = {g.group.label: g for g in groups}
        empty = by_label["woman,asian"]
        assert empty.is_empty
        assert math.isnan(empty.far) and math.isnan(empty.frr)

    def test_unassigned_reported(self):
        profiles = self._profiles() + [_profile("d")]  # no attributes at all
        rates = self._rates() + [IndividualRates("d", 0.1, 0.1, 2, 2)]
        _, unassigned = group_rates(
            rates, profiles, GroupSpec(("gender", "ethnicity")), default_schema()
        )
        assert unassigned == ("d",)

    def test_rated_but_unprofiled_identity_never_appears(self):
        rates = self._rates() + [IndividualRates("ghost", 0.9, 0.9, 2, 2)]
        groups, unassigned = group_rates(
            rates, self._profiles(), GroupSpec(("gender", "ethnicity")), default_schema()
        )
        assert unassigned == ()
        assert all("ghost" not in g.member_ids for g in groups)


class TestFairnessDelta:
    def _cell(self, label_levels, far, frr, n=2):
        group = Group(("gender", "ethnicity"), label_levels)
        ids = tuple(f"m{i}" for i in range(n))
        return GroupRates(group=group, far=far, frr=frr, n_members=n, member_ids=ids)

    def test_documented_differences(self):
        a = self._cell(("man", "asian"), far=0.051, frr=0.087)
        b = self._cell(("woman", "asian"), far=0.044, frr=0.061)
        delta = fairness_delta(a, b)
        assert delta.delta_far == pytest.approx(0.051 - 0.044)
        assert delta.delta_far == pytest.approx(0.007)
        assert delta.delta_frr == pytest.approx(0.087 - 0.061)
        assert delta.delta_frr == pytest.approx(0.026)

    def test_sign_convention(self):
        a = self._cell(("man", "asian"), far=0.1, frr=0.1)
        b = self._cell(("woman", "asian"), far=0.3, frr=0.4)
        delta = fairness_delta(a, b)
        assert delta.delta_far == pytest.approx(-0.2)
        assert delta.group_a == "man,asian"
        assert delta.group_b == "woman,asian"

    def test_empty_operand_rejected(self):
        a = self._cell(("man", "asian"), far=0.1, frr=0.1)
        empty = GroupRates(
            group=Group(("gender", "ethnicity"), ("woman", "black")),
            far=math.nan,
            frr=math.nan,
            n_members=0,
        )
        with pytest.raises(DataError):
            fairness_delta(a, empty)
        with pytest.raises(DataError):
            fairness_delta(empty, a)

    def test_one_axis_pairs_only(self):
        groups = [
            self._cell(("man", "asian"), 0.1, 0.1),
            self._cell(("man", "black"), 0.2, 0.2),
            self._cell(("woman", "black"), 0.4, 0.4),
        ]
        deltas = one_axis_deltas(groups)
        pairs = {(d.group_a, d.group_b) for d in deltas}
        # (man,asian) vs (woman,black) differs on both axes: not included
        assert pairs == {
            ("man,asian", "man,black"),
            ("man,black", "woman,black"),
        }

    def test_one_axis_includes_marginal_contrasts(self):
        groups = [
            self._cell(("man", None), 0.1, 0.1),
            self._cell(("woman", None), 0.3, 0.3),
        ]
        deltas = one_axis_deltas(groups)
        assert len(deltas) == 1
        assert deltas[0].delta_far == pytest.approx(-0.2)

    def test_one_axis_skips_empty(self):
        groups = [
            self._cell(("man", "asian"), 0.1, 0.1),
            GroupRates(
                group=Group(("gender", "ethnicity"), ("woman", "asian")),
                far=math.nan,
                frr=math.nan,
                n_members=0,
            ),
        ]
        assert one_axis_deltas(groups) == ()

    def test_extreme_delta(self):
        groups = [
            self._cell(("man", "asian"), 0.10, 0.5),
            self._cell(("man", "black"), 0.45, 0.2),
            self._cell(("woman", "asian"), 0.30, 0.9),
        ]
        worst_far = extreme_delta(groups, "far")
        assert worst_far.group_a == "man,black"
        assert worst_far.group_b == "man,asian"
        assert worst_far.delta_far == pytest.approx(0.35)
        worst_frr = extreme_delta(groups, "frr")
        assert worst_frr.group_a == "woman,asian"
        assert worst_frr.delta_frr == pytest.approx(0.7)

    def test_extreme_delta_ignores_unions(self):
        groups = [
            self._cell(("man", "asian"), 0.1, 0.1),
            self._cell(("woman", "black"), 0.2, 0.2),
            self._cell((None, None), 0.99, 0.99),  # union must not win
        ]
        worst = extreme_delta(groups, "far")
        assert worst.group_a == "woman,black"

    def test_extreme_delta_bad_metric(self):
        with pytest.raises(DataError):
            extreme_delta([], "accuracy")

    def test_extreme_delta_needs_two_cells(self):
        with pytest.raises(DataError):
            extreme_delta([self._cell(("man", "asian"), 0.1, 0.1)], "far")


class TestKruskalPairwise:
    def test_matrix_shape_and_symmetry(self):
        samples = {
            "man": np.array([0.1, 0.2, 0.3, 0.4]),
            "woman": np.array([0.5, 0.6, 0.7, 0.8]),
            "other": np.array([0.2, 0.3, 0.25, 0.35]),
        }
        tests = kruskal_pairwise(samples)
        assert tests.labels == ("man", "woman", "other")
        np.testing.assert_array_equal(tests.p_values, tests.p_values.T)
        np.testing.assert_array_equal(tests.h_values, tests.h_values.T)
        np.testing.assert_array_equal(np.diag(tests.p_values), np.ones(3))
        np.testing.assert_array_equal(np.diag(tests.h_values), np.zeros(3))

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(4)
        samples = {
            "a": rng.normal(0.0, 1.0, size=12),
            "b": rng.normal(0.8, 1.0, size=15),
        }
        tests = kruskal_pairwise(samples)
        want_h, want_p = scipy.stats.kruskal(samples["a"], samples["b"])
        assert tests.h_values[0, 1] == pytest.approx(want_h, abs=1e-10)
        assert tests.p_values[0, 1] == pytest.approx(want_p, abs=1e-10)

    def test_lookup_by_label(self):
        samples = {"a": np.arange(1.0, 6.0), "b": np.arange(6.0, 11.0)}
        tests = kruskal_pairwise(samples)
        assert tests.p_value("a", "b") == tests.p_value("b", "a")
        assert tests.p_value("a", "b") == pytest.approx(0.009023, abs=1e-5)

    def test_single_group_rejected(self):
        with pytest.raises(DataError):
            kruskal_pairwise({"only": np.array([0.1, 0.2])})

    def test_small_group_rejected(self):
        with pytest.raises(DataError):
            kruskal_pairwise({"a": np.array([0.1, 0.2]), "b": np.array([0.3])})


class TestSignificance:
    # The report's glyph table is the one list of significance levels.
    def test_levels_cleared(self):
        assert [alpha for alpha, _ in GLYPH_POLICY] == [0.05, 0.01]
        assert _glyphs_for(0.2, GLYPH_POLICY) == ""
        assert _glyphs_for(0.03, GLYPH_POLICY) == "o"
        assert _glyphs_for(0.005, GLYPH_POLICY) == "o\\"

    def test_boundary_is_strict(self):
        assert _glyphs_for(0.05, GLYPH_POLICY) == ""
        assert _glyphs_for(0.01, GLYPH_POLICY) == "o"

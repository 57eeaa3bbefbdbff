"""Tests for per-identity rates, group aggregation, deltas, and pairwise tests."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from conftest import profile_table, trial_set
from hypothesis import given, settings
from hypothesis import strategies as st

from faceaudit.errors import DataError, SchemaError
from faceaudit.metrics import (
    FairnessDelta,
    Group,
    GroupRates,
    extreme_delta,
    fairness_delta,
    group_membership,
    group_rates,
    individual_rates,
    kruskal_pairwise,
    one_axis_deltas,
    table_grid,
    trial_census,
)
from faceaudit.report import GLYPH_POLICY, _glyphs_for
from faceaudit.pipeline import AuditOptions
from faceaudit.schema import default_schema


def _trial_set(pairs):
    """Trials from (probe image, reference image, probe identity, reference identity)."""
    identity_of = {}
    for probe, ref, probe_ident, ref_ident in pairs:
        identity_of[probe], identity_of[ref] = probe_ident, ref_ident
    return trial_set([pair[:2] for pair in pairs], identity_of)


def _rates(trials, scores, tau):
    """({identity: rates} of the rated identities, excluded identities)."""
    census = trial_census(trials, scores)
    far, frr = individual_rates(census, tau)
    rates = {
        identity: SimpleNamespace(
            far=far[i],
            frr=frr[i],
            n_genuine=int(census.n_genuine[i]),
            n_impostor=int(census.n_impostor[i]),
        )
        for i, identity in enumerate(census.identities)
        if census.rated[i]
    }
    assert np.isnan(far[~census.rated]).all() and np.isnan(frr[~census.rated]).all()
    return rates, census.excluded


def _profile(identity, gender=None, ethnicity=None, **extra):
    values = dict(extra)
    if gender is not None:
        values["gender"] = float(("man", "woman").index(gender))
    if ethnicity is not None:
        values["ethnicity"] = float(("asian", "black", "caucasian").index(ethnicity))
    return identity, values


def _table(*profiles):
    return profile_table(dict(profiles))


def _member_ids(membership):
    """{cell levels: member identity ids} of a membership."""
    return {
        group.levels: tuple(membership.identities[r] for r in rows.tolist())
        for group, rows in membership.cells
    }


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
        by_id, excluded = _rates(_trial_set(pairs), scores, tau=0.5)
        assert excluded == ()
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
        by_id, _ = _rates(_trial_set(pairs), scores, tau=0.5)
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
        by_id, excluded = _rates(_trial_set(pairs), scores, tau=0.5)
        assert excluded == ("a", "b")
        assert list(by_id) == ["c"]

    @pytest.mark.parametrize("tau", [-2.0, 0.1, 0.5, 0.9, 2.0])
    def test_rated_set_is_threshold_free(self, tau):
        pairs = [
            ("a0", "a1", "a", "a"),  # a has only genuine
            ("b0", "a0", "b", "a"),  # b has only impostor
            ("c0", "c1", "c", "c"),
            ("c0", "a0", "c", "a"),
            ("d0", "d1", "d", "d"),
            ("d0", "c1", "d", "c"),
        ]
        trials = _trial_set(pairs)
        scores = np.array([0.9, 0.1, 0.9, 0.1, 0.3, 0.7])
        census = trial_census(trials, scores)
        rated = tuple(np.array(census.identities)[census.rated])
        assert rated == ("c", "d")
        far, frr = individual_rates(census, tau)
        assert tuple(np.array(census.identities)[~np.isnan(far)]) == ("c", "d")
        assert tuple(np.array(census.identities)[~np.isnan(frr)]) == ("c", "d")

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
        by_id, _ = _rates(_trial_set(pairs), scores, tau)
        assert sorted(by_id) == identities
        for identity, r in by_id.items():
            own = [(p, s) for p, s in zip(pairs, scores) if p[2] == identity]
            gen = [s for p, s in own if p[3] == p[2]]
            imp = [s for p, s in own if p[3] != p[2]]
            assert r.frr == pytest.approx(sum(1 for s in gen if s <= tau) / len(gen))
            assert r.far == pytest.approx(sum(1 for s in imp if s > tau) / len(imp))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # probe identity
                st.integers(0, 3),  # reference identity
                st.integers(-4, 4).map(lambda k: k / 4),  # few distinct scores: long ties
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_plain_loop_recount_at_every_score(self, drawn):
        # Taus equal to a score check the strict ">": such a trial is an
        # accepted impostor or a rejected genuine pair only if it is above or
        # at tau respectively.
        pairs = [
            (f"p{a}_0", f"p{b}_{k + 1}", f"p{a}", f"p{b}") for k, (a, b, _) in enumerate(drawn)
        ]
        scores = np.array([score for _, _, score in drawn])
        census = trial_census(_trial_set(pairs), scores)
        for tau in (-2.0, *sorted(set(scores.tolist())), 0.3, 2.0):
            far, frr = individual_rates(census, tau)
            for code, identity in enumerate(census.identities):
                accepted = impostor = rejected = genuine = 0
                for (_, _, probe, reference), score in zip(pairs, scores.tolist()):
                    if probe != identity:
                        continue
                    if probe == reference:
                        genuine += 1
                        rejected += not score > tau
                    else:
                        impostor += 1
                        accepted += score > tau
                if genuine and impostor:
                    assert far[code] == accepted / impostor
                    assert frr[code] == rejected / genuine
                else:
                    assert math.isnan(far[code]) and math.isnan(frr[code])

    def test_length_mismatch_rejected(self):
        pairs = [("a0", "a1", "a", "a")]
        with pytest.raises(DataError, match="^3 scores for 1 pairs$"):
            trial_census(_trial_set(pairs), np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        pairs = [("a0", "a1", "a", "a"), ("a0", "b0", "a", "b")]
        with pytest.raises(DataError, match="^scores must be finite$"):
            trial_census(_trial_set(pairs), np.array([0.5, bad]))

    def test_carries_skipped_identities(self):
        trials = _trial_set([("a0", "a1", "a", "a"), ("a0", "b0", "a", "b")])
        assert trial_census(trials, np.zeros(2)).skipped_identities == ()
        trials = dataclasses.replace(trials, skipped_identities=("c",))
        assert trial_census(trials, np.zeros(2)).skipped_identities == ("c",)


class TestGroupSpec:
    """The grouping spec: ``AuditOptions.group_by``, checked against the
    schema by ``AttributeSchema.check_grouping``."""

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="group_by: "):
            AuditOptions(group_by=())

    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="group_by: "):
            AuditOptions(group_by=("gender", "gender"))

    def test_continuous_attribute_rejected(self):
        with pytest.raises(SchemaError, match="group_by: variable 'age' has no discrete levels"):
            default_schema().check_grouping(("age",))

    def test_discrete_attributes_accepted(self):
        default_schema().check_grouping(("gender", "eyes_occluded"))


class TestGroupGrid:
    def test_two_axis_grid_shape(self):
        grid = table_grid(("gender", "ethnicity"), default_schema())
        # (2 levels + union) x (3 levels + union)
        assert len(grid) == 12
        labels = [g.label for g in grid]
        assert "man,asian" in labels
        assert "woman,all" in labels
        assert "all,all" in labels

    def test_one_axis_grid(self):
        grid = table_grid(("ethnicity",), default_schema())
        assert [g.label for g in grid] == ["asian", "black", "caucasian", "all"]

    def test_union_flag(self):
        grid = table_grid(("gender", "ethnicity"), default_schema())
        assert sum(1 for g in grid if g.is_union) == 2 + 3 + 1  # row, column, grand

    def test_matches(self):
        profiles = _table(
            _profile("a", gender="man", ethnicity="asian"),
            _profile("b", gender="man", ethnicity="black"),
            _profile("c", gender="woman", ethnicity="asian"),
        )
        membership = group_membership(
            profiles, ("gender", "ethnicity"), default_schema()
        )
        members = _member_ids(membership)
        assert members[("man", None)] == ("a", "b")
        assert members[("man", "asian")] == ("a",)
        assert members[(None, "asian")] == ("a", "c")
        assert members[(None, None)] == ("a", "b", "c")

    def test_level_slot_count_checked(self):
        with pytest.raises(DataError):
            Group(("gender",), ("man", "asian"))


def _assigned(membership):
    """{identity: levels of the concrete cell that holds it}."""
    return {
        identity: levels
        for levels, ids in _member_ids(membership).items()
        if None not in levels
        for identity in ids
    }


class TestAssignLevels:
    def test_assignment_and_unassigned(self):
        profiles = _table(
            _profile("a", gender="man", ethnicity="asian"),
            _profile("b", gender="woman", ethnicity="black"),
            _profile("c", gender="man"),  # missing ethnicity
        )
        membership = group_membership(
            profiles, ("gender", "ethnicity"), default_schema()
        )
        assert _assigned(membership) == {"a": ("man", "asian"), "b": ("woman", "black")}
        assert membership.unassigned == ("c",)

    def test_boolean_levels_stringified(self):
        profiles = _table(("a", {"eyes_occluded": 1.0}))
        membership = group_membership(
            profiles, ("eyes_occluded",), default_schema()
        )
        assert _assigned(membership) == {"a": ("1",)}


# Discrete default-schema variables: two categorical, two boolean.
_GROUPABLE = ("gender", "ethnicity", "eyes_occluded", "mouth_occluded")


def _assign_levels(profiles, group_by, schema):
    """The per-identity dict walk that integer level codes replaced, kept
    as their oracle: concrete level names per identity, and the sorted
    ids missing a grouping attribute."""
    assigned, unassigned = {}, []
    for identity, values in profiles.items():
        levels = []
        for name in group_by:
            value = values.get(name)
            if value is None:
                unassigned.append(identity)
                break
            var = schema.variable(name)
            levels.append(var.levels[int(value)] if var.kind == "categorical" else str(int(value)))
        else:
            assigned[identity] = tuple(levels)
    return assigned, tuple(sorted(unassigned))


def _brute_force_group_rates(rates, profiles, group_by, schema):
    """(group, far, frr, member ids) per cell, testing every rated identity
    against every cell level by level."""
    assigned, _ = _assign_levels(profiles, group_by, schema)
    out = []
    for group in table_grid(group_by, schema):
        members = sorted(
            (
                (identity, r)
                for identity, r in rates.items()
                if identity in assigned
                and all(
                    want is None or want == have
                    for want, have in zip(group.levels, assigned[identity])
                )
            ),
        )
        if members:
            far = float(np.mean([r[0] for _, r in members]))
            frr = float(np.mean([r[1] for _, r in members]))
        else:
            far = frr = math.nan
        out.append((group, far, frr, tuple(identity for identity, _ in members)))
    return out


@st.composite
def _grouping_cases(draw):
    """Profiles over 1-3 grouping attributes, some missing one (unassigned);
    rates for a subset of them (the rest excluded) plus unprofiled ids."""
    schema = default_schema()
    attributes = tuple(
        draw(st.lists(st.sampled_from(_GROUPABLE), min_size=1, max_size=3, unique=True))
    )
    profiles, rates = {}, {}
    unit = st.floats(0.0, 1.0)
    for i in range(draw(st.integers(0, 14))):
        identity = f"id{i:02d}"
        values = {}
        for name in attributes:
            n_levels = len(schema.variable(name).discrete_levels())
            level = draw(st.none() | st.integers(0, n_levels - 1))
            if level is not None:
                values[name] = float(level)
        profiles[identity] = values
        if draw(st.booleans()):
            rates[identity] = (draw(unit), draw(unit))
    for i in range(draw(st.integers(0, 2))):
        rates[f"ghost{i}"] = (draw(unit), draw(unit))
    return attributes, profiles, rates


def _profile_rates(profiles, rates):
    """(far, frr) arrays aligned with the rows of ``profiles``; NaN where
    an identity has no rates."""
    pairs = [rates.get(i, (math.nan, math.nan)) for i in profiles.identities]
    both = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    return both[:, 0], both[:, 1]


class TestGroupMembership:
    @given(_grouping_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, case):
        group_by, profiles, rates = case
        schema = default_schema()
        table = profile_table(profiles)
        membership = group_membership(table, group_by, schema)
        assert membership.unassigned == _assign_levels(profiles, group_by, schema)[1]
        got = group_rates(*_profile_rates(table, rates), membership)
        want = _brute_force_group_rates(rates, profiles, group_by, schema)
        assert len(got) == len(want)
        for cell, (group, far, frr, ids) in zip(got, want):
            assert cell.group == group
            member_ids = tuple(membership.identities[r] for r in cell.members.tolist())
            assert member_ids == ids and cell.n_members == len(ids)
            # same values in the same order: the means agree to the bit
            assert cell.far.hex() == far.hex() and cell.frr.hex() == frr.hex()

    def test_cells_follow_the_grid(self):
        group_by = ("gender", "eyes_occluded")
        membership = group_membership(profile_table({}), group_by, default_schema())
        assert [g for g, _ in membership.cells] == table_grid(group_by, default_schema())
        assert all(rows.size == 0 for _, rows in membership.cells)


class TestGroupRates:
    @staticmethod
    def _grouped(rates, profiles):
        table = _table(*profiles)
        membership = group_membership(table, ("gender", "ethnicity"), default_schema())
        groups = [
            SimpleNamespace(
                group=g.group,
                far=g.far,
                frr=g.frr,
                n_members=g.n_members,
                is_empty=g.is_empty,
                member_ids=tuple(membership.identities[r] for r in g.members.tolist()),
            )
            for g in group_rates(*_profile_rates(table, rates), membership)
        ]
        return groups, membership.unassigned

    def _rates(self):
        return {"a": (0.10, 0.20), "b": (0.30, 0.40), "c": (0.50, 0.60)}

    def _profiles(self):
        return [
            _profile("a", gender="man", ethnicity="asian"),
            _profile("b", gender="man", ethnicity="asian"),
            _profile("c", gender="woman", ethnicity="black"),
        ]

    def test_macro_mean_recount(self):
        groups, unassigned = self._grouped(self._rates(), self._profiles())
        assert unassigned == ()
        by_label = {g.group.label: g for g in groups}
        cell = by_label["man,asian"]
        assert cell.far == pytest.approx((0.10 + 0.30) / 2)
        assert cell.frr == pytest.approx((0.20 + 0.40) / 2)
        assert cell.n_members == 2
        assert cell.member_ids == ("a", "b")

    def test_union_rows_pool_members(self):
        groups, _ = self._grouped(self._rates(), self._profiles())
        by_label = {g.group.label: g for g in groups}
        assert by_label["man,all"].n_members == 2
        assert by_label["all,all"].n_members == 3
        assert by_label["all,all"].far == pytest.approx((0.10 + 0.30 + 0.50) / 3)

    def test_empty_cell_is_nan(self):
        groups, _ = self._grouped(self._rates(), self._profiles())
        by_label = {g.group.label: g for g in groups}
        empty = by_label["woman,asian"]
        assert empty.is_empty
        assert math.isnan(empty.far) and math.isnan(empty.frr)

    def test_unassigned_reported(self):
        profiles = self._profiles() + [_profile("d")]  # no attributes at all
        rates = {**self._rates(), "d": (0.1, 0.1)}
        _, unassigned = self._grouped(rates, profiles)
        assert unassigned == ("d",)

    def test_rated_but_unprofiled_identity_never_appears(self):
        rates = {**self._rates(), "ghost": (0.9, 0.9)}
        groups, unassigned = self._grouped(rates, self._profiles())
        assert unassigned == ()
        assert all("ghost" not in g.member_ids for g in groups)


class TestFairnessDelta:
    def _cell(self, label_levels, far, frr, n=2):
        group = Group(("gender", "ethnicity"), label_levels)
        return GroupRates(group=group, far=far, frr=frr, n_members=n, members=np.arange(n))

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
        a, b = tests.labels.index("a"), tests.labels.index("b")
        assert tests.p_values[a, b] == tests.p_values[b, a]
        assert tests.p_values[a, b] == pytest.approx(0.009023, abs=1e-5)

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
        assert _glyphs_for(0.2) == ""
        assert _glyphs_for(0.03) == "o"
        assert _glyphs_for(0.005) == "o\\"

    def test_boundary_is_strict(self):
        assert _glyphs_for(0.05) == ""
        assert _glyphs_for(0.01) == "o"

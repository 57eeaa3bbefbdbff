"""Oracle for the columnar audit.

The per-identity loop of ``individual_rates``, the dict walk that
assigned identities to groups, the group means over an id-to-position
dict, the ``while`` loop that found runs of tied mid-ranks and the
id-to-rate dict of the regression response are kept here as
references.  ``run_audit`` and its parts must agree with them bit for
bit (float ``==``, NaN for NaN) on random trials with long tie runs,
excluded identities, groups with fewer than two members and identities
without attribute rows.
"""

import itertools
import math
from unittest import mock

import numpy as np
from conftest import profile_rows, profile_table, trial_set
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from faceaudit import stats
from faceaudit.calibration import calibrate
from faceaudit.errors import DataError, NumericalError, RankDeficiencyError
from faceaudit.explain import ExplanatoryReport, build_design, run_correlations
from faceaudit.metrics import (
    group_membership,
    group_rates,
    individual_rates,
    kruskal_pairwise,
    table_grid,
    trial_census,
)
from faceaudit.pipeline import AuditOptions, run_audit
from faceaudit.report import explain_payload
from faceaudit.schema import AttributeSchema, Variable

SCHEMA = AttributeSchema(
    variables=(
        Variable("gender", "protected", "categorical", levels=("man", "woman")),
        Variable("ethnicity", "protected", "categorical", levels=("asian", "black", "caucasian")),
        Variable("blur", "distortion", "continuous_unit"),
    ),
    protected=("gender", "ethnicity"),
)
GROUP_BY = ("gender", "ethnicity")
POLICIES = ("eer", "far@0.1", "far@0.01")


# --- the references ------------------------------------------------------


def _ref_individual_rates(trials, scores, tau):
    """({identity: (far, frr)} of the rated identities, excluded ids)."""
    probe, genuine = trials.identity_codes[trials.pairs[:, 0]], trials.genuine
    accepted = scores > tau

    def count(mask):
        return np.bincount(probe[mask], minlength=len(trials.identities)).tolist()

    n_gen, n_imp = count(genuine), count(~genuine)
    rejected_gen, accepted_imp = count(genuine & ~accepted), count(~genuine & accepted)
    rates, excluded = {}, []
    for code, ident in enumerate(trials.identities):
        if n_gen[code] == 0 or n_imp[code] == 0:
            if n_gen[code] or n_imp[code]:
                excluded.append(ident)
            continue
        rates[ident] = (accepted_imp[code] / n_imp[code], rejected_gen[code] / n_gen[code])
    return rates, tuple(excluded)


def _ref_membership(profiles):
    """([(group, member ids)], unassigned ids) from {identity: values}."""
    assigned, unassigned = {}, []
    for identity, values in profiles.items():
        if any(name not in values for name in GROUP_BY):
            unassigned.append(identity)
            continue
        levels = [SCHEMA.variable(n).levels[int(values[n])] for n in GROUP_BY]
        assigned[identity] = tuple(levels)
    grid = table_grid(GROUP_BY, SCHEMA)
    buckets = {group.levels: [] for group in grid}
    for identity in sorted(assigned):
        for key in itertools.product(*((level, None) for level in assigned[identity])):
            if key in buckets:
                buckets[key].append(identity)
    return [(group, tuple(buckets[group.levels])) for group in grid], tuple(sorted(unassigned))


def _ref_group_rates(rates, cells):
    """[(group, far, frr, member ids)] over the members that have rates."""
    position = {ident: i for i, ident in enumerate(rates)}
    far = np.array([r[0] for r in rates.values()], dtype=np.float64)
    frr = np.array([r[1] for r in rates.values()], dtype=np.float64)
    out = []
    for group, ids in cells:
        members = tuple(i for i in ids if i in position)
        rows = [position[i] for i in members]
        if rows:
            out.append((group, float(np.mean(far[rows])), float(np.mean(frr[rows])), members))
        else:
            out.append((group, math.nan, math.nan, members))
    return out


def _ref_midranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    tie_sum = 0.0
    i = 0
    sorted_vals = values[order]
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        run = j - i + 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        if run > 1:
            tie_sum += run**3 - run
        i = j + 1
    return ranks, tie_sum


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# --- the cases -------------------------------------------------------------

# Few distinct scores make long tie runs, also at the thresholds.
_SCORE = st.one_of(st.sampled_from([-0.2, 0.1, 0.3, 0.3, 0.6]), st.floats(-1.0, 1.0))


@st.composite
def _audit_cases(draw):
    """(trials, scores, profiles): identities of one to three images with
    some genuine and some impostor trials each, and profiles that may
    miss a grouping attribute, miss blur, have no attribute rows at all,
    or belong to an identity without trials."""
    n = draw(st.integers(6, 20))
    sizes = [draw(st.sampled_from([1, 2, 3, 3])) for _ in range(n)]
    identity_of = {f"i{k:02d}_{m}": f"i{k:02d}" for k in range(n) for m in range(sizes[k])}
    images = list(identity_of)
    pairs = []
    for k in range(n):
        own = [f"i{k:02d}_{m}" for m in range(sizes[k])]
        for a, b in itertools.combinations(own, 2):
            if draw(st.integers(0, 3)):
                pairs.append((a, b))
        others = [image for image in images if image not in own]
        for _ in range(draw(st.sampled_from([0, 1, 2, 3, 3]))):
            pairs.append((draw(st.sampled_from(own)), draw(st.sampled_from(others))))
    trials = trial_set(pairs, identity_of)
    assume(trials.genuine.any() and not trials.genuine.all())
    scores = np.array([draw(_SCORE) for _ in pairs])

    ghosts = [f"g{k}" for k in range(draw(st.integers(0, 2)))]
    rows = {}
    for identity in [*trials.identities, *ghosts]:
        if draw(st.integers(0, 9)) == 0:
            rows[identity] = {}  # no attribute rows
            continue
        values = {
            "gender": float(draw(st.integers(0, 1))),
            "ethnicity": float(draw(st.integers(0, 2))),
            "blur": draw(st.floats(0.0, 1.0)),
        }
        if draw(st.integers(0, 9)) == 0:
            del values[draw(st.sampled_from(sorted(values)))]
        rows[identity] = values
    return trials, scores, profile_table(rows, SCHEMA)


def _audit(trials, scores, profiles, explain):
    options = AuditOptions(policies=POLICIES, explain=explain)
    return run_audit(trial_census(trials, scores), profiles, SCHEMA, options)


class TestColumnarAudit:
    @given(_audit_cases())
    @settings(max_examples=150, deadline=None)
    def test_rates_groups_and_tests_match_the_references(self, case):
        trials, scores, profiles = case
        results = _audit(trials, scores, profiles, explain=False)
        cells, unassigned = _ref_membership(profile_rows(profiles, SCHEMA))
        assert results["exclusions"]["unassigned"] == list(unassigned)
        census = trial_census(trials, scores)
        membership = group_membership(profiles, GROUP_BY, SCHEMA)
        for analysis in results["analyses"]:
            tau = analysis["operating_point"]["tau"]
            rates, excluded = _ref_individual_rates(trials, scores, tau)
            assert results["exclusions"]["no_usable_trials"] == list(excluded)

            far, frr = individual_rates(census, tau)
            for code, identity in enumerate(trials.identities):
                want = rates.get(identity, (math.nan, math.nan))
                assert _same(far[code], want[0]) and _same(frr[code], want[1])

            want_groups = _ref_group_rates(rates, cells)
            # report.json lists no members: they come from group_rates at the reference rates
            nan_pair = (math.nan, math.nan)
            row_rates = np.array([rates.get(i, nan_pair) for i in profiles.identities]).reshape(-1, 2)
            direct = group_rates(row_rates[:, 0], row_rates[:, 1], membership)
            for got, rated, (group, cell_far, cell_frr, ids) in zip(
                analysis["groups"], direct, want_groups, strict=True
            ):
                assert rated.group == group
                assert (got["attributes"], got["levels"]) == (list(group.attributes), list(group.levels))
                assert tuple(profiles.identities[r] for r in rated.members.tolist()) == ids
                assert got["n_members"] == rated.n_members == len(ids)
                assert _same(got["far"], cell_far) and _same(got["frr"], cell_frr)
                assert _same(rated.far, cell_far) and _same(rated.frr, cell_frr)

            testable = [w for w in want_groups if None not in w[0].levels and len(w[3]) >= 2]
            assert ("kruskal" in analysis["skipped_analyses"]) == (len(testable) < 2)
            for i, metric in enumerate(("far", "frr")):
                if len(testable) < 2:
                    continue
                samples = {
                    group.label: np.array([rates[m][i] for m in ids])
                    for group, _, _, ids in testable
                }
                with mock.patch.object(stats, "_midranks", _ref_midranks):
                    want = kruskal_pairwise(samples)
                got = analysis["kruskal"][metric]
                assert got["labels"] == list(want.labels)
                assert np.array_equal(got["h"], want.h_values)
                assert np.array_equal(got["p"], want.p_values)

    @given(_audit_cases())
    @settings(max_examples=150, deadline=None)
    def test_explain_response_matches_the_reference(self, case):
        trials, scores, profiles = case
        rated = set(_ref_individual_rates(trials, scores, 0.0)[0])  # the same at any tau
        rows = [r for r, identity in enumerate(profiles.identities) if identity in rated]
        try:
            design = build_design(profiles, SCHEMA, rows=np.array(rows, dtype=np.intp))
        except DataError as exc:
            for analysis in _audit(trials, scores, profiles, explain=True)["analyses"]:
                assert analysis["skipped_analyses"]["explain_far"] == str(exc)
                assert analysis["skipped_analyses"]["explain_frr"] == str(exc)
            return
        census = trial_census(trials, scores)
        for policy in POLICIES:
            op = calibrate(census.genuine_scores, census.impostor_scores, policy)
            rates, _ = _ref_individual_rates(trials, scores, op.tau)
            want, failure = {}, None
            for i, metric in enumerate(("far", "frr")):
                y = np.array([rates[identity][i] for identity in design.row_ids])
                correlations = run_correlations(design, y)
                fit = None
                try:
                    if not correlations.constant_response:
                        fit = stats.fit_ols(design, y)
                except RankDeficiencyError as exc:  # recorded; the audit goes on
                    want[metric] = str(exc)
                    continue
                except NumericalError as exc:  # any other failed fit stops the audit
                    failure = failure or str(exc)
                want[metric] = (len(y), correlations, fit)
            options = AuditOptions(policies=(policy,), explain=True)
            try:
                (analysis,) = run_audit(census, profiles, SCHEMA, options)["analyses"]
            except NumericalError as exc:
                assert str(exc) == failure
                continue
            assert failure is None
            for metric, expected in want.items():
                if isinstance(expected, str):
                    assert metric not in analysis["explain"]
                    assert analysis["skipped_analyses"][f"explain_{metric}"] == expected
                    continue
                n_cases, correlations, fit = expected
                report = analysis["explain"][metric]
                assert report["n_cases"] == n_cases
                assert report["incomplete_identities"] == list(design.incomplete)
                assert (report["regression"] is None) == (fit is None)
                if fit is not None:
                    assert report["dropped_columns"] == list(design.constant)
                # the correlations and the fit bit for bit, as the report builder writes them
                dropped = () if fit is None else design.constant
                want_report = ExplanatoryReport(
                    metric, op, n_cases, correlations, fit, dropped, design.incomplete
                )
                assert repr(report) == repr(explain_payload(want_report))


_TIED = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=60)


class TestMidranks:
    @given(st.one_of(_TIED, st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60)))
    @example([0.5] * 40)
    @example([0.0] * 20 + [1.0] * 20)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_while_loop(self, values):
        values = np.array(values)
        ranks, tie_sum = stats._midranks(values)
        want_ranks, want_tie_sum = _ref_midranks(values)
        assert np.array_equal(ranks, want_ranks)
        assert tie_sum == want_tie_sum and type(tie_sum) is float

"""Tests for report rendering: tables, heatmaps, payloads, and bundles."""

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cohort_audit, scored_trials, small_config, synth_cohort
from faceaudit.errors import DataError
from faceaudit.pipeline import AuditOptions
from faceaudit.report import (
    EMPTY_CELL,
    dump_payload,
    emit_bundle,
    render_group_table,
    render_heatmap_svg,
)
from faceaudit.schema import default_schema


def _cell(levels, far, frr, n=2, attrs=("gender", "ethnicity")):
    """A group as report.json holds it."""
    label = ",".join("all" if level is None else level for level in levels)
    return {
        "attributes": list(attrs), "levels": list(levels), "label": label,
        "far": far, "frr": frr, "n_members": n,
    }


def _parse_table(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture(scope="module")
def report():
    config = small_config(
        identities_per_group={("man", "asian"): 14, ("woman", "asian"): 14}
    )
    cohort, result = synth_cohort(config)
    trials, scores = scored_trials(cohort)
    options = AuditOptions(policies=("eer", "far@0.01"), explain=True)
    return cohort_audit(result, trials, scores, options)


class TestGroupTable:
    def _groups(self):
        out = []
        for gi, g in enumerate(("man", "woman", None)):
            for ei, e in enumerate(("asian", "black", "caucasian", None)):
                if (g, e) == ("woman", "black"):
                    out.append(_cell((g, e), math.nan, math.nan, n=0))
                else:
                    out.append(_cell((g, e), 0.1 * gi + 0.01 * ei, 0.2 + 0.01 * ei))
        return out

    def test_two_axis_layout(self):
        rows = _parse_table(render_group_table(self._groups(), "far"))
        assert rows[0] == ["far gender|ethnicity", "asian", "black", "caucasian", "all"]
        assert [r[0] for r in rows[1:]] == ["man", "woman", "all"]
        assert len(rows) == 4
        assert all(len(r) == 5 for r in rows)

    def test_values_rendered_to_three_decimals(self):
        rows = _parse_table(render_group_table(self._groups(), "far"))
        assert rows[1][1] == "0.000"
        assert rows[1][2] == "0.010"
        assert rows[2][1] == "0.100"

    def test_empty_cell_marker(self):
        rows = _parse_table(render_group_table(self._groups(), "far"))
        assert rows[2][2] == EMPTY_CELL
        assert EMPTY_CELL == "—"

    def test_one_axis_layout(self):
        groups = [
            _cell(("asian",), 0.10, 0.2, attrs=("ethnicity",)),
            _cell(("black",), 0.20, 0.2, attrs=("ethnicity",)),
            _cell((None,), 0.15, 0.2, attrs=("ethnicity",)),
        ]
        rows = _parse_table(render_group_table(groups, "far"))
        assert rows[0] == ["ethnicity", "far"]
        assert rows[1:] == [["asian", "0.100"], ["black", "0.200"], ["all", "0.150"]]

    def test_metric_selects_column(self):
        far_rows = _parse_table(render_group_table(self._groups(), "far"))
        frr_rows = _parse_table(render_group_table(self._groups(), "frr"))
        assert far_rows[1][1] != frr_rows[1][1]

    def test_bad_metric_rejected(self):
        with pytest.raises(DataError):
            render_group_table(self._groups(), "tpr")

    def test_no_groups_rejected(self):
        with pytest.raises(DataError):
            render_group_table([], "far")

    def test_three_axes_long_table(self):
        # one column per attribute, then the metric; one row per group
        attrs = ("gender", "ethnicity", "forehead_occluded")
        groups = [
            _cell(("man", "asian", "1"), 0.1, 0.2, attrs=attrs),
            _cell(("woman", None, "0"), math.nan, 0.0625, attrs=attrs),
            _cell((None, None, None), 0.25, 0.5, attrs=attrs),
        ]
        assert render_group_table(groups, "frr") == (
            "gender,ethnicity,forehead_occluded,frr\n"
            "man,asian,1,0.200\n"
            "woman,all,0,0.062\n"
            "all,all,all,0.500\n"
        )
        assert _parse_table(render_group_table(groups, "far"))[2] == ["woman", "all", "0", "—"]

    def test_one_axis_is_the_long_table(self):
        levels = (("asian", 0.1), (None, 0.3))
        groups = [_cell((level,), far, 0.0, attrs=("ethnicity",)) for level, far in levels]
        assert render_group_table(groups, "far") == "ethnicity,far\nasian,0.100\nall,0.300\n"

    def test_half_even_rounding(self):
        # ties round to the even neighbour: 62.5 -> 62, 187.5 -> 188
        groups = [
            _cell(("asian",), 0.0625, 0.1875, attrs=("ethnicity",)),
        ]
        far = _parse_table(render_group_table(groups, "far"))
        frr = _parse_table(render_group_table(groups, "frr"))
        assert far[1][1] == "0.062"
        assert frr[1][1] == "0.188"

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_parse_of_render_is_three_decimal_round(self, value):
        groups = [_cell(("asian",), value, value, attrs=("ethnicity",))]
        rows = _parse_table(render_group_table(groups, "far"))
        assert float(rows[1][1]) == round(value, 3)


class TestHeatmapSvg:
    def test_zero_value_is_neutral_white(self):
        svg = render_heatmap_svg([[0.0]], [[0.5]], ["r"], ["c"])
        root = ET.fromstring(svg)
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 1
        assert rects[0].get("fill") == "#f7f7f7"

    def test_extremes_hit_anchor_colors(self):
        svg = render_heatmap_svg([[2.0, -2.0]], [[0.5, 0.5]], ["r"], ["a", "b"])
        root = ET.fromstring(svg)
        fills = [r.get("fill") for r in root.findall(".//{http://www.w3.org/2000/svg}rect")]
        assert fills == ["#b2182b", "#2166ac"]

    def test_nan_cell_grey_without_glyph(self):
        svg = render_heatmap_svg([[math.nan]], [[0.001]], ["r"], ["c"])
        root = ET.fromstring(svg)
        (rect,) = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert rect.get("fill") == "#cccccc"
        texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
        assert "o" not in texts and "o\\" not in texts

    def test_glyphs_single_and_double(self):
        svg = render_heatmap_svg(
            [[1.0, 1.0, 1.0]],
            [[0.5, 0.03, 0.009]],
            ["r"],
            ["a", "b", "c"],
        )
        root = ET.fromstring(svg)
        texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
        assert texts.count("o") == 1  # p = 0.03 clears 0.05 only
        assert texts.count("o\\") == 1  # p = 0.009 clears both levels

    def test_boundary_p_values_are_strict(self):
        svg = render_heatmap_svg([[1.0, 1.0]], [[0.05, 0.01]], ["r"], ["a", "b"])
        root = ET.fromstring(svg)
        texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
        # p = 0.05 earns no glyph, p = 0.01 only the 0.05-level glyph
        assert "o\\" not in texts
        assert texts.count("o") == 1

    def test_well_formed_at_size(self):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(20, 5))
        p = rng.uniform(size=(20, 5))
        rows = [f"row{i}" for i in range(20)]
        cols = [f"c{j}" for j in range(5)]
        svg = render_heatmap_svg(grid, p, rows, cols, title="demo")
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        root = ET.fromstring(svg)
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) == 100

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            render_heatmap_svg([[1.0]], [[0.5, 0.5]], ["r"], ["c"])

    def test_label_count_rejected(self):
        with pytest.raises(DataError):
            render_heatmap_svg([[1.0]], [[0.5]], ["r", "extra"], ["c"])

    def test_one_dimensional_grid_rejected(self):
        with pytest.raises(DataError):
            render_heatmap_svg([1.0, 2.0], [0.5, 0.5], ["r"], ["c"])

    def test_deterministic_output(self):
        a = render_heatmap_svg([[0.4, -0.2]], [[0.2, 0.01]], ["x"], ["a", "b"])
        b = render_heatmap_svg([[0.4, -0.2]], [[0.2, 0.01]], ["x"], ["a", "b"])
        assert a == b


class TestPayload:
    def test_structure(self, report):
        assert report["tool"]["name"] == "faceaudit"
        assert report["group_by"] == ["gender", "ethnicity"]
        assert report["census"]["n_identities"] == 28
        assert report["census"]["n_genuine_pairs"] == 28 * 6
        assert report["census"]["n_impostor_pairs"] == 28 * 50
        assert len(report["analyses"]) == 2
        policies = [a["operating_point"]["policy"] for a in report["analyses"]]
        assert policies == ["eer", "far@0.01"]

    def test_analysis_contents(self, report):
        analysis = report["analyses"][0]
        assert len(analysis["groups"]) == 12
        assert analysis["deltas"]["extreme_far"] is not None
        assert "far" in analysis["kruskal"] and "frr" in analysis["kruskal"]
        assert "far" in analysis["explain"] and "frr" in analysis["explain"]
        fit = analysis["explain"]["far"]["regression"]
        if fit is not None:
            assert fit["columns"][0] == "intercept"
            assert "residual_rms" in fit

    def test_dump_is_sorted_json_with_nulls(self, report):
        text = dump_payload(report)
        assert text.endswith("\n")
        assert "NaN" not in text
        data = json.loads(text)  # strict JSON: would reject bare NaN
        assert list(data) == sorted(data)
        empty = [g for a in data["analyses"] for g in a["groups"] if g["n_members"] == 0]
        assert empty and all(g["far"] is None for g in empty)

    def test_dump_sanitizes_plain_dicts(self):
        text = dump_payload({"b": (1, 2), "a": math.nan, "c": np.float64(0.5)})
        assert json.loads(text) == {"a": None, "b": [1, 2], "c": 0.5}


class TestEmitBundle:
    def test_files_written(self, report, tmp_path):
        out = emit_bundle(tmp_path / "bundle", report)
        assert out["report"].name == "report.json"
        assert out["report"].read_text(encoding="utf-8") == dump_payload(report)
        table_names = sorted(p.name for p in out["tables"])
        assert table_names == [
            "eer_far.csv",
            "eer_frr.csv",
            "far_at_0.01_far.csv",
            "far_at_0.01_frr.csv",
        ]
        figure_names = sorted(p.name for p in out["figures"])
        assert "eer_correlations.svg" in figure_names
        assert "eer_coefficients.svg" in figure_names
        assert "eer_kruskal_far.svg" in figure_names

    def test_repeat_emission_is_byte_identical(self, report, tmp_path):
        a = emit_bundle(tmp_path / "a", report)
        b = emit_bundle(tmp_path / "b", report)
        assert a["report"].read_bytes() == b["report"].read_bytes()
        for pa, pb in zip(sorted(a["tables"]), sorted(b["tables"])):
            assert pa.read_bytes() == pb.read_bytes()
        for pa, pb in zip(sorted(a["figures"]), sorted(b["figures"])):
            assert pa.read_bytes() == pb.read_bytes()

    def test_table_matches_payload_groups(self, report, tmp_path):
        out = emit_bundle(tmp_path / "bundle", report)
        payload = json.loads(out["report"].read_text(encoding="utf-8"))
        far_csv = next(p for p in out["tables"] if p.name == "eer_far.csv")
        rows = _parse_table(far_csv.read_text(encoding="utf-8"))
        by_label = {
            g["label"]: g for g in payload["analyses"][0]["groups"]
        }
        man_asian = by_label["man,asian"]["far"]
        assert rows[1][1] == format(man_asian, ".3f")
        # empty grid cells render as the em dash
        assert EMPTY_CELL in {c for row in rows for c in row}

    def test_empty_results_rejected(self, report, tmp_path):
        empty = {**report, "analyses": []}
        with pytest.raises(DataError):
            emit_bundle(tmp_path / "nope", empty)

"""Render the report document: delimited tables, SVG heatmaps, JSON bundle.

``pipeline.run_audit`` builds the document, calling the ``*_payload``
builders here, the one place where an analysis record becomes JSON;
``emit_bundle`` writes it as report.json and renders the tables and
figures from it.  Rendering is a pure function of the document; nothing
is recomputed here.  All numeric table formatting is three decimals with
round-half-even; undefined cells render as an em dash.  The JSON bundle
uses sorted keys and repr-style floats so identical results serialize
byte-identically; NaN becomes null.

The diverging heatmap color is a documented pure function of (value,
bound): t = clip(value / bound, -1, 1); negative t blends white
(#f7f7f7) toward blue (#2166ac) by |t|, positive toward red (#b2182b);
each channel rounds half-even to an integer.  NaN cells are grey
(#cccccc) and carry no glyph.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from faceaudit.errors import DataError

EMPTY_CELL = "—"
GLYPH_POLICY = ((0.05, "o"), (0.01, "\\"))

_WHITE = (247, 247, 247)
_BLUE = (33, 102, 172)
_RED = (178, 24, 43)
_NAN_FILL = "#cccccc"

_CELL = 26
_FONT = 11


def _format_cell(value: float) -> str:
    if math.isnan(value):
        return EMPTY_CELL
    return format(value, ".3f")


def render_group_table(groups: list[dict], metric: str) -> str:
    """Grid of group rates for one metric as delimited text.

    ``groups`` are the group objects of one report.json analysis.  Two
    grouping attributes give rows for the first attribute's levels and
    columns for the second's.  Any other count gives the long table: a
    column per attribute plus one for the metric, and a row per group.
    Union levels are labelled ``all``.
    """
    if metric not in ("far", "frr"):
        raise DataError(f"metric must be 'far' or 'frr', got {metric!r}")
    if not groups:
        raise DataError("no groups to render")
    attrs = groups[0]["attributes"]

    def label(level: str | None) -> str:
        return "all" if level is None else level

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if len(attrs) != 2:
        writer.writerow([*attrs, metric])
        for g in groups:
            writer.writerow([*map(label, g["levels"]), _format_cell(g[metric])])
        return buf.getvalue()

    # Levels in order of first appearance; a later cell with the same levels wins.
    row_levels = list(dict.fromkeys(g["levels"][0] for g in groups))
    col_levels = list(dict.fromkeys(g["levels"][1] for g in groups))
    cells = {tuple(g["levels"]): g[metric] for g in groups}
    writer.writerow([f"{metric} {attrs[0]}|{attrs[1]}", *(label(c) for c in col_levels)])
    for r in row_levels:
        writer.writerow(
            [label(r), *(_format_cell(cells.get((r, c), math.nan)) for c in col_levels)]
        )
    return buf.getvalue()


def _diverging_color(value: float, bound: float) -> str:
    if math.isnan(value):
        return _NAN_FILL
    t = 0.0 if bound <= 0 else max(-1.0, min(1.0, value / bound))
    target = _BLUE if t < 0 else _RED
    a = abs(t)
    channels = tuple(
        int(round(w + (c - w) * a)) for w, c in zip(_WHITE, target)
    )
    return "#%02x%02x%02x" % channels


def _glyphs_for(p: float) -> str:
    return "".join(glyph for alpha, glyph in GLYPH_POLICY if p < alpha)


def _text(parent: ET.Element, x, y, text: str, anchor: str | None = None) -> None:
    attrs = {"x": str(x), "y": str(y)}
    if anchor:
        attrs["text-anchor"] = anchor
    ET.SubElement(parent, "text", attrs).text = text


def render_heatmap_svg(
    grid,
    p_grid,
    row_labels,
    col_labels,
    title: str = "",
) -> str:
    """Standalone SVG heatmap with significance glyphs.

    Color follows the documented diverging function; the glyph string in
    each cell concatenates the ``GLYPH_POLICY`` glyphs whose alpha the
    cell's p-value beats: ``o`` under 0.05, ``\\`` under 0.01.
    """
    grid = np.asarray(grid, dtype=np.float64)
    p_grid = np.asarray(p_grid, dtype=np.float64)
    if grid.ndim != 2:
        raise DataError("heatmap grid must be two-dimensional")
    if grid.shape != p_grid.shape:
        raise DataError(f"grid shape {grid.shape} != p-value shape {p_grid.shape}")
    n_rows, n_cols = grid.shape
    if len(row_labels) != n_rows or len(col_labels) != n_cols:
        raise DataError("label counts must match the grid shape")

    finite = grid[np.isfinite(grid)]
    bound = float(np.max(np.abs(finite))) if finite.size else 1.0
    left = 12 + _FONT * 0.62 * max((len(str(r)) for r in row_labels), default=1)
    left = int(math.ceil(left))
    top = 30 if title else 8
    top += _FONT + 8
    width = left + n_cols * _CELL + 8
    height = top + n_rows * _CELL + 8

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(width),
            "height": str(height),
            "viewBox": f"0 0 {width} {height}",
            "font-family": "monospace",
            "font-size": str(_FONT),
        },
    )
    if title:
        _text(svg, left, 18, title)
    for j, col in enumerate(col_labels):
        _text(svg, left + j * _CELL + _CELL // 2, top - 6, str(col), "middle")
    for i, row in enumerate(row_labels):
        _text(svg, left - 6, top + i * _CELL + _CELL // 2 + _FONT // 2 - 1, str(row), "end")
        for j in range(n_cols):
            x = left + j * _CELL
            y = top + i * _CELL
            ET.SubElement(
                svg,
                "rect",
                {
                    "x": str(x),
                    "y": str(y),
                    "width": str(_CELL),
                    "height": str(_CELL),
                    "fill": _diverging_color(float(grid[i, j]), bound),
                    "stroke": "#ffffff",
                },
            )
            if math.isnan(grid[i, j]):
                continue
            glyphs = _glyphs_for(float(p_grid[i, j]))
            if glyphs:
                _text(svg, x + _CELL // 2, y + _CELL // 2 + _FONT // 2 - 1, glyphs, "middle")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(
        svg, encoding="unicode"
    )


def _sanitize(obj):
    """Make a payload JSON-safe: tuples to lists, NaN/inf to None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def op_payload(op):
    return {"policy": op.policy, "tau": op.tau, "far": op.far, "frr": op.frr}


def group_payload(g):
    return {
        "attributes": list(g.group.attributes),
        "levels": list(g.group.levels),
        "label": g.group.label,
        "far": g.far,
        "frr": g.frr,
        "n_members": g.n_members,
    }


def delta_payload(d):
    return dataclasses.asdict(d)  # group_a/b, delta_far/frr


def kruskal_payload(tests):
    return {
        "labels": list(tests.labels),
        "h": tests.h_values.tolist(),
        "p": tests.p_values.tolist(),
    }


def _fit_payload(fit):
    return {
        "columns": list(fit.column_names),
        "coefficients": list(fit.coefficients),
        "std_errors": list(fit.std_errors),
        "t_stats": list(fit.t_stats),
        "p_values": list(fit.p_values),
        "r_squared": fit.r_squared,
        "f_statistic": fit.f_statistic,
        "f_p_value": fit.f_p_value,
        "dof_residual": fit.dof_residual,
        "n_rows": fit.n_rows,
        "residual_rms": fit.residual_rms,
    }


def explain_payload(rep):
    return {
        "metric": rep.metric,
        "operating_point": op_payload(rep.operating_point),
        "n_cases": rep.n_cases,
        "correlations": {
            "entries": [
                {"column": column, "r": e.r, "p_value": e.p_value, "n": e.n}
                for column, e in rep.correlations.entries.items()
            ],
            "skipped": list(rep.correlations.skipped),
            "constant_response": rep.correlations.constant_response,
        },
        "regression": None if rep.regression is None else _fit_payload(rep.regression),
        "dropped_columns": list(rep.dropped_columns),
        "incomplete_identities": list(rep.incomplete_identities),
    }


def dump_payload(payload: dict) -> str:
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"


def _policy_slug(policy: str) -> str:
    return policy.replace("@", "_at_")


def render_tables(payload: dict, outdir: Path) -> list[Path]:
    tables_dir = outdir / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for analysis in payload["analyses"]:
        slug = _policy_slug(analysis["operating_point"]["policy"])
        for metric in ("far", "frr"):
            path = tables_dir / f"{slug}_{metric}.csv"
            path.write_text(render_group_table(analysis["groups"], metric), encoding="utf-8")
            written.append(path)
    return written


def _heatmap_cells(metrics: list[str], cells: dict) -> tuple[np.ndarray, np.ndarray, list]:
    """Value and p-value grids from ``cells[metric]``, a list of (row name,
    value, p-value); rows are named in order of first appearance."""
    rows = list(dict.fromkeys(name for m in metrics for name, _, _ in cells[m]))
    values = np.full((len(rows), len(metrics)), math.nan)
    p_values = np.full_like(values, math.nan)
    for j, m in enumerate(metrics):
        for name, value, p in cells[m]:
            i = rows.index(name)
            values[i, j], p_values[i, j] = value, p
    return values, p_values, rows


def render_figures(payload: dict, outdir: Path) -> list[Path]:
    figures_dir = outdir / "figures"
    figures_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def write(name, grid, p_grid, row_labels, col_labels, title):
        path = figures_dir / f"{name}.svg"
        svg = render_heatmap_svg(grid, p_grid, row_labels, col_labels, title=title)
        path.write_text(svg, encoding="utf-8")
        written.append(path)

    for analysis in payload["analyses"]:
        slug = _policy_slug(analysis["operating_point"]["policy"])
        explain = analysis["explain"]
        metrics = [m for m in ("far", "frr") if m in explain]
        correlations, coefficients = {}, {}
        for m in metrics:
            entries = explain[m]["correlations"]["entries"]
            correlations[m] = [(e["column"], e["r"], e["p_value"]) for e in entries]
            fit = explain[m]["regression"]
            cells = () if fit is None else zip(fit["columns"], fit["coefficients"], fit["p_values"])
            coefficients[m] = list(cells)[1:]  # the intercept is not drawn
        for kind, cells, title in (
            ("correlations", correlations, "pearson r"),
            ("coefficients", coefficients, "ols coefficients"),
        ):
            values, p_values, rows = _heatmap_cells(metrics, cells)
            if rows:
                write(f"{slug}_{kind}", values, p_values, rows, metrics, f"{title} ({slug})")
        for metric, tests in sorted(analysis["kruskal"].items()):
            labels = tests["labels"]
            p = np.array(tests["p"], dtype=np.float64)
            title = f"kruskal-wallis p, {metric} ({slug})"
            write(f"{slug}_kruskal_{metric}", p, p, labels, labels, title)
    return written


def emit_bundle(outdir: str | Path, report: dict) -> dict[str, object]:
    """Write ``report``, the document ``pipeline.run_audit`` returns, as
    report.json, then render the per-policy tables and figures from it.

    Refuses to emit a bundle with no analyses.  Identical documents
    produce byte-identical bundles.
    """
    if not report["analyses"]:
        raise DataError("refusing to emit a bundle with no analyses")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "report.json"
    report_path.write_text(dump_payload(report), encoding="utf-8")
    tables = render_tables(report, outdir)
    figures = render_figures(report, outdir)
    return {"report": report_path, "tables": tables, "figures": figures}

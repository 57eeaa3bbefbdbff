"""Render audit results: delimited tables, SVG heatmaps, JSON bundle.

Rendering is a pure function of the computed results; nothing is
recomputed here.  All numeric table formatting is three decimals with
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
from faceaudit.metrics import Group, GroupRates
from faceaudit.pipeline import AuditResults

EMPTY_CELL = "—"
GLYPH_POLICY = ((0.05, "o"), (0.01, "\\"))

_WHITE = (247, 247, 247)
_BLUE = (33, 102, 172)
_RED = (178, 24, 43)
_NAN_FILL = "#cccccc"

_CELL = 26
_FONT = 11


def _format_cell(value: float) -> str:
    if value is None or math.isnan(value):
        return EMPTY_CELL
    return format(value, ".3f")


def render_group_table(groups: list[GroupRates], metric: str) -> str:
    """Grid of group rates for one metric as delimited text.

    One grouping attribute gives a two-column table; two attributes give
    rows for the first attribute's levels and columns for the second's,
    union rows/columns labelled ``all``.
    """
    if metric not in ("far", "frr"):
        raise DataError(f"metric must be 'far' or 'frr', got {metric!r}")
    if not groups:
        raise DataError("no groups to render")
    attrs = groups[0].group.attributes
    if len(attrs) > 2:
        raise DataError("group tables render one or two grouping attributes")

    def label(level: str | None) -> str:
        return "all" if level is None else level

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if len(attrs) == 1:
        writer.writerow([attrs[0], metric])
        for g in groups:
            writer.writerow([label(g.group.levels[0]), _format_cell(getattr(g, metric))])
        return buf.getvalue()

    # Levels in order of first appearance; a later cell with the same levels wins.
    row_levels = list(dict.fromkeys(g.group.levels[0] for g in groups))
    col_levels = list(dict.fromkeys(g.group.levels[1] for g in groups))
    cells = {g.group.levels: getattr(g, metric) for g in groups}
    writer.writerow([f"{metric} {attrs[0]}|{attrs[1]}", *(label(c) for c in col_levels)])
    for r in row_levels:
        writer.writerow(
            [label(r), *(_format_cell(cells.get((r, c), math.nan)) for c in col_levels)]
        )
    return buf.getvalue()


def _diverging_color(value: float, bound: float) -> str:
    if value is None or math.isnan(value):
        return _NAN_FILL
    t = 0.0 if bound <= 0 else max(-1.0, min(1.0, value / bound))
    target = _BLUE if t < 0 else _RED
    a = abs(t)
    channels = tuple(
        int(round(w + (c - w) * a)) for w, c in zip(_WHITE, target)
    )
    return "#%02x%02x%02x" % channels


def _glyphs_for(p: float, policy) -> str:
    if p is None or math.isnan(p):
        return ""
    return "".join(glyph for alpha, glyph in policy if p < alpha)


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
    glyph_policy=GLYPH_POLICY,
    title: str = "",
) -> str:
    """Standalone SVG heatmap with significance glyphs.

    Color follows the documented diverging function; the glyph string in
    each cell concatenates the policy glyphs whose alpha the cell's
    p-value beats (default: ``o`` under 0.05, ``\\`` under 0.01).
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
            glyphs = _glyphs_for(float(p_grid[i, j]), glyph_policy)
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


def _op_payload(op):
    return {"policy": op.policy, "tau": op.tau, "far": op.far, "frr": op.frr}


def _group_payload(g: GroupRates):
    return {
        "attributes": list(g.group.attributes),
        "levels": list(g.group.levels),
        "label": g.group.label,
        "far": g.far,
        "frr": g.frr,
        "n_members": g.n_members,
    }


def _delta_payload(d):
    return None if d is None else dataclasses.asdict(d)  # group_a/b, delta_far/frr


def _kruskal_payload(tests):
    return {
        "labels": list(tests.labels),
        "h": tests.h_values.tolist(),
        "p": tests.p_values.tolist(),
    }


def _fit_payload(fit):
    residuals = np.asarray(fit.residuals)
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
        "residual_rms": float(np.sqrt(np.mean(residuals**2))),
    }


def _explain_payload(rep):
    return {
        "metric": rep.metric,
        "operating_point": _op_payload(rep.operating_point),
        "n_cases": rep.n_cases,
        "correlations": {
            "entries": [
                {"column": e.column, "r": e.r, "p_value": e.p_value, "n": e.n}
                for e in rep.correlations.entries
            ],
            "skipped": list(rep.correlations.skipped),
            "constant_response": rep.correlations.constant_response,
        },
        "regression": None if rep.regression is None else _fit_payload(rep.regression),
        "dropped_columns": list(rep.dropped_columns),
        "incomplete_identities": list(rep.incomplete_identities),
    }


def to_payload(results: AuditResults) -> dict:
    """The documented report.json structure, ready for json.dump."""
    return {
        "tool": {"name": "faceaudit", "version": results.tool_version},
        "seed": results.seed,
        "group_by": list(results.group_by),
        "census": {
            "n_identities": results.n_identities,
            "n_genuine_pairs": results.n_genuine,
            "n_impostor_pairs": results.n_impostor,
        },
        "exclusions": {
            "no_usable_trials": list(results.excluded_identities),
            "unassigned": list(results.unassigned_identities),
            "skipped_identities": list(results.skipped_identities),
        },
        "notes": dict(results.notes),
        "analyses": [
            {
                "operating_point": _op_payload(a.operating_point),
                "groups": [_group_payload(g) for g in a.groups],
                "deltas": {
                    "extreme_far": _delta_payload(a.deltas.extreme_far),
                    "extreme_frr": _delta_payload(a.deltas.extreme_frr),
                    "one_axis": [_delta_payload(d) for d in a.deltas.one_axis],
                },
                "kruskal": {m: _kruskal_payload(t) for m, t in sorted(a.kruskal.items())},
                "explain": {m: _explain_payload(r) for m, r in sorted(a.explain.items())},
                "skipped_analyses": dict(a.skipped_analyses),
            }
            for a in results.analyses
        ],
    }


def dump_payload(payload: dict) -> str:
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"


def _policy_slug(policy: str) -> str:
    return policy.replace("@", "_at_")


def _groups_from_payload(analysis: dict) -> list[GroupRates]:
    return [
        GroupRates(
            group=Group(attributes=tuple(g["attributes"]), levels=tuple(g["levels"])),
            far=_nan(g["far"]),
            frr=_nan(g["frr"]),
            n_members=g["n_members"],
        )
        for g in analysis["groups"]
    ]


def _nan(value) -> float:
    return math.nan if value is None else float(value)


def render_tables(payload: dict, outdir: Path) -> list[Path]:
    tables_dir = outdir / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for analysis in payload["analyses"]:
        slug = _policy_slug(analysis["operating_point"]["policy"])
        groups = _groups_from_payload(analysis)
        for metric in ("far", "frr"):
            path = tables_dir / f"{slug}_{metric}.csv"
            path.write_text(render_group_table(groups, metric), encoding="utf-8")
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
            values[i, j], p_values[i, j] = _nan(value), _nan(p)
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
        explain = analysis.get("explain") or {}
        metrics = [m for m in ("far", "frr") if m in explain]
        correlations, coefficients = {}, {}
        for m in metrics:
            entries = explain[m]["correlations"]["entries"]
            correlations[m] = [(e["column"], e["r"], e["p_value"]) for e in entries]
            fit = explain[m].get("regression") or {}
            cells = zip(fit.get("columns", ()), fit.get("coefficients", ()), fit.get("p_values", ()))
            coefficients[m] = list(cells)[1:]  # the intercept is not drawn
        for kind, cells, title in (
            ("correlations", correlations, "pearson r"),
            ("coefficients", coefficients, "ols coefficients"),
        ):
            values, p_values, rows = _heatmap_cells(metrics, cells)
            if rows:
                write(f"{slug}_{kind}", values, p_values, rows, metrics, f"{title} ({slug})")
        for metric, tests in sorted((analysis.get("kruskal") or {}).items()):
            labels = tests["labels"]
            p = np.array([[_nan(v) for v in row] for row in tests["p"]], dtype=np.float64)
            title = f"kruskal-wallis p, {metric} ({slug})"
            write(f"{slug}_kruskal_{metric}", p, p, labels, labels, title)
    return written


def emit_bundle(outdir: str | Path, results: AuditResults) -> dict[str, object]:
    """Write report.json plus per-policy tables and figures.

    Refuses to emit a bundle with no analyses.  Identical results
    produce byte-identical bundles.
    """
    if not results.analyses:
        raise DataError("refusing to emit a bundle with no analyses")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = to_payload(results)
    report_path = outdir / "report.json"
    report_path.write_text(dump_payload(payload), encoding="utf-8")
    tables = render_tables(payload, outdir)
    figures = render_figures(payload, outdir)
    return {"report": report_path, "tables": tables, "figures": figures}


# The part of report.json that re-rendering reads.  A dict maps keys to
# shapes ("?" marks a key that may be absent or null, "*" any key), a
# one-item list is a list of that shape, and types are JSON scalars.
_NUMBER = (int, float, type(None))
_FIT = {"columns": [str], "coefficients": [_NUMBER], "p_values": [_NUMBER]}
_CORRELATION = {"column": str, "r": _NUMBER, "p_value": _NUMBER}
_EXPLAIN = {"correlations": {"entries": [_CORRELATION]}, "regression?": _FIT}
_GROUP = {"attributes": [str], "levels": [(str, type(None))], "far": _NUMBER, "frr": _NUMBER}
_ANALYSIS = {
    "operating_point": {"policy": str},
    "groups": [{**_GROUP, "n_members": int}],
    "explain?": {"far?": _EXPLAIN, "frr?": _EXPLAIN},
    "kruskal?": {"*": {"labels": [str], "p": [[_NUMBER]]}},
}


def _check_shape(value, shape, path: str) -> None:
    """Raise a DataError naming the first place where ``value`` departs from ``shape``."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise DataError(f"{path or 'payload'} must be a JSON object")
        for key, inner in shape.items():
            if key == "*":
                for sub, item in value.items():
                    _check_shape(item, inner, f"{path}.{sub}")
                continue
            name = key.rstrip("?")
            where = f"{path}.{name}" if path else name
            if key.endswith("?") and value.get(name) is None:
                continue
            if name not in value:
                raise DataError(f"{where} is missing")
            _check_shape(value[name], inner, where)
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise DataError(f"{path} must be a list")
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{path}[{i}]")
    elif not isinstance(value, shape):
        raise DataError(f"{path} has the wrong type: {json.dumps(value)}")


def _check_payload(payload) -> None:
    """Check that ``payload`` has the shape the renderers read, and that
    the lists they read side by side agree in length."""
    _check_shape(payload, {"analyses": [_ANALYSIS]}, "")
    for i, analysis in enumerate(payload["analyses"]):
        parallel = [  # (where, list, lists of the same length)
            (f"groups[{k}]", g["attributes"], g["levels"])
            for k, g in enumerate(analysis["groups"])
        ]
        for metric, rep in (analysis.get("explain") or {}).items():
            if fit := rep.get("regression"):
                lists = fit["columns"], fit["coefficients"], fit["p_values"]
                parallel.append((f"explain.{metric}.regression", *lists))
        for metric, tests in (analysis.get("kruskal") or {}).items():
            parallel.append((f"kruskal.{metric}.p", tests["labels"], tests["p"], *tests["p"]))
        for where, first, *others in parallel:
            if any(len(other) != len(first) for other in others):
                raise DataError(f"analyses[{i}].{where}: lists differ in length")


def render_from_file(report_path: str | Path, outdir: str | Path) -> dict[str, object]:
    """Re-render tables and figures from an existing report.json."""
    report_path = Path(report_path)
    try:
        payload = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{report_path}: cannot read report payload: {exc}") from exc
    try:
        _check_payload(payload)
    except DataError as exc:
        raise DataError(f"{report_path}: {exc}") from None
    if not payload["analyses"]:
        raise DataError(f"{report_path}: payload holds no analyses")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tables = render_tables(payload, outdir)
    figures = render_figures(payload, outdir)
    return {"report": report_path, "tables": tables, "figures": figures}

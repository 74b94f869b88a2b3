"""Text rendering of evaluation results in the course-report style."""

from __future__ import annotations

from .evaluation import ClassMetrics, ConfusionMatrix, RegressionReport
from .labeling import round_half_up


def fmt_metric(x: float | None, digits: int = 2) -> str:
    if x is None:
        return "-"
    return f"{round_half_up(x, digits):.{digits}f}"


def confusion_text(cm: ConfusionMatrix) -> str:
    """Rows are actual classes, columns predicted, matching the
    ``<- classified as`` table layout."""
    names = [str(c) for c in cm.classes]
    width = max(4, max(len(n) for n in names), len(str(cm.counts.max())))
    header = "  ".join(n.rjust(width) for n in names) + "  ← classified as"
    lines = [header]
    for i, name in enumerate(names):
        cells = "  ".join(str(int(v)).rjust(width) for v in cm.counts[i])
        lines.append(f"{cells}  {name}")
    return "\n".join(lines)


def _grid(rows: list[list[str]]) -> str:
    """Rows of cells as lines: the first column left-justified, the others
    right-justified, each to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        row[0].ljust(widths[0])
        + "  "
        + "  ".join(cell.rjust(w) for cell, w in zip(row[1:], widths[1:]))
        for row in rows
    )


def metrics_table_text(rows: list[tuple[str, ClassMetrics]]) -> str:
    """Per-model metric table for one class (precision first, then recall,
    F-measure and FP rate)."""
    return _grid(
        [
            ["model", "precision", "recall", "f_measure", "fp_rate"],
            *(
                [name, *map(fmt_metric, (m.precision, m.recall, m.f_measure, m.fp_rate))]
                for name, m in rows
            ),
        ]
    )


def assignment_table_text(rows: list[dict]) -> str:
    """Per-assignment correlation table; one column per assignment."""
    cells = {
        "number of sub tasks": [
            "-" if r["n_tasks"] is None else str(r["n_tasks"]) for r in rows
        ],
        "correlation coefficient": [fmt_metric(r["correlation"]) for r in rows],
        "mean absolute error": [fmt_metric(r["mae"]) for r in rows],
        "root mean squared error": [fmt_metric(r["rmse"]) for r in rows],
    }
    header = ["assignment", *(str(r["assignment_id"]) for r in rows)]
    return _grid([header, *([key, *values] for key, values in cells.items())])


def regression_report_text(report: RegressionReport) -> str:
    return "\n".join(
        [
            f"mean error:        {fmt_metric(report.mean_error)}",
            f"std of error:      {fmt_metric(report.std_error)}",
            f"correlation:       {fmt_metric(report.correlation)}",
            f"mean abs error:    {fmt_metric(report.mae)}",
            f"root mean sq err:  {fmt_metric(report.rmse)}",
        ]
    )

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


def metrics_table_text(rows: list[tuple[str, ClassMetrics]]) -> str:
    """Per-model metric table for one class (precision first, then recall,
    F-measure and FP rate)."""
    name_width = max([len("model"), *(len(n) for n, _ in rows)])
    header = (
        f"{'model'.ljust(name_width)}  precision  recall  f_measure  fp_rate"
    )
    lines = [header]
    for name, m in rows:
        lines.append(
            f"{name.ljust(name_width)}  "
            f"{fmt_metric(m.precision).rjust(9)}  "
            f"{fmt_metric(m.recall).rjust(6)}  "
            f"{fmt_metric(m.f_measure).rjust(9)}  "
            f"{fmt_metric(m.fp_rate).rjust(7)}"
        )
    return "\n".join(lines)


def assignment_table_text(rows: list[dict]) -> str:
    """Per-assignment correlation table; one column per assignment."""
    labels = [str(r["assignment_id"]) for r in rows]
    cells = {
        "number of sub tasks": [
            "-" if r["n_tasks"] is None else str(r["n_tasks"]) for r in rows
        ],
        "correlation coefficient": [fmt_metric(r["correlation"]) for r in rows],
        "mean absolute error": [fmt_metric(r["mae"]) for r in rows],
        "root mean squared error": [fmt_metric(r["rmse"]) for r in rows],
    }
    row_width = max(len(k) for k in cells)
    col_widths = [
        max(len(labels[i]), *(len(v[i]) for v in cells.values())) for i in range(len(rows))
    ]
    lines = [
        "assignment".ljust(row_width)
        + "  "
        + "  ".join(lab.rjust(w) for lab, w in zip(labels, col_widths))
    ]
    for key, values in cells.items():
        lines.append(
            key.ljust(row_width)
            + "  "
            + "  ".join(v.rjust(w) for v, w in zip(values, col_widths))
        )
    return "\n".join(lines)


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

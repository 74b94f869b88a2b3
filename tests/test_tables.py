import re
import string

import numpy as np
from hypothesis import given, strategies as st

from gradecast.evaluation import ClassMetrics, ConfusionMatrix, RegressionReport
from gradecast.labeling import PerformanceCategory
from gradecast.tables import (
    assignment_table_text,
    confusion_text,
    fmt_metric,
    metrics_table_text,
    regression_report_text,
)

PP, SP, GP = PerformanceCategory.PP, PerformanceCategory.SP, PerformanceCategory.GP


def test_undefined_metric_renders_as_dash():
    assert fmt_metric(None) == "-"


def test_round_half_up_on_exact_binary_halves():
    assert fmt_metric(0.125) == "0.13"
    assert fmt_metric(0.375) == "0.38"
    assert fmt_metric(-0.125) == "-0.13"
    assert fmt_metric(2.5, digits=0) == "3"


def test_rounding_uses_the_binary_value_not_the_literal():
    # 2.675 is stored as 2.67499999999999982236431605997495353221893310546875.
    assert fmt_metric(2.675) == "2.67"
    assert fmt_metric(1.005) == "1.00"


def cell_ends(line: str, n: int) -> list[int]:
    return [m.end() for m in re.finditer(r"\S+", line)][:n]


def test_confusion_text_columns_line_up():
    counts = np.array([[12345, 2, 0], [7, 81, 3], [0, 0, 9]])
    text = confusion_text(ConfusionMatrix([PP, SP, GP], counts))
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("← classified as")
    ends = cell_ends(lines[0], 3)
    for line, label in zip(lines[1:], ["PP", "SP", "GP"]):
        assert cell_ends(line, 3) == ends
        assert line.endswith(f"  {label}")
    assert lines[1].split()[:3] == ["12345", "2", "0"]


def test_metrics_table_dashes_undefined_and_aligns_columns():
    rows = [
        ("tree", ClassMetrics(PP, 0.5, 0.25, 1 / 3, None)),
        ("tree+smote", ClassMetrics(PP, None, 0.0, None, 0.125)),
    ]
    lines = metrics_table_text(rows).splitlines()
    assert lines[0].split() == ["model", "precision", "recall", "f_measure", "fp_rate"]
    assert lines[1].split() == ["tree", "0.50", "0.25", "0.33", "-"]
    assert lines[2].split() == ["tree+smote", "-", "0.00", "-", "0.13"]
    assert len({len(line) for line in lines}) == 1


def test_assignment_table_renders_missing_task_count_as_dash():
    rows = [
        {"assignment_id": "a1", "n_tasks": 3, "correlation": 0.5, "mae": 10.0, "rmse": 12.25},
        {"assignment_id": "a2", "n_tasks": None, "correlation": None, "mae": 1.005, "rmse": 2.0},
    ]
    lines = assignment_table_text(rows).splitlines()
    assert lines[0].split() == ["assignment", "a1", "a2"]
    assert lines[1].split()[-2:] == ["3", "-"]
    assert lines[2].split()[-2:] == ["0.50", "-"]
    assert lines[3].split()[-2:] == ["10.00", "1.00"]
    assert len({len(line) for line in lines}) == 1


def test_regression_report_text_lists_every_statistic():
    text = regression_report_text(RegressionReport(0.125, None, 0.5, 1.0, 2.675))
    values = [line.split(":")[1].strip() for line in text.splitlines()]
    assert values == ["0.13", "-", "0.50", "1.00", "2.67"]


def test_metrics_table_of_no_rows_is_its_header():
    assert metrics_table_text([]) == "model  precision  recall  f_measure  fp_rate"


# Renderer properties: every label appears once, cells line up with their
# column's header, and "-" appears exactly where a value is None.

names = st.text(string.ascii_letters + string.digits + "_+.", min_size=1, max_size=12)
ratios = st.one_of(st.none(), st.floats(0.0, 1.0))


@given(st.lists(names, min_size=1, max_size=5, unique=True), st.data())
def test_confusion_text_labels_each_row_and_column_once(classes, data):
    k = len(classes)
    cells = st.lists(st.integers(0, 10**6), min_size=k * k, max_size=k * k)
    counts = np.array(data.draw(cells)).reshape(k, k)
    lines = confusion_text(ConfusionMatrix(classes, counts)).splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split()[:k] == classes
    assert header.endswith("  ← classified as")
    assert [line.split()[-1] for line in rows] == classes
    ends = cell_ends(header, k)
    for line, row in zip(rows, counts.tolist()):
        assert cell_ends(line, k) == ends
        assert line.split()[:k] == [str(v) for v in row]


metrics_rows = st.tuples(names, ratios, ratios, ratios, ratios)


@given(st.lists(metrics_rows, max_size=6, unique_by=lambda r: r[0]))
def test_metrics_table_rows_align_and_dash_only_undefined_metrics(rows):
    table = [(name, ClassMetrics(PP, *values)) for name, *values in rows]
    lines = metrics_table_text(table).splitlines()
    assert len(lines) == len(rows) + 1
    ends = cell_ends(lines[0], 5)[1:]
    for line, (name, *values) in zip(lines[1:], rows):
        cells = line.split()
        assert cells[0] == name
        assert cell_ends(line, 5)[1:] == ends
        assert [c == "-" for c in cells[1:]] == [v is None for v in values]
    assert len({len(line) for line in lines}) == 1


assignment_rows = st.fixed_dictionaries(
    {
        "assignment_id": names,
        "n_tasks": st.one_of(st.none(), st.integers(0, 10**4)),
        "correlation": st.one_of(st.none(), st.floats(-1.0, 1.0)),
        "mae": st.one_of(st.none(), st.floats(0.0, 1e6)),
        "rmse": st.one_of(st.none(), st.floats(0.0, 1e6)),
    }
)


@given(st.lists(assignment_rows, max_size=6, unique_by=lambda r: r["assignment_id"]))
def test_assignment_table_columns_align_and_dash_only_missing_values(rows):
    lines = assignment_table_text(rows).splitlines()
    n = len(rows)
    firsts = ["assignment", "number", "correlation", "mean", "root"]
    assert [line.split()[0] for line in lines] == firsts
    header = lines[0]
    assert header.split()[1:] == [r["assignment_id"] for r in rows]
    ends = [m.end() for m in re.finditer(r"\S+", header)][1:]
    for line, key in zip(lines[1:], ["n_tasks", "correlation", "mae", "rmse"]):
        cells = list(re.finditer(r"\S+", line))
        cells = cells[len(cells) - n :]
        assert [m.end() for m in cells] == ends
        assert [m.group() == "-" for m in cells] == [r[key] is None for r in rows]
    assert len({len(line) for line in lines}) == 1


@given(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=5, max_size=5))
def test_regression_report_text_aligns_values_and_dashes_only_undefined_ones(values):
    lines = regression_report_text(RegressionReport(*values)).splitlines()
    labels = [line.split(":")[0] for line in lines]
    assert len(set(labels)) == len(labels) == 5
    starts = {len(line) - len(line.split(":")[1].lstrip()) for line in lines}
    assert len(starts) == 1
    assert [line.split()[-1] == "-" for line in lines] == [v is None for v in values]

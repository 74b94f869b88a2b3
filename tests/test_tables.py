import re

import numpy as np

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

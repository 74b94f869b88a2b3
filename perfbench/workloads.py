"""The benchmark's workloads: cohort shapes, one analysis pass each, and checks.

A pass is one complete analysis as a user would run it. Every pass calls
every layer at least once, so every per-layer metric is measured on every
workload; the shapes decide which layer dominates:

* ``log_heavy``: many resubmissions of many testcases by a small class, so
  reading the submissions CSV dominates and the tree is cheap.
* ``wide_cv``: a larger, weaker class with one or two submissions per task,
  so ingest is cheap and gain-ratio tree work (SMOTE, training, 10-fold CV
  on a 48-column testcase matrix) dominates.
* ``assignment_report``: the dataset is loaded once in set-up; each pass
  builds every family for every assignment and exam, so dataset reads and
  feature building dominate, with a regression per assignment and exam and
  one tree for the final exam.

Sizes are chosen so one pass takes about 1-2 s on a 2-core host, giving
15-30 passes per 36 s run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

import oracle as checks
from cohort import EXAM_MAX, FINAL, MIDTERM, CohortShape

FAMILIES = ("passing_rate", "testcase_outcomes", "submission_count", "sti")
EXAMS = ("midterm", "final")
CV_FOLDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CohortShape
    load_in_setup: bool  # the dataset is set-up, not part of each pass
    predicted_dominant: str  # layer with the largest self time
    exam: str = "final"  # course passes: the exam predicted
    tree_family: str = "passing_rate"  # course passes: the tree's features


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "log_heavy",
            CohortShape(students=150, assignments=4, tasks_per_assignment=3,
                        testcases=20, resubmissions=12.0),
            load_in_setup=False,
            predicted_dominant="dataset",
        ),
        Workload(
            "wide_cv",
            CohortShape(students=400, assignments=6, tasks_per_assignment=2,
                        testcases=8, resubmissions=0.3, exam_mean=52.0, exam_scale=12.0),
            load_in_setup=False,
            predicted_dominant="tree",
            exam="midterm",
            tree_family="testcase_outcomes",
        ),
        Workload(
            "assignment_report",
            CohortShape(students=400, assignments=10, tasks_per_assignment=3,
                        testcases=6, resubmissions=1.8),
            load_in_setup=True,
            predicted_dominant="features",
        ),
    )
}


@dataclass
class Outputs:
    """Everything one pass produced that the checks and metrics look at."""

    report: object = None
    matrices: list = field(default_factory=list)  # (family, task_ids, exam, FeatureMatrix)
    trees: list = field(default_factory=list)  # TreeStep
    fits: list = field(default_factory=list)  # FitStep
    cv_tree: list = field(default_factory=list)  # ClassMetrics
    cv_regression: list = field(default_factory=list)  # RegressionReport
    tables: list = field(default_factory=list)  # (text, labels it must contain)


@dataclass
class TreeStep:
    train: object  # categorised training split, before oversampling
    oversampled_rows: int
    model: object
    test: object
    predicted: list
    confusion: object


@dataclass
class FitStep:
    model: object
    X: np.ndarray
    y: np.ndarray
    predicted: np.ndarray
    clamped: np.ndarray


def _utc(when: np.datetime64) -> datetime:
    return datetime.fromisoformat(str(when)).replace(tzinfo=timezone.utc)


def timeline(gc):
    return gc.dataset.CourseTimeline(_utc(MIDTERM), _utc(FINAL), EXAM_MAX, EXAM_MAX)


def load(gc, op, paths, tl):
    return op(gc.dataset.load_dataset, paths["tasks"], paths["submissions"], paths["grades"], tl)


def _features(gc, op, out: Outputs, ds, task_ids, exam) -> dict:
    config = gc.features.FeatureConfig(tuple(task_ids))
    built = {}
    for family in FAMILIES:
        matrix = op(gc.features.build_feature_matrix, ds, family, config, exam)
        out.matrices.append((family, tuple(task_ids), exam, matrix))
        built[family] = matrix
    return built


def _tree(gc, op, out: Outputs, matrix, seed: int) -> None:
    """Categorise, split, oversample PP, train, test and cross-validate."""
    labels = op(gc.labeling.categorize_all, matrix.target)
    categorical = matrix.with_target(labels, f"{matrix.target_name}_category")
    train, test = op(gc.labeling.split, categorical, gc.labeling.SplitSpec(seed=seed))
    balanced = op(gc.smote.oversample, train, gc.smote.SmoteConfig(seed=seed))
    model = op(gc.tree.train_tree, balanced)
    predicted = op(gc.tree.predict_many, model, test.values)
    cm = op(gc.evaluation.confusion, test.target.tolist(), predicted)
    pp = gc.labeling.PerformanceCategory.PP
    metrics = op(gc.evaluation.class_metrics, cm, pp)
    cv = op(gc.evaluation.cross_validate, categorical, "tree", CV_FOLDS, seed)
    out.trees.append(TreeStep(train, balanced.n_rows, model, test, predicted, cm))
    out.cv_tree.append(cv)
    out.tables.append((op(gc.tables.confusion_text, cm), [str(c) for c in cm.classes]))
    out.tables.append(
        (op(gc.tables.metrics_table_text, [("tree", metrics), ("tree 10-fold", cv)]), ["tree"])
    )


def _regression(gc, op, out: Outputs, matrix, seed: int):
    """Transformed fit on a split, its test report, and untransformed CV."""
    train, test = op(gc.labeling.split, matrix, gc.labeling.SplitSpec(seed=seed))
    model = op(gc.regress.fit_transformed, train.values, train.target, 1.0, train.column_names)
    predicted, clamped = op(gc.regress.predict_grades, model, test.values, EXAM_MAX)
    report = op(gc.evaluation.regression_report, test.target, predicted)
    cv = op(gc.evaluation.cross_validate, matrix, "regression", CV_FOLDS, seed)
    out.fits.append(FitStep(model, train.values, train.target, predicted, clamped))
    out.cv_regression.append(cv)
    return report, cv


def course_pass(gc, op, ctx) -> Outputs:
    """log_heavy and wide_cv: read the CSVs, then analyse one exam."""
    out = Outputs()
    ds = load(gc, op, ctx.paths, ctx.timeline)
    out.report = ds.report
    exam = ctx.workload.exam
    tasks = op(gc.dataset.tasks_before, ds, ctx.timeline.exam_date(exam))
    built = _features(gc, op, out, ds, [t.task_id for t in tasks], exam)
    _tree(gc, op, out, built[ctx.workload.tree_family], ctx.seed)
    report, _cv = _regression(gc, op, out, built["passing_rate"], ctx.seed)
    out.tables.append((op(gc.tables.regression_report_text, report), ["correlation"]))
    return out


def assignment_pass(gc, op, ctx) -> Outputs:
    """assignment_report: every family for every assignment and exam, a
    regression per assignment and exam, and one tree predicting the final
    exam's category from the last assignment."""
    out = Outputs()
    ds = ctx.dataset
    tasks = op(gc.dataset.tasks_before, ds, ctx.timeline.final_date)
    by_assignment: dict[str, list] = {}
    for task in tasks:
        by_assignment.setdefault(task.assignment_id, []).append(task)
    for exam in EXAMS:
        rows = []
        for assignment, assignment_tasks in by_assignment.items():
            task_ids = [t.task_id for t in assignment_tasks]
            built = _features(gc, op, out, ds, task_ids, exam)
            _report, cv = _regression(gc, op, out, built["passing_rate"], ctx.seed)
            rows.append({
                "assignment_id": assignment,
                "n_tasks": len(task_ids),
                "correlation": cv.correlation,
                "mae": cv.mae,
                "rmse": cv.rmse,
            })
        out.tables.append((op(gc.tables.assignment_table_text, rows), list(by_assignment)))
    # The last matrix built is the final exam's on the last assignment.
    _tree(gc, op, out, built["passing_rate"], ctx.seed)
    return out


PASSES = {
    "log_heavy": course_pass,
    "wide_cv": course_pass,
    "assignment_report": assignment_pass,
}


def check_pass(gc, op, ctx, out: Outputs) -> None:
    """Run every independent output check on one pass's outputs."""
    if out.report is not None:
        checks.check_load_report(op, ctx.cohort, out.report)
    for family, task_ids, exam, matrix in out.matrices:
        checks.check_matrix(op, ctx.oracle, family, task_ids, exam, matrix)
    for step in out.trees:
        checks.check_tree(op, step.model, step.oversampled_rows)
        checks.check_confusion(op, step.confusion, step.test.n_rows)
        reloaded = op(gc.tree.from_json, op(gc.tree.to_json, step.model))
        checks.check_roundtrip(op, step.predicted, op(gc.tree.predict_many, reloaded, step.test.values))
    for fit in out.fits:
        checks.check_regression(op, fit.model, fit.X, fit.y)
        checks.check_predictions(op, fit.predicted, fit.clamped, EXAM_MAX)
    for cv in out.cv_tree:
        checks.check_cv_tree(op, cv)
    for cv in out.cv_regression:
        checks.check_cv_regression(op, cv)
    for text, labels in out.tables:
        checks.check_table(op, text, labels)

"""Independent reference results and the output checks run on every pass.

The feature oracle recomputes the four feature families with numpy from the
generator's own arrays, never from the CSV files or ``gradecast`` objects.
"""

from __future__ import annotations

import numpy as np

from cohort import Cohort

_LOG_LAMBDA = 0.01  # |lambda| below this means the log transform
STI_THRESHOLD = 0.75  # FeatureConfig's default, which every pass uses


class Ops:
    """Counts operations: calls into the program and output checks.

    A call that raises and a check that does not hold both count as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{fn.__module__}.{fn.__name__} raised {exc!r}")
            raise

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {label}")


class FeatureOracle:
    """Feature matrices of a cohort, computed from its arrays."""

    def __init__(self, cohort: Cohort):
        c = cohort
        n_t = len(c.task_ids)
        n_c = len(c.testcase_ids)
        self.cohort = c
        self.rows = np.nonzero(c.retained)[0]  # ids are zero-padded: index order is id order
        self._task_index = {tid: i for i, tid in enumerate(c.task_ids)}

        pair = c.sub_student * n_t + c.sub_task
        n_pairs = len(c.student_ids) * n_t
        passed = c.sub_passed.sum(axis=1)
        self.count = np.bincount(pair, minlength=n_pairs)

        # Best submission: most testcases passed, ties to the latest.
        order = np.lexsort((c.sub_time, passed, pair))
        last = np.r_[pair[order][1:] != pair[order][:-1], True]
        best_rows = order[last]
        self.best_passed = np.zeros((n_pairs, n_c))
        self.best_passed[pair[best_rows]] = c.sub_passed[best_rows]
        self.passing_rate = np.zeros(n_pairs)
        self.passing_rate[pair[best_rows]] = passed[best_rows] / n_c

        # STI: earliest on-time submission reaching the threshold.
        deadline = c.deadlines[c.sub_task]
        qualifies = (c.sub_time <= deadline) & (passed / n_c >= STI_THRESHOLD)
        earliest = np.full(n_pairs, np.iinfo(np.int64).max)
        np.minimum.at(earliest, pair[qualifies], c.sub_time[qualifies])
        hit = earliest != np.iinfo(np.int64).max
        self.sti = np.zeros(n_pairs)
        pair_deadline = np.tile(c.deadlines, len(c.student_ids))
        self.sti[hit] = (pair_deadline[hit] - earliest[hit]) / 3600.0

    def student_ids(self) -> list[str]:
        return [self.cohort.student_ids[i] for i in self.rows]

    def target(self, exam: str) -> np.ndarray:
        grades = self.cohort.midterm if exam == "midterm" else self.cohort.final
        return grades[self.rows]

    def matrix(self, family: str, task_ids) -> tuple[list[str], np.ndarray]:
        """Column names and values of ``family`` over ``task_ids``."""
        n_t = len(self.cohort.task_ids)
        names: list[str] = []
        blocks = []
        for tid in task_ids:
            pairs = self.rows * n_t + self._task_index[tid]
            if family == "testcase_outcomes":
                names += [f"{tid}:{tc}" for tc in self.cohort.testcase_ids]
                blocks.append(self.best_passed[pairs])
                continue
            names.append(tid)
            column = {
                "passing_rate": self.passing_rate,
                "submission_count": self.count.astype(float),
                "sti": self.sti,
            }[family]
            blocks.append(column[pairs].reshape(-1, 1))
        return names, np.hstack(blocks)


def check_matrix(ops: Ops, oracle: FeatureOracle, family, task_ids, exam, matrix) -> None:
    names, values = oracle.matrix(family, task_ids)
    target = oracle.target(exam)
    ops.check(
        f"{family} features over {len(task_ids)} tasks match the oracle",
        matrix.student_ids == oracle.student_ids()
        and matrix.column_names == names
        and np.array_equal(matrix.values, values)
        and np.array_equal(np.asarray(matrix.target, dtype=float), target),
    )


def check_load_report(ops: Ops, cohort: Cohort, report) -> None:
    excluded = sorted(cohort.student_ids[i] for i in np.nonzero(~cohort.retained)[0])
    dropped = int((~cohort.retained[cohort.sub_student]).sum())
    ops.check(
        "LoadReport counts equal the generator's",
        report.students_read == len(cohort.student_ids)
        and report.students_retained == int(cohort.retained.sum())
        and report.excluded_students == excluded
        and report.submissions_read == len(cohort.sub_student)
        and report.submissions_dropped == dropped,
    )


def leaf_counts(node) -> list[list[int]]:
    stack, leaves = [node], []
    while stack:
        node = stack.pop()
        if hasattr(node, "label"):
            leaves.append(node.counts)
        else:
            stack += [node.right, node.left]
    return leaves


def tree_shape(node) -> tuple[int, int]:
    """(node count, depth) of a tree; a lone leaf has depth 0."""
    stack, nodes, depth = [(node, 0)], 0, 0
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        if not hasattr(node, "label"):
            stack += [(node.left, level + 1), (node.right, level + 1)]
    return nodes, depth


def check_tree(ops: Ops, model, train_rows: int) -> None:
    total = sum(sum(counts) for counts in leaf_counts(model.root))
    ops.check("tree leaf counts sum to the training rows", total == train_rows)


def check_roundtrip(ops: Ops, predictions, reloaded_predictions) -> None:
    ops.check(
        "from_json(to_json(model)) predicts identically",
        list(predictions) == list(reloaded_predictions),
    )


def check_confusion(ops: Ops, cm, test_rows: int) -> None:
    ops.check("confusion total equals the test rows", cm.total == test_rows)


def check_regression(ops: Ops, model, X, y) -> None:
    """Coefficients agree with numpy's lstsq on the transformed target."""
    lam, offset = model.transform.lam, model.transform.offset
    shifted = np.asarray(y, dtype=float) + offset
    target = np.log(shifted) if abs(lam) < _LOG_LAMBDA else shifted**lam
    design = np.column_stack([np.ones(len(target)), X])
    expected = np.linalg.lstsq(design, target, rcond=None)[0]
    scale = max(1.0, float(np.abs(expected).max()))
    ops.check(
        "regression coefficients agree with numpy.linalg.lstsq",
        np.allclose(model.coefficients, expected, rtol=1e-7, atol=1e-9 * scale),
    )


def check_predictions(ops: Ops, values, clamped, target_max: float) -> None:
    values = np.asarray(values)
    ops.check(
        "predicted grades lie in [0, target_max]",
        bool(np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= target_max)))
        and len(clamped) == len(values),
    )


def _in_unit(value) -> bool:
    return value is None or 0.0 <= value <= 1.0


def check_cv_tree(ops: Ops, metrics) -> None:
    ops.check(
        "tree CV metrics are undefined or in [0, 1]",
        all(_in_unit(v) for v in (metrics.precision, metrics.recall, metrics.f_measure, metrics.fp_rate)),
    )


def check_cv_regression(ops: Ops, report) -> None:
    ops.check(
        "regression CV errors are finite and non-negative",
        report.mae is not None
        and report.rmse is not None
        and 0.0 <= report.mae <= report.rmse
        and (report.correlation is None or -1.0 <= report.correlation <= 1.0),
    )


def check_table(ops: Ops, text: str, labels) -> None:
    ops.check(
        "table text names every row or column it was given",
        bool(text) and all(str(label) in text for label in labels),
    )

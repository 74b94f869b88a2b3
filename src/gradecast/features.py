"""Behavioural features computed per student per task.

Four families are supported:

* ``passing_rate``       fraction of testcases passed by the best submission
* ``testcase_outcomes``  0/1 vector of the best submission's testcase results
* ``submission_count``   number of submissions, late ones included
* ``sti``                hours between the earliest submission reaching the
                         pass-fraction threshold and the task deadline

A student who never submitted to a task contributes 0 / all-zeros for every
family, mirroring the 0-hour rule for late or absent qualifying submissions.

Each family reads one task's rows through the Dataset's run index (a run is
one student's rows, oldest first), and none of them sorts: ``passing_rate``
and ``testcase_outcomes`` gather each run's best row, ``submission_count``
is each run's length, and ``sti`` is one minimum per run (``reduceat``) over
the times of qualifying rows, the deadline standing in for the rest. The
float expressions are the per-submission ones: passing rate ``passed /
width``, the STI test ``passed / width >= threshold`` and STI ``diff_us /
1e6 / 3600.0``, which equals ``timedelta.total_seconds() / 3600.0`` because
a microsecond difference is exact in a float64.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import EXAMS, Dataset, TaskRows
from .errors import ConfigError

PASSING_RATE = "passing_rate"
TESTCASE_OUTCOMES = "testcase_outcomes"
SUBMISSION_COUNT = "submission_count"
STI = "sti"

FAMILIES = (PASSING_RATE, TESTCASE_OUTCOMES, SUBMISSION_COUNT, STI)


@dataclass(frozen=True)
class FeatureConfig:
    task_scope: tuple[str, ...]
    sti_threshold: float = 0.75

    def __post_init__(self):
        if not self.task_scope:
            raise ConfigError("task_scope must not be empty")
        if len(set(self.task_scope)) < len(self.task_scope):
            raise ConfigError("task_scope names a task twice")
        if not 0.0 < self.sti_threshold <= 1.0:
            raise ConfigError("sti_threshold must be in (0, 1]")


@dataclass
class FeatureMatrix:
    """Dense per-student feature values plus an optional target column."""

    student_ids: list[str]
    column_names: list[str]
    values: np.ndarray
    target: np.ndarray | None = None
    target_name: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ConfigError("feature values must be a 2-D matrix")
        n, m = self.values.shape
        if n != len(self.student_ids) or m != len(self.column_names):
            raise ConfigError("feature matrix shape does not match its labels")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("feature matrix contains non-finite entries")
        if self.target is not None:
            self.target = _checked_target(self.target, n)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def _derived(self, **fields) -> "FeatureMatrix":
        """This matrix with ``fields`` replaced by values that keep it valid,
        so the constructor's checks are not run again."""
        matrix = object.__new__(type(self))
        matrix.__dict__.update(self.__dict__, **fields)
        return matrix

    def take(self, indices) -> "FeatureMatrix":
        """Row subset preserving order of ``indices``."""
        idx = np.asarray(indices, dtype=np.intp)
        return self._derived(
            student_ids=list(map(self.student_ids.__getitem__, idx.tolist())),
            column_names=list(self.column_names),
            values=self.values[idx],
            target=None if self.target is None else self.target[idx],
        )

    def with_target(self, target, target_name: str) -> "FeatureMatrix":
        return self._derived(target=_checked_target(target, self.n_rows), target_name=target_name)

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["student_id", *self.column_names]
            if self.target is not None:
                header.append("target")
            writer.writerow(header)
            for i, sid in enumerate(self.student_ids):
                row = [sid, *(repr(float(v)) for v in self.values[i])]
                if self.target is not None:
                    row.append(str(self.target[i]))
                writer.writerow(row)


def _checked_target(target, n: int) -> np.ndarray:
    target = np.asarray(target)
    if len(target) != n:
        raise ConfigError("target length does not match row count")
    return target


def _block(family: str, rows: TaskRows, n: int, threshold: float) -> np.ndarray:
    """The family's columns for one task, a row per student code; 0 where a
    student has no submission."""
    width = rows.outcomes.shape[1]
    block = np.zeros((n, width if family == TESTCASE_OUTCOMES else 1))
    students = rows.run_student
    if family == SUBMISSION_COUNT:
        block[students, 0] = rows.run_count
    elif family == STI:
        # Each run's earliest qualifying time; the deadline (0 hours) if none.
        on_time = (rows.time_us <= rows.deadline_us) & (rows.passed / width >= threshold)
        times = np.where(on_time, rows.time_us, rows.deadline_us)
        earliest = np.minimum.reduceat(times, rows.run_first)
        block[students, 0] = (rows.deadline_us - earliest) / 1e6 / 3600.0
    elif family == PASSING_RATE:
        block[students, 0] = rows.passed[rows.run_best] / width
    else:
        block[students] = rows.outcomes[rows.run_best] == ord("P")
    return block


def build_feature_matrix(
    dataset: Dataset,
    family: str,
    config: FeatureConfig,
    target: str = "none",
) -> FeatureMatrix:
    """One row per retained student (sorted by id), columns per the family."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown feature family {family!r}")
    if target not in (*EXAMS, "none"):
        raise ConfigError(f"unknown target {target!r}")
    unknown = [t for t in config.task_scope if not dataset.has_task(t)]
    if unknown:
        raise ConfigError(f"task_scope references unknown tasks: {', '.join(unknown)}")

    students = list(dataset.student_ids)
    columns: list[str] = []
    blocks = []
    for task_id in config.task_scope:
        if family == TESTCASE_OUTCOMES:
            names = [f"{task_id}:{tc}" for tc in dataset.task(task_id).testcase_ids]
        else:
            names = [task_id]
        columns.extend(names)
        rows = dataset.task_rows(task_id)
        blocks.append(_block(family, rows, len(students), config.sti_threshold))

    matrix = FeatureMatrix(students, columns, np.hstack(blocks))
    if target != "none":
        matrix = matrix.with_target(getattr(dataset, target).copy(), target)
    return matrix

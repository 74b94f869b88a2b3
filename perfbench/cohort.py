"""Deterministic synthetic course for the benchmark.

``generate(shape, seed)`` draws one course from a seeded generator and keeps
the raw arrays, so the benchmark's oracle can recompute every feature without
going through ``gradecast``. ``write_csv`` renders the three input files the
program reads; the same shape and seed give byte-identical files.

Model:

* each student has an ability, each task and testcase a difficulty; a
  testcase's pass probability is a logistic function of ability minus
  difficulty and grows with every resubmission;
* a student skips a task with a small probability, otherwise submits
  ``1 + Poisson(resubmissions)`` times;
* a submission fails to compile (every testcase ``C``) with a fixed
  probability;
* submissions are spread over the fortnight before the deadline; a share of
  (student, task) pairs keeps resubmitting after the deadline;
* ~3% of students miss one exam; the others' exam points follow ability
  plus noise by rank, drawn from a fixed table of logistic quantiles, so the
  PP/SP/GP class sizes depend on the shape alone and not on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

COURSE_START = np.datetime64("2016-09-05T09:00:00", "s")
MIDTERM = np.datetime64("2016-10-24T12:00:00", "s")
FINAL = np.datetime64("2016-12-15T09:00:00", "s")
EXAM_MAX = 100.0

SKIP_RATE = 0.05  # share of (student, task) pairs never attempted
COMPILE_ERROR_RATE = 0.08  # share of submissions that fail to compile
LATE_RATE = 0.1  # share of (student, task) pairs resubmitting past the deadline
MISSED_EXAM_RATE = 0.03  # share of students who miss one exam

_EPOCH = np.datetime64("1970-01-01T00:00:00", "s")
_HOUR = 3600
_DAY = 24 * _HOUR


def epoch_seconds(when: np.datetime64) -> int:
    return int((when - _EPOCH) / np.timedelta64(1, "s"))


@dataclass(frozen=True)
class CohortShape:
    students: int
    assignments: int
    tasks_per_assignment: int
    testcases: int
    resubmissions: float  # Poisson mean of extra submissions per attempted task
    exam_mean: float = 62.0
    exam_scale: float = 11.0  # logistic scale of exam points

    @property
    def tasks(self) -> int:
        return self.assignments * self.tasks_per_assignment


@dataclass
class Cohort:
    """A generated course, held as arrays indexed by student, task and row."""

    shape: CohortShape
    student_ids: list[str]
    task_ids: list[str]
    assignment_ids: list[str]  # per task
    testcase_ids: list[str]  # shared by every task
    deadlines: np.ndarray  # int64 epoch seconds per task
    midterm: np.ndarray  # float per student, NaN = missed
    final: np.ndarray
    sub_student: np.ndarray  # int per submission row, in file order
    sub_task: np.ndarray
    sub_time: np.ndarray  # int64 epoch seconds
    sub_passed: np.ndarray  # bool (rows, testcases); all False on compile error
    sub_compile_error: np.ndarray  # bool per row

    @property
    def retained(self) -> np.ndarray:
        """Students who sat both exams, i.e. the rows the program keeps."""
        return ~(np.isnan(self.midterm) | np.isnan(self.final))


def generate(shape: CohortShape, seed: int | list[int]) -> Cohort:
    rng = np.random.default_rng(seed)
    n_s, n_t, n_c = shape.students, shape.tasks, shape.testcases

    student_ids = [f"s{i:05d}" for i in range(n_s)]
    assignment_ids = [f"a{a + 1:02d}" for a in range(shape.assignments)]
    task_ids = [
        f"{assignment_ids[a]}t{t + 1}"
        for a in range(shape.assignments)
        for t in range(shape.tasks_per_assignment)
    ]
    task_assignment = [
        assignment_ids[a]
        for a in range(shape.assignments)
        for _ in range(shape.tasks_per_assignment)
    ]
    testcase_ids = [f"tc{i + 1}" for i in range(n_c)]

    # Assignments are due at evenly spaced days between course start and a
    # week before the final; a task's deadline is its assignment's, staggered
    # by an hour per task so tasks_before orders them deterministically.
    span_days = (FINAL - COURSE_START) / np.timedelta64(1, "D") - 7
    start = epoch_seconds(COURSE_START)
    due_day = np.linspace(14, span_days, shape.assignments).round().astype(np.int64)
    deadlines = np.array(
        [
            start + due_day[a] * _DAY + t * _HOUR
            for a in range(shape.assignments)
            for t in range(shape.tasks_per_assignment)
        ],
        dtype=np.int64,
    )

    # Abilities and difficulties are fixed sets of values, dealt out by the
    # seed: cohorts of one shape differ in who is strong and which task is
    # hard, not in how strong or hard they are, so the work per pass varies
    # little from seed to seed.
    fixed = np.random.default_rng(0)
    ability = rng.permutation(fixed.normal(0.0, 1.0, n_s))
    task_difficulty = rng.permutation(fixed.normal(0.0, 0.6, n_t))
    case_difficulty = rng.permutation(fixed.normal(0.0, 0.8, n_t * n_c)).reshape(n_t, n_c)

    attempted = rng.random((n_s, n_t)) >= SKIP_RATE
    counts = np.where(attempted, 1 + rng.poisson(shape.resubmissions, (n_s, n_t)), 0)
    late = rng.random((n_s, n_t)) < LATE_RATE

    # Rows in file order: student-major, task, then submission time.
    sub_student = np.repeat(np.repeat(np.arange(n_s), n_t), counts.ravel())
    sub_task = np.repeat(np.tile(np.arange(n_t), n_s), counts.ravel())
    n_rows = len(sub_student)
    group_start = np.repeat(np.cumsum(counts.ravel()) - counts.ravel(), counts.ravel())
    attempt = np.arange(n_rows) - group_start  # 0-based resubmission number
    pair_count = counts[sub_student, sub_task]

    # Times: the first submission lands 1-14 days before the deadline, the
    # rest follow evenly up to half a day before the deadline, or up to two
    # days past it for late pairs. Adding the attempt number keeps the rows of
    # a (student, task) pair strictly increasing, so no two share a timestamp.
    first_offset = rng.uniform(1 * _DAY, 14 * _DAY, (n_s, n_t))
    overrun = np.where(
        late,
        rng.uniform(1 * _HOUR, 2 * _DAY, (n_s, n_t)),
        -rng.uniform(0, _DAY / 2, (n_s, n_t)),
    )
    window = (first_offset + overrun)[sub_student, sub_task]
    frac = attempt / np.maximum(pair_count - 1, 1)
    offsets = np.floor(frac * window).astype(np.int64) + attempt
    sub_time = deadlines[sub_task] - first_offset[sub_student, sub_task].astype(np.int64) + offsets

    progress = 0.35 * attempt
    logit = (
        1.6 * ability[sub_student, None]
        - task_difficulty[sub_task, None]
        - case_difficulty[sub_task]
        + progress[:, None]
    )
    p_pass = 1.0 / (1.0 + np.exp(-logit))
    sub_passed = rng.random((n_rows, n_c)) < p_pass
    sub_compile_error = rng.random(n_rows) < COMPILE_ERROR_RATE
    sub_passed[sub_compile_error] = False

    missed = np.zeros(n_s, dtype=bool)
    missed[rng.choice(n_s, round(MISSED_EXAM_RATE * n_s), replace=False)] = True
    skips_midterm = rng.random(n_s) < 0.5
    points = _exam_points(shape, (~missed).sum())
    midterm = _exam(rng, ability, missed, points)
    final = _exam(rng, ability, missed, points)
    midterm[missed & skips_midterm] = np.nan
    final[missed & ~skips_midterm] = np.nan

    return Cohort(
        shape, student_ids, task_ids, task_assignment, testcase_ids, deadlines,
        midterm, final, sub_student, sub_task, sub_time, sub_passed, sub_compile_error,
    )


def _exam_points(shape: CohortShape, n: int) -> np.ndarray:
    """Ascending exam points of ``n`` students: logistic quantiles, clipped."""
    p = (np.arange(n) + 0.5) / n
    points = shape.exam_mean + shape.exam_scale * np.log(p / (1 - p))
    return np.clip(np.round(points, 1), 0, EXAM_MAX)


def _exam(rng, ability, missed, points) -> np.ndarray:
    """Points by rank of ability plus noise; students who miss an exam get a
    random entry of the table for the exam they sit."""
    score = ability + rng.normal(0.0, 0.6, len(ability))
    exam = points[rng.integers(len(points), size=len(ability))]
    sitters = np.nonzero(~missed)[0]
    exam[sitters[np.argsort(score[sitters], kind="stable")]] = points
    return exam


def _iso(seconds: np.ndarray) -> np.ndarray:
    stamps = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s")
    return np.char.add(stamps, "Z")


def _grade_text(values: np.ndarray) -> list[str]:
    return ["" if np.isnan(v) else f"{v:.1f}" for v in values]


def write_csv(cohort: Cohort, directory) -> dict[str, Path]:
    """Write tasks.csv, submissions.csv and grades.csv; return their paths."""
    directory = Path(directory)
    paths = {name: directory / f"{name}.csv" for name in ("tasks", "submissions", "grades")}

    testcases = ";".join(cohort.testcase_ids)
    deadline_text = _iso(cohort.deadlines)
    lines = ["task_id,assignment_id,deadline,testcase_ids"]
    lines += [
        f"{tid},{aid},{when},{testcases}"
        for tid, aid, when in zip(cohort.task_ids, cohort.assignment_ids, deadline_text)
    ]
    paths["tasks"].write_text("\n".join(lines) + "\n")

    # Plain Python strings, not numpy string arrays, keep the generator's
    # memory peak well below the program's, so peak_rss_mb tracks the program.
    codes = np.where(cohort.sub_passed, ord("P"), ord("F")).astype(np.uint8)
    codes[cohort.sub_compile_error] = ord("C")
    width = codes.shape[1]
    outcomes = codes.tobytes().decode("ascii")
    students = [cohort.student_ids[i] for i in cohort.sub_student.tolist()]
    tasks = [cohort.task_ids[i] for i in cohort.sub_task.tolist()]
    lines = ["student_id,task_id,submitted_at,outcomes"]
    lines += [
        f"{sid},{tid},{when},{outcomes[row * width:(row + 1) * width]}"
        for row, (sid, tid, when) in enumerate(zip(students, tasks, _iso(cohort.sub_time).tolist()))
    ]
    paths["submissions"].write_text("\n".join(lines) + "\n")

    lines = ["student_id,midterm,final"]
    lines += [
        f"{sid},{m},{f}"
        for sid, m, f in zip(cohort.student_ids, _grade_text(cohort.midterm), _grade_text(cohort.final))
    ]
    paths["grades"].write_text("\n".join(lines) + "\n")
    return paths

"""Course data model and CSV ingestion.

Input files (all UTF-8 CSV with a header row; a BOM is allowed):

* tasks:        task_id,assignment_id,deadline,testcase_ids
                deadline is ISO-8601 UTC, testcase_ids is ``;``-separated
* submissions:  student_id,task_id,submitted_at,outcomes
                outcomes is a string over {P,F,C}, one character per testcase
* grades:       student_id,midterm,final (empty field = exam missed)

A bad row raises an error naming ``path:line``, the physical line the row
starts on, counting blank lines and line breaks inside quoted fields.

Students missing either exam are excluded from the dataset (their
submissions are dropped) and counted in the load report.

A Dataset keeps the retained submissions as columns sorted by (task,
student, time): task ``t``'s rows are ``_task_rows[t]:_task_rows[t + 1]``;
``_student`` indexes ``student_ids``; ``_time_us`` is int64 microseconds
since the epoch, exact for any datetime, sub-second ones included;
``_passed`` counts ``P`` outcomes; ``_outcomes`` is one flat uint8 buffer of
outcome characters, task ``t``'s rows a (rows, testcase_count) block at
``_task_bytes[t]``. File rows and records go through one validator, which
raises the error of the earliest bad row.
"""

from __future__ import annotations

import contextlib
import csv
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ParseError, ReferentialError

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_NO_TIME = np.iinfo(np.int64).min  # a timestamp that did not parse
# The one timestamp form numpy parses exactly as parse_timestamp does.
_PLAIN_UTC = re.compile(r"(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


class Outcome(Enum):
    PASSED = "P"
    FAILED = "F"
    COMPILE_ERROR = "C"


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    assignment_id: str
    deadline: datetime
    testcase_ids: tuple[str, ...]

    @property
    def testcase_count(self) -> int:
        return len(self.testcase_ids)


@dataclass(frozen=True)
class CourseTimeline:
    midterm_date: datetime
    final_date: datetime
    midterm_max: float
    final_max: float

    def __post_init__(self):
        if self.midterm_date >= self.final_date:
            raise ConfigError("midterm_date must precede final_date")
        if self.midterm_max <= 0 or self.final_max <= 0:
            raise ConfigError("exam maxima must be positive")

    def exam_date(self, exam: str) -> datetime:
        return self.midterm_date if exam == "midterm" else self.final_date

    def exam_max(self, exam: str) -> float:
        return self.midterm_max if exam == "midterm" else self.final_max


@dataclass(frozen=True)
class SubmissionRecord:
    student_id: str
    task_id: str
    submitted_at: datetime
    outcomes: tuple[Outcome, ...]

    @property
    def passed_count(self) -> int:
        return sum(1 for o in self.outcomes if o is Outcome.PASSED)


@dataclass(frozen=True)
class GradeRecord:
    student_id: str
    midterm: float | None
    final: float | None

    def exam(self, which: str) -> float | None:
        return self.midterm if which == "midterm" else self.final


@dataclass
class LoadReport:
    """Counts of records read and dropped while building a dataset."""

    students_read: int = 0
    students_retained: int = 0
    excluded_students: list[str] = field(default_factory=list)
    submissions_read: int = 0
    submissions_dropped: int = 0


class TaskRows(NamedTuple):
    """One task's rows, by student then time: views into a Dataset's columns."""

    student: np.ndarray
    time_us: np.ndarray
    passed: np.ndarray
    outcomes: np.ndarray  # uint8 characters, (rows, testcase_count)
    deadline_us: int


class _Rows(NamedTuple):
    """Submission rows in input order, parsed but not yet validated."""

    student_ids: list[str]
    task_ids: list[str]
    time_us: np.ndarray  # int64, _NO_TIME where the text did not parse
    outcomes: list[str]
    path: object = None  # the file the rows came from; None for records
    times: list[str] | None = None  # a file's timestamp texts
    lines: list[int] | None = None  # a file's physical line of each row

    def error(self, i: int, referential: bool, message: str) -> Exception:
        """Row ``i``'s error: file rows name ``path:line``, records their ids."""
        if self.path is None:
            text = f"submission {self.student_ids[i]}/{self.task_ids[i]}: {message}"
            return ReferentialError(text) if referential else ConfigError(text)
        if referential:
            return ReferentialError(f"{self.path}:{self.lines[i]}: {message}")
        return ParseError(self.path, self.lines[i], message)


class Dataset:
    """Validated, immutable view of one course's submission history.

    Construction resolves referential integrity and drops students that
    miss either exam; afterwards the object is safe to share read-only.
    """

    def __init__(
        self,
        tasks: list[TaskSpec],
        timeline: CourseTimeline,
        submissions: list[SubmissionRecord],
        grades: list[GradeRecord],
    ):
        self._task_index: dict[str, int] = {}
        for task in tasks:
            if task.testcase_count < 1:
                raise ConfigError(f"task {task.task_id} has no testcases")
            if task.task_id in self._task_index:
                raise ConfigError(f"duplicate task_id {task.task_id}")
            self._task_index[task.task_id] = len(self._task_index)
        self.tasks = tuple(tasks)
        self.timeline = timeline

        self.report = LoadReport()
        self.report.students_read = len(grades)

        grades_by_id: dict[str, GradeRecord] = {}
        for g in grades:
            if g.student_id in grades_by_id:
                raise ConfigError(f"duplicate grade row for student {g.student_id}")
            grades_by_id[g.student_id] = g

        retained = {
            sid: g
            for sid, g in grades_by_id.items()
            if g.midterm is not None and g.final is not None
        }
        excluded = sorted(set(grades_by_id) - set(retained))
        self.report.excluded_students.extend(excluded)
        self.report.students_retained = len(retained)

        self.grades: dict[str, GradeRecord] = retained
        self.student_ids: tuple[str, ...] = tuple(sorted(retained))
        # A retained student's row index; excluded students get -2, -3, ...
        self._codes = {sid: -2 - i for i, sid in enumerate(excluded)}
        self._codes.update((sid, i) for i, sid in enumerate(self.student_ids))
        if not isinstance(submissions, _Rows):
            submissions = _Rows(
                [s.student_id for s in submissions],
                [s.task_id for s in submissions],
                np.array([_epoch_us(s.submitted_at) for s in submissions], dtype=np.int64),
                ["".join(o.value for o in s.outcomes) for s in submissions],
            )
        self._store(submissions)

    def _store(self, rows: _Rows) -> None:
        """Validate the rows; keep the retained students' rows as columns."""
        n = len(rows.task_ids)
        task = np.array([self._task_index.get(t, -1) for t in rows.task_ids], dtype=np.int64)
        student = np.array([self._codes.get(s, -1) for s in rows.student_ids], dtype=np.int64)
        widths = np.array([t.testcase_count for t in self.tasks] + [-1])  # -1: unknown task
        lengths = np.fromiter(map(len, rows.outcomes), np.int64, n)
        chars = np.frombuffer("".join(rows.outcomes).encode("ascii", "replace"), np.uint8)
        row_of = np.repeat(np.arange(n, dtype=np.int32), lengths)
        passed, failed, compiled = (
            np.bincount(row_of[chars == ord(c)], minlength=n) for c in "PFC"
        )
        # Stable: the later row of an equal (task, student, time) pair is flagged.
        order = np.lexsort((rows.time_us, student, task))
        keys = np.stack([task, student, rows.time_us])[:, order]
        duplicate = np.zeros(n, dtype=bool)
        duplicate[order[1:][(np.diff(keys) == 0).all(axis=0)]] = True
        # Message -> rows failing; on one row the first listed wins.
        checks = {
            "unknown task_id {task!r}": task < 0,
            "unknown student_id {student!r}": student == -1,
            "bad timestamp {time!r}": rows.time_us == _NO_TIME,
            "bad outcome character {bad!r}": passed + failed + compiled < lengths,
            "compile_error must apply to every testcase of a submission": (compiled > 0)
            & (compiled < lengths),
            "{length} outcomes for task {task} with {width} testcases": lengths != widths[task],
            "duplicate (student, task, timestamp) row": duplicate,
        }
        hits = [(int(np.argmax(bad)), k) for k, bad in enumerate(checks.values()) if bad.any()]
        if hits:
            i, k = min(hits)
            message = list(checks)[k].format(
                task=rows.task_ids[i],
                student=rows.student_ids[i],
                time=rows.times and rows.times[i],
                bad=next((ch for ch in rows.outcomes[i] if ch not in "PFC"), None),
                length=lengths[i],
                width=widths[task[i]],
            )
            raise rows.error(i, k < 2, message)  # the first two are referential

        keep = order[student[order] >= 0]
        self._student, self._time_us, self._passed = student[keep], rows.time_us[keep], passed[keep]
        text = "".join([rows.outcomes[i] for i in keep.tolist()])
        self._outcomes = np.frombuffer(text.encode("ascii"), np.uint8)
        self._task_rows = np.searchsorted(task[keep], np.arange(len(self.tasks) + 1))
        self._task_bytes = np.cumsum([0, *(np.diff(self._task_rows) * widths[:-1])])
        self.report.submissions_read = n
        self.report.submissions_dropped = n - len(keep)

    def task(self, task_id: str) -> TaskSpec:
        return self.tasks[self._task_code(task_id)]

    def _task_code(self, task_id: str) -> int:
        try:
            return self._task_index[task_id]
        except KeyError:
            raise ReferentialError(f"unknown task_id {task_id!r}") from None

    def has_task(self, task_id: str) -> bool:
        return task_id in self._task_index

    def task_rows(self, task_id: str, student_id: str | None = None) -> TaskRows:
        """The task's rows; or one student's (none if not retained), as code 0."""
        t = self._task_code(task_id)
        first, lo, hi = self._task_rows[t], self._task_rows[t], self._task_rows[t + 1]
        if student_id is not None:
            code = self._codes.get(student_id, -1)
            lo, hi = lo + np.searchsorted(self._student[lo:hi], [code, code + 1])
        width = self.tasks[t].testcase_count
        start = self._task_bytes[t] + (lo - first) * width
        return TaskRows(
            self._student[lo:hi] if student_id is None else np.zeros(hi - lo, dtype=np.int64),
            self._time_us[lo:hi],
            self._passed[lo:hi],
            self._outcomes[start : start + (hi - lo) * width].reshape(-1, width),
            _epoch_us(self.tasks[t].deadline),
        )

    def submissions(self, student_id: str, task_id: str) -> list[SubmissionRecord]:
        """The student's submissions to the task, oldest first."""
        rows = self.task_rows(task_id, student_id)
        times = [_EPOCH + us * _MICROSECOND for us in rows.time_us.tolist()]
        outcomes = [tuple(map(Outcome, chars.tobytes().decode())) for chars in rows.outcomes]
        return [SubmissionRecord(student_id, task_id, *pair) for pair in zip(times, outcomes)]

    def grade(self, student_id: str, exam: str) -> float:
        return self.grades[student_id].exam(exam)


def tasks_before(dataset: Dataset, cutoff: datetime) -> list[TaskSpec]:
    """Tasks whose deadline is on or before ``cutoff``, by deadline then id."""
    hits = [t for t in dataset.tasks if t.deadline <= cutoff]
    hits.sort(key=lambda t: (t.deadline, t.task_id))
    return hits


def best_submission(
    dataset: Dataset, student_id: str, task_id: str
) -> SubmissionRecord | None:
    """The submission passing the most testcases; ties go to the latest one."""
    subs = dataset.submissions(student_id, task_id)
    if not subs:
        return None
    return max(subs, key=lambda s: (s.passed_count, s.submitted_at))


def parse_timestamp(raw: str) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _epoch_us(when: datetime) -> int:
    """Microseconds since the Unix epoch; a naive datetime is read as UTC."""
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return (when - _EPOCH) // _MICROSECOND


def _parsed_us(text: str) -> int:
    try:
        return _epoch_us(parse_timestamp(text))
    except ValueError:
        return _NO_TIME


def _epoch_us_column(texts: list[str]) -> np.ndarray:
    """``_parsed_us`` of each text; numpy parses a column that is all in the
    plain ``YYYY-MM-DDTHH:MM:SSZ`` form in one call."""
    if all(map(_PLAIN_UTC.fullmatch, texts)):
        with contextlib.suppress(ValueError):  # a field out of range
            return np.array(texts, dtype="U19").astype("datetime64[us]").view(np.int64)
    return np.array([_parsed_us(t) for t in texts], dtype=np.int64)


def _read_rows(path, required: list[str]) -> tuple[list[int], list[tuple[str, ...]]]:
    """The physical line each row starts on, and its required fields. Blank
    lines are skipped; missing fields read as empty; a UTF-8 BOM is dropped."""
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise ParseError(path, 1, f"missing columns: {', '.join(missing)}")
        column = {name: i for i, name in enumerate(header)}
        fields = itemgetter(*(column[c] for c in required))
        pad = [""] * len(header)
        lines, rows, start = [], [], reader.line_num + 1
        for row in reader:
            if row:
                lines.append(start)
                rows.append(fields(row + pad[len(row) :]))
            start = reader.line_num + 1
        return lines, rows


def _read_tasks(path) -> list[TaskSpec]:
    tasks = []
    lines, rows = _read_rows(path, ["task_id", "assignment_id", "deadline", "testcase_ids"])
    for line_no, (task_id, assignment_id, deadline, testcase_ids) in zip(lines, rows):
        try:
            when = parse_timestamp(deadline)
        except ValueError:
            raise ParseError(path, line_no, f"bad timestamp {deadline!r}") from None
        ids = tuple(t for t in testcase_ids.split(";") if t)
        if not ids:
            raise ParseError(path, line_no, "task has no testcase_ids")
        if len(set(ids)) != len(ids):
            raise ParseError(path, line_no, "duplicate testcase ids")
        tasks.append(TaskSpec(task_id, assignment_id, when, ids))
    return tasks


def _read_submissions(path) -> _Rows:
    """The submissions file as raw columns, validated by ``Dataset``."""
    lines, rows = _read_rows(path, ["student_id", "task_id", "submitted_at", "outcomes"])
    students, tasks, times, outcomes = map(list, zip(*rows)) if rows else ([],) * 4
    outcomes = [o.strip() for o in outcomes]
    return _Rows(students, tasks, _epoch_us_column(times), outcomes, path, times, lines)


def _parse_grade(raw: str, maximum: float, path, line_no: int, label: str) -> float | None:
    text = raw.strip()
    if not text:
        return None
    try:
        value = float(text)
        if math.isnan(value):
            raise ValueError(text)
    except ValueError:
        raise ParseError(path, line_no, f"bad {label} grade {raw!r}") from None
    if value < 0 or value > maximum:
        raise ParseError(
            path, line_no, f"{label} grade {value} outside [0, {maximum}]"
        )
    return value


def _read_grades(path, timeline: CourseTimeline) -> list[GradeRecord]:
    grades = []
    seen: set[str] = set()
    lines, rows = _read_rows(path, ["student_id", "midterm", "final"])
    for line_no, (sid, midterm, final) in zip(lines, rows):
        if sid in seen:
            raise ParseError(path, line_no, f"duplicate grade row for {sid}")
        seen.add(sid)
        grades.append(
            GradeRecord(
                sid,
                _parse_grade(midterm, timeline.midterm_max, path, line_no, "midterm"),
                _parse_grade(final, timeline.final_max, path, line_no, "final"),
            )
        )
    return grades


def load_dataset(tasks_path, submissions_path, grades_path, timeline: CourseTimeline) -> Dataset:
    """Load and cross-validate the three CSV files into a Dataset."""
    tasks = _read_tasks(tasks_path)
    grades = _read_grades(grades_path, timeline)
    return Dataset(tasks, timeline, _read_submissions(submissions_path), grades)


def timeline_from_file(path) -> CourseTimeline:
    """Parse a key=value config file holding the four timeline fields."""
    values: dict[str, str] = {}
    path = Path(path)
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, line_no, "expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    required = ["midterm_date", "final_date", "midterm_max", "final_max"]
    missing = [k for k in required if k not in values]
    if missing:
        raise ConfigError(f"timeline file missing keys: {', '.join(missing)}")
    return CourseTimeline(
        midterm_date=parse_timestamp(values["midterm_date"]),
        final_date=parse_timestamp(values["final_date"]),
        midterm_max=float(values["midterm_max"]),
        final_max=float(values["final_max"]),
    )

"""Course data model and CSV ingestion.

Input files (all UTF-8 CSV with a header row; a BOM is allowed):

* tasks:        task_id,assignment_id,deadline,testcase_ids
                deadline is ISO-8601 UTC, testcase_ids is ``;``-separated
* submissions:  student_id,task_id,submitted_at,outcomes
                outcomes is a string over {P,F,C}, one character per testcase
* grades:       student_id,midterm,final (empty field = exam missed)

Tasks and grades files are read by ``csv.reader`` straight into columns,
one list of strings per required field. A submissions file has two readers:

* A plain file is read as bytes, in a few numpy passes and without a Python
  string per field. Plain means: after an optional BOM every byte is ASCII
  and none is a quote, CR or NUL; every non-blank line has as many commas
  as the header; no line is longer than ``csv.field_size_limit()``; every
  outcome byte is ``P``, ``F`` or ``C``; and every ``submitted_at`` is
  ``YYYY-MM-DDTHH:MM:SSZ`` with its fields in range (year 0000 is out, as
  ``datetime`` refuses it). Blank lines are skipped and the last line may
  lack its newline, as with ``csv.reader``. One pass finds the line ends and
  one the commas, which bound every field. Each ``student_id`` and
  ``task_id`` field is read as big-endian 8-byte words, NUL past its end,
  so that integer order is byte order; one ``np.lexsort`` of the words
  codes the distinct ids, and each is decoded once, in whatever order the
  rows come. The outcome bytes are masked out into one buffer. The times
  form one (rows, 20) byte block: a few array comparisons check its digits
  and separators, and numpy parses its first 19 columns.
* Any other file, such as one with a quoted field, CRLF line ends or a time
  with an offset, is read by ``csv.reader``, the only reader of quoted
  fields; each time text is parsed by ``parse_timestamp``.

Both readers give ``Dataset`` the same columns: each id column as a list
of ids with each row's place in it, the times, the outcome bytes back to
back and each row's outcome length. The readers refuse only text they
cannot read: a byte that is not UTF-8, a missing column, a bad deadline or
grade. ``Dataset`` checks every other rule once, for records and file rows
alike: the tasks, the grades, then the submission rows (a bad time among
them). So a load raises the tasks, grades and submissions files' read errors
first, in that order, then the first broken rule. A refused file row names
``path:line``, the physical line it starts on, counting blank lines and line
breaks inside quoted fields, found only when the error is raised; a refused
record names itself: ``task t1``, ``student s2`` or ``submission s1/t1``.

Students missing either exam are excluded from the dataset (their
submissions are dropped) and counted in the load report.

A Dataset keeps the retained submissions as columns sorted by (task,
student, time), in one stable argsort of one int64 key: the (task, student)
pair's code times the number of distinct times, plus the time's dense rank;
rows with equal keys are duplicates. ``time_us`` is int64 microseconds
since the epoch, exact for any datetime, sub-second ones included;
``passed`` counts ``P`` outcomes; ``outcomes`` holds a task's outcome
characters as one (rows, testcase_count) uint8 block, gathered row by row
from the readers' buffer. Of several bad submission rows, the earliest is
refused. The exam grades are arrays too: ``midterm`` and ``final`` hold the
retained students' grades in ``student_ids`` order.

The rows of one (task, student) pair are a run. Right after the sort, a few
O(rows) segment reductions (``reduceat``) index every run: its student, its
first row, its length and its best row. The best row has the most passes,
ties to the latest, which in time order is the last row with the run's
maximum; this is the one definition of a best submission, read by the
feature families. Each task's rows and runs are kept as one ``TaskRows`` of
views, built once.
"""

from __future__ import annotations

import codecs
import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ParseError, ReferentialError

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_NO_TIME = np.iinfo(np.int64).min  # a timestamp that did not parse
_YEAR_ONE_US = (datetime(1, 1, 1, tzinfo=timezone.utc) - _EPOCH) // _MICROSECOND
# The one timestamp form numpy parses exactly as parse_timestamp does,
# YYYY-MM-DDTHH:MM:SSZ: where its digits and its separators sit.
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATORS = [4, 7, 10, 13, 16, 19]
_SEPARATOR_BYTES = np.frombuffer(b"--T::Z", np.uint8)
# _LEADING_BYTES[k] keeps the first k bytes of a big-endian 8-byte word.
_LEADING_BYTES = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)


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
        refused = _refused_timeline_field(vars(self))
        if refused:
            raise ConfigError(refused[1])

    def exam_date(self, exam: str) -> datetime:
        return self.midterm_date if exam == "midterm" else self.final_date

    def exam_max(self, exam: str) -> float:
        return self.midterm_max if exam == "midterm" else self.final_max


def _refused_timeline_field(fields) -> tuple[str, str] | None:
    """(field, reason) of the first timeline value a CourseTimeline refuses,
    or None; dates out of order are charged to ``final_date``."""
    if fields["midterm_date"] >= fields["final_date"]:
        return "final_date", "midterm_date must precede final_date"
    for key in ("midterm_max", "final_max"):
        if not 0 < fields[key] < math.inf:
            return key, "exam maxima must be positive and finite"
    return None


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
    """One task's rows, by student then time, and its runs, one per student
    with rows, by student code: views into a Dataset's columns. A student's
    code is their place in ``Dataset.student_ids``."""

    time_us: np.ndarray
    passed: np.ndarray
    outcomes: np.ndarray  # uint8 characters, (rows, testcase_count)
    deadline_us: int
    run_student: np.ndarray  # each run's student code
    run_first: np.ndarray  # each run's first row
    run_count: np.ndarray  # each run's number of rows
    run_best: np.ndarray  # each run's best row: most passes, then latest


class _Rows(NamedTuple):
    """Submission rows in input order, parsed but not yet validated."""

    student_ids: list[str]  # the ids that ``id_index`` points into
    task_ids: list[str]
    time_us: np.ndarray  # int64, _NO_TIME where the text did not parse
    outcomes: np.ndarray  # the rows' outcome characters back to back, uint8
    path: object = None  # the file the rows came from; None for records
    lengths: np.ndarray | None = None  # each row's number of outcome characters
    id_index: tuple[np.ndarray, np.ndarray] | None = None  # each row's place in the two
    texts: Callable[[int], tuple] | None = None  # a row's four fields as text


class _FileRecords(list):
    """Records read from the file ``path``, one per non-blank data row."""

    def __init__(self, records, path):
        super().__init__(records)
        self.path = path


def _refusal(path, i: int, message: str, record: str = "", referential: bool = False):
    """The error refusing row ``i`` of the file ``path``, naming ``path:line``,
    the physical line the row starts on; for a record (``path`` None), the
    error naming ``record``."""
    if path is None:
        return (ReferentialError if referential else ConfigError)(f"{record}: {message}")
    line_no = _row_line(path, i)
    if referential:
        return ReferentialError(f"{path}:{line_no}: {message}")
    return ParseError(path, line_no, message)


def _text_rows(students, tasks, time_us, outcomes, path=None, times=None) -> _Rows:
    """Rows given as one list of texts per field: records, or the rows of a
    file that ``csv.reader`` read."""
    lengths = np.fromiter(map(len, outcomes), np.int64, len(outcomes))
    # "replace" keeps one byte per character, so each row keeps its length.
    chars = np.frombuffer("".join(outcomes).encode("ascii", "replace"), np.uint8)

    def texts(i):
        return students[i], tasks[i], times[i] if times else None, outcomes[i]

    row = np.arange(len(students))
    return _Rows(students, tasks, time_us, chars, path, lengths, (row, row), texts)


class Dataset:
    """Validated, immutable view of one course's submission history.

    Construction checks every course rule, resolves referential integrity
    and drops students that miss either exam; afterwards the object is safe
    to share read-only. Tasks and grades read from a file carry its ``path``.
    """

    def __init__(
        self,
        tasks: list[TaskSpec],
        timeline: CourseTimeline,
        submissions: list[SubmissionRecord],
        grades: list[GradeRecord],
    ):
        self._task_index: dict[str, int] = {}
        for i, task in enumerate(tasks):
            ids = task.testcase_ids
            refused = (
                f"duplicate task_id {task.task_id}" if task.task_id in self._task_index
                else "no testcase ids" if not ids
                else "duplicate testcase ids" if len(set(ids)) < len(ids)
                else None
            )
            if refused:
                raise _refusal(getattr(tasks, "path", None), i, refused, f"task {task.task_id}")
            self._task_index[task.task_id] = i
        self.tasks = tuple(tasks)
        self.timeline = timeline

        self.report = LoadReport()
        self.report.students_read = len(grades)

        grades_by_id: dict[str, GradeRecord] = {}
        for i, g in enumerate(grades):
            refused = [f"duplicate student_id {g.student_id}"] * (g.student_id in grades_by_id)
            for exam in ("midterm", "final"):
                value, top = g.exam(exam), timeline.exam_max(exam)
                if value is not None and not 0 <= value <= top:
                    refused.append(f"{exam} grade {value} outside [0, {top}]")
            if refused:
                path = getattr(grades, "path", None)
                raise _refusal(path, i, refused[0], f"student {g.student_id}")
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
        self.midterm = np.array([retained[sid].midterm for sid in self.student_ids])
        self.final = np.array([retained[sid].final for sid in self.student_ids])
        # A retained student's row index; excluded students get -2, -3, ...
        self._codes = {sid: -2 - i for i, sid in enumerate(excluded)}
        self._codes.update((sid, i) for i, sid in enumerate(self.student_ids))
        if not isinstance(submissions, _Rows):
            submissions = _text_rows(
                [s.student_id for s in submissions],
                [s.task_id for s in submissions],
                np.array([_epoch_us(s.submitted_at) for s in submissions], dtype=np.int64),
                ["".join(o.value for o in s.outcomes) for s in submissions],
            )
        self._store(submissions)

    def _store(self, rows: _Rows) -> None:
        """Validate the rows; keep the retained students' rows as columns."""
        n = len(rows.time_us)
        student_index, task_index = rows.id_index
        task = _coded(self._task_index, rows.task_ids, task_index)
        student = _coded(self._codes, rows.student_ids, student_index)
        widths = np.array([t.testcase_count for t in self.tasks] + [-1])  # -1: unknown task
        lengths = rows.lengths
        starts = np.cumsum(lengths) - lengths
        passed, compiled = (_counts_at(rows.outcomes == ord(c), starts, lengths) for c in "PC")
        # A byte that is none of P, F and C lies in the last row starting at
        # or before it.
        odd = np.flatnonzero(
            (rows.outcomes != ord("P")) & (rows.outcomes != ord("F")) & (rows.outcomes != ord("C"))
        )
        bad_character = np.zeros(n, dtype=bool)
        bad_character[np.searchsorted(starts, odd, side="right") - 1] = True
        order, duplicate = self._order(task, student, rows.time_us)
        # Message -> rows failing; on one row the first listed wins.
        checks = {
            "unknown task_id {task!r}": task < 0,
            "unknown student_id {student!r}": student == -1,
            "bad timestamp {time!r}": rows.time_us == _NO_TIME,
            "bad outcome character {bad!r}": bad_character,
            "compile_error must apply to every testcase of a submission": (compiled > 0)
            & (compiled < lengths),
            "{length} outcomes for task {task} with {width} testcases": lengths != widths[task],
            "duplicate (student, task, timestamp) row": duplicate,
        }
        hits = [(int(np.argmax(bad)), k) for k, bad in enumerate(checks.values()) if bad.any()]
        if hits:
            i, k = min(hits)
            student_text, task_text, time_text, outcome_text = rows.texts(i)
            message = list(checks)[k].format(
                task=task_text,
                student=student_text,
                time=time_text,
                bad=next((ch for ch in outcome_text if ch not in "PFC"), None),
                length=lengths[i],
                width=widths[task[i]],
            )
            record = f"submission {student_text}/{task_text}"
            raise _refusal(rows.path, i, message, record, k < 2)  # the first two are referential

        keep = order[student[order] >= 0]
        columns = task[keep], student[keep], rows.time_us[keep], passed[keep]
        self._rows = self._task_views(*columns, rows.outcomes, starts[keep])
        self.report.submissions_read = n
        self.report.submissions_dropped = n - len(keep)

    def _order(self, task, student, time_us) -> tuple[np.ndarray, np.ndarray]:
        """The rows' order by (task, student, time), and a flag on each row
        whose three equal an earlier row's.

        One int64 key sorts as the three do: the (task, student) pair's code
        times the number of distinct times, plus the time's dense rank. Task
        codes run from -1 (unknown) up to the tasks, student codes from
        -1 - (excluded students) up to the retained ones, so the key is below
        (tasks + 1) * (students + 1) * (distinct times), students counting
        the retained and the excluded. Past 2**63 - 1 that raises
        ConfigError; the key never wraps.
        """
        times, rank = np.unique(time_us, return_inverse=True)
        excluded = len(self._codes) - len(self.student_ids)
        students = len(self._codes) + 1
        if (len(self.tasks) + 1) * students * len(times) > np.iinfo(np.int64).max:
            raise ConfigError(f"{len(time_us)} submissions are too many to order")
        pair = (task + 1) * students + (student + 1 + excluded)
        key = pair * len(times) + rank
        # Stable: the later row of an equal (task, student, time) is flagged.
        order = np.argsort(key, kind="stable")
        ranked = key[order]
        duplicate = np.zeros(len(key), dtype=bool)
        duplicate[order[1:][ranked[1:] == ranked[:-1]]] = True
        return order, duplicate

    def _task_views(self, task, student, time_us, passed, chars, starts) -> list[TaskRows]:
        """Each task's ``TaskRows`` over the sorted rows' columns, given with
        the rows' task and student codes and where each row's outcomes start
        in ``chars``; the runs are found in a few O(rows) segment reductions,
        without a sort."""
        n = len(task)
        new = np.ones(n, dtype=bool)
        new[1:] = (task[1:] != task[:-1]) | (student[1:] != student[:-1])
        first = np.flatnonzero(new)
        count = np.diff(first, append=n)
        # The last row that reaches its run's most passes.
        most = np.maximum.reduceat(passed, first)
        at_most = passed == np.repeat(most, count)
        best = np.maximum.reduceat(np.where(at_most, np.arange(n), 0), first)
        codes = np.arange(len(self.tasks) + 1)
        task_rows, task_runs = np.searchsorted(task, codes), np.searchsorted(task[first], codes)
        start = task_rows[task[first]]  # rows are numbered within their task
        run_student, first, best = student[first], first - start, best - start
        views = []
        for t, spec in enumerate(self.tasks):
            rows = slice(task_rows[t], task_rows[t + 1])
            runs = slice(task_runs[t], task_runs[t + 1])
            views.append(
                TaskRows(
                    time_us[rows],
                    passed[rows],
                    _gather_rows(chars, starts[rows], spec.testcase_count),
                    _epoch_us(spec.deadline),
                    run_student[runs],
                    first[runs],
                    count[runs],
                    best[runs],
                )
            )
        return views

    def task(self, task_id: str) -> TaskSpec:
        return self.tasks[self._task_code(task_id)]

    def _task_code(self, task_id: str) -> int:
        try:
            return self._task_index[task_id]
        except KeyError:
            raise ReferentialError(f"unknown task_id {task_id!r}") from None

    def has_task(self, task_id: str) -> bool:
        return task_id in self._task_index

    def task_rows(self, task_id: str) -> TaskRows:
        return self._rows[self._task_code(task_id)]

    def submissions(self, student_id: str, task_id: str) -> list[SubmissionRecord]:
        """The student's submissions to the task, oldest first: their run."""
        rows = self.task_rows(task_id)
        code = self._codes.get(student_id, -1)
        k = int(np.searchsorted(rows.run_student, code))
        if k == len(rows.run_student) or rows.run_student[k] != code:
            return []
        run = slice(rows.run_first[k], rows.run_first[k] + rows.run_count[k])
        times = [_EPOCH + us * _MICROSECOND for us in rows.time_us[run].tolist()]
        results = [tuple(map(Outcome, chars.tobytes().decode())) for chars in rows.outcomes[run]]
        return [SubmissionRecord(student_id, task_id, *pair) for pair in zip(times, results)]


def tasks_before(dataset: Dataset, cutoff: datetime) -> list[TaskSpec]:
    """Tasks whose deadline is on or before ``cutoff``, by deadline then id."""
    hits = [t for t in dataset.tasks if t.deadline <= cutoff]
    hits.sort(key=lambda t: (t.deadline, t.task_id))
    return hits


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


def _epoch_us_block(block: np.ndarray) -> np.ndarray | None:
    """``_parsed_us`` of each row of an (n, 20) byte block, or None unless
    every row is a plain ``YYYY-MM-DDTHH:MM:SSZ`` stamp with its fields in
    range."""
    if (
        (block[:, _DIGITS] - np.uint8(ord("0")) < 10).all()
        and (block[:, _SEPARATORS] == _SEPARATOR_BYTES).all()
    ):
        stamps = np.ascontiguousarray(block[:, :19]).view("S19").ravel()
        try:
            time_us = stamps.astype("datetime64[us]").view(np.int64)
        except ValueError:  # a field out of range
            return None
        if (time_us >= _YEAR_ONE_US).all():  # numpy reads year 0000 too
            return time_us
    return None


def _counts_at(hits: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """How many ``hits`` fall in each of the back-to-back runs that begin at
    ``starts`` and hold ``lengths``."""
    counts = np.zeros(len(starts), dtype=np.int64)
    # reduceat sums up to the next index; an empty run would read one hit.
    held = lengths > 0
    counts[held] = np.add.reduceat(hits, starts[held], dtype=np.int64)
    return counts


def _coded(codes: dict[str, int], ids: list[str], index: np.ndarray) -> np.ndarray:
    """Each row's code of its id ``ids[index]``, -1 if unknown."""
    return np.fromiter(map(codes.get, ids, repeat(-1)), np.int64, len(ids))[index]


def _gather_rows(buffer: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The (rows, width) block of the ``width`` bytes from each start."""
    if not len(starts):
        return np.zeros((0, width), dtype=np.uint8)
    return sliding_window_view(buffer, width)[starts]


def _bad_byte_line(path) -> int:
    """The physical line of the file's first byte that is not UTF-8."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raw = raw[: exc.start]
    raw = raw.replace(b"\r\n", b"\n")
    return raw.count(b"\n") + raw.count(b"\r") + 1


def _open_csv(path):
    """The file opened for ``csv.reader``: a BOM is dropped, line ends kept."""
    return Path(path).open(newline="", encoding="utf-8-sig")


def _column_numbers(path, header: list[str], required: list[str]) -> list[int]:
    """Where each required column sits in the header row."""
    missing = [c for c in required if c not in header]
    if missing:
        raise ParseError(path, 1, f"missing columns: {', '.join(missing)}")
    column = {name: i for i, name in enumerate(header)}
    return [column[c] for c in required]


def _read_rows(path, required: list[str]) -> list[list[str]]:
    """The required fields of the file's rows, one list per field. Blank
    lines are skipped; missing fields read as empty; a UTF-8 BOM is dropped."""
    try:
        with _open_csv(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            columns = _column_numbers(path, header, required)
            rows = [row for row in reader if row]
    except UnicodeDecodeError:
        raise ParseError(path, _bad_byte_line(path), "text is not UTF-8") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(path, reader.line_num, str(exc)) from None
    if rows and min(map(len, rows)) < len(header):
        pad = [""] * len(header)
        rows = [row + pad[len(row) :] for row in rows]
    return [list(map(itemgetter(c), rows)) for c in columns]


def _row_line(path, i: int) -> int:
    """The physical line on which the file's non-blank data row ``i`` starts,
    counting blank lines and line breaks inside quoted fields."""
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        start, rows_before = reader.line_num + 1, 0
        for row in reader:
            if row:
                if rows_before == i:
                    return start
                rows_before += 1
            start = reader.line_num + 1
    raise IndexError(f"{path} has no data row {i}")


def _read_tasks(path) -> list[TaskSpec]:
    """The tasks file's rows as TaskSpecs; ``Dataset`` checks the course rules."""
    tasks = []
    columns = _read_rows(path, ["task_id", "assignment_id", "deadline", "testcase_ids"])
    for i, (task_id, assignment_id, deadline, testcase_ids) in enumerate(zip(*columns)):
        try:
            when = parse_timestamp(deadline)
        except ValueError:
            raise _refusal(path, i, f"bad timestamp {deadline!r}") from None
        ids = tuple(t for t in testcase_ids.split(";") if t)
        tasks.append(TaskSpec(task_id, assignment_id, when, ids))
    return _FileRecords(tasks, path)


_SUBMISSION_FIELDS = ["student_id", "task_id", "submitted_at", "outcomes"]


def _read_submissions(path) -> _Rows:
    """The submissions file as raw columns, validated by ``Dataset``: read
    from its bytes when it is plain, else by ``csv.reader``."""
    rows = _plain_rows(path, Path(path).read_bytes())
    return _csv_rows(path) if rows is None else rows


def _csv_rows(path) -> _Rows:
    """The submissions file's rows as ``csv.reader`` reads them."""
    students, tasks, times, outcomes = _read_rows(path, _SUBMISSION_FIELDS)
    outcomes = list(map(str.strip, outcomes))
    time_us = np.fromiter(map(_parsed_us, times), np.int64, len(times))
    return _text_rows(students, tasks, time_us, outcomes, path, times)


def _plain_rows(path, raw: bytes) -> _Rows | None:
    """The rows of a plain submissions file, read from its bytes ``raw`` in
    a few array passes; None if the file is not plain, a time of another
    form or out of range included."""
    body = raw[len(codecs.BOM_UTF8) :] if raw.startswith(codecs.BOM_UTF8) else raw
    data = np.frombuffer(body, np.uint8)
    if data.max(initial=0) > 127 or any((data == byte).any() for byte in b'"\r\0'):
        return None
    ends = np.flatnonzero(data == ord("\n"))
    if not body.endswith(b"\n"):
        ends = np.append(ends, len(data))
    starts = np.append(0, ends[:-1] + 1)
    header = body[: ends[0]].decode("ascii").split(",")
    columns = _column_numbers(path, header, _SUBMISSION_FIELDS)
    held = ends > starts  # blank lines are skipped; the header is not blank
    starts, ends = starts[held], ends[held]
    k = len(header) - 1
    commas = np.flatnonzero(data == ord(","))
    if (ends - starts).max() > csv.field_size_limit() or (
        np.diff(np.searchsorted(commas, ends), prepend=0) != k
    ).any():
        return None
    # Field c of a row runs from the end of its c-th separator to its next
    # one: its line's start, its k commas, its line's end.
    commas = commas.reshape(-1, k)[1:]
    starts, ends = starts[1:], ends[1:]
    (s_lo, s_hi), (t_lo, t_hi), (w_lo, w_hi), (o_lo, o_hi) = (
        (starts if c == 0 else commas[:, c - 1] + 1, ends if c == k else commas[:, c])
        for c in columns
    )
    chars = data[_inside(len(data), o_lo, o_hi)]
    if sum(np.count_nonzero(chars == byte) for byte in b"PFC") < len(chars):
        return None
    time_us = _epoch_us_block(_gather_rows(data, w_lo, 20)) if (w_hi - w_lo == 20).all() else None
    if time_us is None:
        return None
    student_ids, student_index = _distinct(data, s_lo, s_hi)
    task_ids, task_index = _distinct(data, t_lo, t_hi)

    def texts(i):
        fields = body[starts[i] : ends[i]].decode("ascii").split(",")
        return tuple(fields[c] for c in columns)

    id_index = student_index, task_index
    return _Rows(student_ids, task_ids, time_us, chars, path, o_hi - o_lo, id_index, texts)


def _inside(size: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A mask of ``size`` bytes, true inside the ascending, disjoint spans
    from ``lo`` up to ``hi``."""
    spans = np.diff(np.stack((lo, hi), axis=1).ravel(), prepend=0, append=size)
    return np.repeat(np.arange(len(spans)) % 2 == 1, spans)


def _distinct(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct texts of the spans from ``lo`` up to ``hi`` of the ASCII
    bytes ``data``, sorted, and each span's place among them."""
    length = hi - lo
    width = -(-int(length.max(initial=0)) // 8) * 8 or 8
    padded = np.append(data, np.zeros(width, np.uint8))
    # The 8 bytes from each offset of ``padded`` as one big-endian word, so
    # integer order is byte order; each span is read as width / 8 words.
    at = np.ndarray((len(padded) - 7,), ">u8", padded, strides=(1,))
    offsets = np.arange(0, width, 8)
    words = at[lo[:, None] + offsets].astype(np.uint64)
    del padded, at  # a copy of the whole file: freed before the sort
    # Bytes past a span's end become NUL, which a plain file never holds,
    # so equal words are equal texts.
    words &= _LEADING_BYTES[np.clip(length[:, None] - offsets, 0, 8)]
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    index = np.empty(len(order), dtype=np.int64)
    index[order] = np.cumsum(new) - 1
    keys = ranked[new].astype(">u8").view(f"S{width}").ravel()
    return [key.decode("ascii") for key in keys.tolist()], index


def _parse_grade(raw: str, path, row: int, label: str) -> float | None:
    text = raw.strip()
    if not text:
        return None
    try:
        value = float(text)
        if math.isnan(value):
            raise ValueError(text)
    except ValueError:
        raise _refusal(path, row, f"bad {label} grade {raw!r}") from None
    return value


def _read_grades(path) -> list[GradeRecord]:
    """The grades file's rows as GradeRecords; ``Dataset`` checks the course rules."""
    columns = _read_rows(path, ["student_id", "midterm", "final"])
    grades = [
        GradeRecord(
            sid, _parse_grade(midterm, path, i, "midterm"), _parse_grade(final, path, i, "final")
        )
        for i, (sid, midterm, final) in enumerate(zip(*columns))
    ]
    return _FileRecords(grades, path)


def load_dataset(tasks_path, submissions_path, grades_path, timeline: CourseTimeline) -> Dataset:
    """Load and cross-validate the three CSV files into a Dataset."""
    tasks = _read_tasks(tasks_path)
    grades = _read_grades(grades_path)
    return Dataset(tasks, timeline, _read_submissions(submissions_path), grades)


def timeline_from_file(path) -> CourseTimeline:
    """Parse a key=value config file holding the four timeline fields."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ParseError(path, _bad_byte_line(path), "text is not UTF-8") from None
    values: dict[str, tuple[int, str]] = {}  # key -> (line, value)
    # read_text made every line end "\n"; splitlines would also split at "\f".
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, line_no, "expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = (line_no, value.strip())
    parsers = {
        "midterm_date": parse_timestamp,
        "final_date": parse_timestamp,
        "midterm_max": float,
        "final_max": float,
    }
    missing = [k for k in parsers if k not in values]
    if missing:
        raise ConfigError(f"timeline file missing keys: {', '.join(missing)}")
    fields = {}
    for key, parse in parsers.items():
        line_no, value = values[key]
        try:
            fields[key] = parse(value)
        except ValueError:
            raise ParseError(path, line_no, f"bad {key} {value!r}") from None
    refused = _refused_timeline_field(fields)
    if refused:
        key, reason = refused
        line_no, value = values[key]
        raise ParseError(path, line_no, f"{key} {value!r} refused: {reason}")
    return CourseTimeline(**fields)

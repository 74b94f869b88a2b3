import csv
import re
import math
from datetime import datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from gradecast.dataset import (
    CourseTimeline,
    Dataset,
    GradeRecord,
    TaskSpec,
    load_dataset,
    tasks_before,
    timeline_from_file,
    _counts_at,
    _csv_rows,
    _epoch_us_block,
    _parsed_us,
    _plain_rows,
    _read_rows,
    _read_submissions,
    _refusal,
    _row_line,
)
from gradecast.errors import ConfigError, GradecastError, ParseError, ReferentialError
from gradecast.evaluation import cross_validate
from gradecast.features import FAMILIES, FeatureConfig, build_feature_matrix
from gradecast.labeling import categorize_all
from gradecast.tree import train_tree

from conftest import FINAL, MIDTERM, hours_before, make_task, make_timeline, sub, ts


TASKS_CSV = """task_id,assignment_id,deadline,testcase_ids
t1,a0,2016-10-04T18:00:00Z,tc1;tc2;tc3;tc4;tc5
t2,a0,2016-10-04T18:00:00Z,tc1;tc2;tc3
t3,a1,2016-10-14T18:00:00Z,tc1;tc2
"""

SUBMISSIONS_CSV = """student_id,task_id,submitted_at,outcomes
s1,t1,2016-10-01T10:00:00Z,PPPPF
s1,t1,2016-10-02T10:00:00Z,PPPPP
s2,t1,2016-10-04T17:00:00Z,FFFFF
s2,t3,2016-10-14T12:00:00Z,PP
"""

GRADES_CSV = """student_id,midterm,final
s1,95,100
s2,40,45
"""


def write_inputs(tmp_path, tasks=TASKS_CSV, submissions=SUBMISSIONS_CSV, grades=GRADES_CSV):
    paths = {}
    for name, text in [("tasks", tasks), ("submissions", submissions), ("grades", grades)]:
        p = tmp_path / f"{name}.csv"
        p.write_text(text)
        paths[name] = p
    return paths


def test_load_dataset_retains_fully_graded_students(tmp_path):
    paths = write_inputs(tmp_path)
    ds = load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
    assert ds.student_ids == ("s1", "s2")
    assert ds.report.students_retained == 2
    assert ds.report.excluded_students == []
    assert len(ds.tasks) == 3


def test_load_dataset_drops_students_missing_an_exam(tmp_path):
    grades = "student_id,midterm,final\ns1,95,100\ns2,40,\n"
    paths = write_inputs(tmp_path, grades=grades)
    ds = load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
    assert ds.student_ids == ("s1",)
    assert ds.report.excluded_students == ["s2"]
    assert ds.report.students_read == 2
    # s2's submissions are dropped along with the student
    assert ds.report.submissions_dropped == 2


def test_load_dataset_is_deterministic(tmp_path):
    paths = write_inputs(tmp_path)
    a = load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
    b = load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
    assert a.student_ids == b.student_ids
    assert a.tasks == b.tasks
    assert a.grades == b.grades


def test_outcome_length_mismatch_reports_file_and_line(tmp_path):
    bad = SUBMISSIONS_CSV + "s2,t1,2016-10-03T10:00:00Z,PPPP\n"
    paths = write_inputs(tmp_path, submissions=bad)
    with pytest.raises(ParseError) as err:
        load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
    assert err.value.line_no == 6
    assert "4 outcomes" in str(err.value)


def test_unknown_task_is_a_referential_error(tmp_path):
    bad = SUBMISSIONS_CSV + "s1,t9,2016-10-03T10:00:00Z,PP\n"
    paths = write_inputs(tmp_path, submissions=bad)
    with pytest.raises(ReferentialError):
        load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())


def test_unknown_student_is_a_referential_error(tmp_path):
    bad = SUBMISSIONS_CSV + "ghost,t1,2016-10-03T10:00:00Z,PPPPP\n"
    paths = write_inputs(tmp_path, submissions=bad)
    with pytest.raises(ReferentialError):
        load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())


def test_duplicate_submission_rows_are_rejected(tmp_path):
    bad = SUBMISSIONS_CSV + "s1,t1,2016-10-01T10:00:00Z,PPPPF\n"
    paths = write_inputs(tmp_path, submissions=bad)
    with pytest.raises(ParseError):
        load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())


def test_mixed_compile_error_outcomes_are_rejected(tmp_path):
    bad = SUBMISSIONS_CSV + "s1,t3,2016-10-03T10:00:00Z,PC\n"
    paths = write_inputs(tmp_path, submissions=bad)
    with pytest.raises(ParseError):
        load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())


def test_bad_timestamp_reports_line(tmp_path):
    bad = SUBMISSIONS_CSV + "s1,t3,yesterday,PP\n"
    paths = write_inputs(tmp_path, submissions=bad)
    with pytest.raises(ParseError) as err:
        load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
    assert "timestamp" in str(err.value)


def test_grade_outside_range_is_rejected(tmp_path):
    grades = "student_id,midterm,final\ns1,95,100\ns2,40,130\n"
    paths = write_inputs(tmp_path, grades=grades)
    with pytest.raises(ParseError):
        load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())


def load(paths):
    return load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())


def test_tasks_error_names_the_physical_line(tmp_path):
    # A blank line 4 and a quoted field over lines 5-6 come before line 7.
    tasks = TASKS_CSV.replace(
        "t3,a1,", '\n"t4","a\nb",2016-10-14T18:00:00Z,tc1\nt5,a1,yesterday,tc1\nt3,a1,'
    )
    with pytest.raises(ParseError, match=r"tasks\.csv:7: bad timestamp 'yesterday'") as err:
        load(write_inputs(tmp_path, tasks=tasks))
    assert err.value.line_no == 7
    # A second row for t2, after the same blank line and quoted field.
    (tmp_path / "duplicate").mkdir()
    duplicate = tasks.replace("t5,a1,yesterday,", "t2,a1,2016-10-14T18:00:00Z,")
    with pytest.raises(ParseError, match=r"tasks\.csv:7: duplicate task_id t2") as err:
        load(write_inputs(tmp_path / "duplicate", tasks=duplicate))
    assert err.value.line_no == 7


def test_submissions_error_names_the_physical_line(tmp_path):
    lines = SUBMISSIONS_CSV.splitlines(keepends=True)
    submissions = "".join(lines[:2]) + "\n" + "s1,t3,2016-10-03T10:02:00Z,PX\n" + "".join(lines[2:])
    with pytest.raises(ParseError, match=r"submissions\.csv:4: bad outcome character 'X'") as err:
        load(write_inputs(tmp_path, submissions=submissions))
    assert err.value.line_no == 4


def test_unknown_student_names_the_physical_line(tmp_path):
    submissions = SUBMISSIONS_CSV + "\n\nghost,t1,2016-10-03T10:01:00Z,PPPPP\n"
    with pytest.raises(ReferentialError, match=r"submissions\.csv:8: unknown student_id"):
        load(write_inputs(tmp_path, submissions=submissions))


def test_grades_error_names_the_physical_line(tmp_path):
    grades = "student_id,midterm,final\ns1,95,100\n\ns2,40,130\n"
    with pytest.raises(ParseError, match=r"grades\.csv:4: final grade 130.0 outside") as err:
        load(write_inputs(tmp_path, grades=grades))
    assert err.value.line_no == 4


@pytest.mark.parametrize("grade", ["nan", "NaN", " -nan "])
def test_nan_grade_is_rejected_with_its_line(tmp_path, grade):
    grades = f"student_id,midterm,final\ns1,95,100\ns2,{grade},45\n"
    with pytest.raises(ParseError, match=r"grades\.csv:3: bad midterm grade") as err:
        load(write_inputs(tmp_path, grades=grades))
    assert err.value.line_no == 3


def test_files_with_a_utf8_bom_load_like_files_without(tmp_path):
    plain = load(write_inputs(tmp_path))
    (tmp_path / "bom").mkdir()
    paths = write_inputs(tmp_path / "bom")
    for path in paths.values():
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with_bom = load(paths)
    assert with_bom.student_ids == plain.student_ids
    assert with_bom.tasks == plain.tasks
    assert with_bom.grades == plain.grades
    assert with_bom.report == plain.report


def test_tasks_before_cutoffs():
    deadlines = [MIDTERM - timedelta(days=d) for d in (30, 20, 10)]
    post = [MIDTERM + timedelta(days=d) for d in (10, 20)]
    tasks = [make_task(f"t{i}", "a0", dl, 2) for i, dl in enumerate(deadlines + post)]
    ds = Dataset(tasks, make_timeline(), [], [GradeRecord("s1", 60.0, 60.0)])

    before_everything = deadlines[0] - timedelta(days=1)
    assert tasks_before(ds, before_everything) == []
    assert [t.task_id for t in tasks_before(ds, MIDTERM)] == ["t0", "t1", "t2"]
    assert len(tasks_before(ds, FINAL)) == 5


def test_tasks_before_orders_by_deadline_then_id():
    dl = MIDTERM - timedelta(days=5)
    tasks = [make_task("b", "a0", dl, 2), make_task("a", "a0", dl, 2)]
    ds = Dataset(tasks, make_timeline(), [], [GradeRecord("s1", 60.0, 60.0)])
    assert [t.task_id for t in tasks_before(ds, MIDTERM)] == ["a", "b"]


def best_row(dataset, student_id, task_id):
    """The submission the run index marks as the student's best; None if none."""
    rows = dataset.task_rows(task_id)
    records = dataset.submissions(student_id, task_id)
    for k, code in enumerate(rows.run_student.tolist()):
        if dataset.student_ids[code] == student_id:
            return records[int(rows.run_best[k] - rows.run_first[k])]
    return None


def test_best_submission_prefers_passes_then_latest(small_dataset):
    best = best_row(small_dataset, "s1", "t1")
    assert best.passed_count == 4

    # two submissions passing 3: tie broken by the later timestamp
    d1 = small_dataset.task("t1").deadline
    tasks = list(small_dataset.tasks)
    subs = [
        sub("s1", "t1", hours_before(d1, 50.0), "PPFF"),
        sub("s1", "t1", hours_before(d1, 30.0), "PPPF"),
        sub("s1", "t1", hours_before(d1, 20.0), "FPPP"),
    ]
    ds = Dataset(tasks, make_timeline(), subs, [GradeRecord("s1", 60.0, 60.0)])
    best = best_row(ds, "s1", "t1")
    assert best.submitted_at == hours_before(d1, 20.0)

    assert best_row(small_dataset, "s3", "t1") is None
    with pytest.raises(ReferentialError):
        best_row(small_dataset, "s1", "t9")


def test_best_submission_dominates_all_others(small_dataset):
    for sid in small_dataset.student_ids:
        for task in small_dataset.tasks:
            best = best_row(small_dataset, sid, task.task_id)
            others = small_dataset.submissions(sid, task.task_id)
            if best is None:
                assert others == []
                continue
            assert all(best.passed_count >= s.passed_count for s in others)


def test_run_index_of_tasks_without_rows_and_of_excluded_students():
    d = MIDTERM - timedelta(days=5)
    tasks = [make_task(t, "a0", d, 2) for t in ("t0", "t1", "t2", "t3")]
    subs = [
        sub("s1", "t0", hours_before(d, 3.0), "PF"),
        sub("s1", "t0", hours_before(d, 2.0), "FP"),  # ties on passes: the later one
        sub("s1", "t0", hours_before(d, 1.0), "FF"),
        sub("gone", "t1", hours_before(d, 2.0), "PP"),
        sub("s2", "t2", hours_before(d, 2.0), "PP"),
        sub("s2", "t2", hours_before(d, 1.0), "PF"),
    ]
    grades = [GradeRecord(s, 60.0, 60.0) for s in ("s1", "s2", "s3")]
    ds = Dataset(tasks, make_timeline(), subs, [*grades, GradeRecord("gone", None, 60.0)])

    def runs(rows):
        columns = (rows.run_student, rows.run_first, rows.run_count, rows.run_best)
        return len(rows.time_us), *(c.tolist() for c in columns), rows.outcomes.shape

    none = (0, [], [], [], [], (0, 2))
    assert runs(ds.task_rows("t0")) == (3, [0], [0], [3], [1], (3, 2))
    assert runs(ds.task_rows("t1")) == none  # only an excluded student's row
    assert runs(ds.task_rows("t2")) == (2, [1], [0], [2], [0], (2, 2))
    assert runs(ds.task_rows("t3")) == none
    # A student's submissions are their one run.
    assert [s.passed_count for s in ds.submissions("s2", "t2")] == [2, 1]
    for task, student in [("t0", "s2"), ("t1", "gone"), ("t3", "s1"), ("t2", "nobody")]:
        assert ds.submissions(student, task) == []
        assert best_row(ds, student, task) is None
    assert best_row(ds, "s1", "t0").submitted_at == hours_before(d, 2.0)

    # No retained row at all: every task is empty.
    for empty in (
        Dataset(tasks, make_timeline(), subs[3:4], [GradeRecord("gone", None, 60.0)]),
        Dataset(tasks, make_timeline(), [], grades),
    ):
        for task in tasks:
            assert runs(empty.task_rows(task.task_id)) == none
            assert empty.submissions("s1", task.task_id) == []


def test_timeline_from_file(tmp_path):
    cfg = tmp_path / "timeline.cfg"
    cfg.write_text(
        "midterm_date=2016-10-24T12:00:00Z\n"
        "final_date=2016-12-15T09:00:00Z\n"
        "midterm_max=110\n"
        "final_max=120\n"
    )
    tl = timeline_from_file(cfg)
    assert tl.midterm_date == MIDTERM
    assert tl.final_max == 120.0


def test_timeline_file_missing_key(tmp_path):
    cfg = tmp_path / "timeline.cfg"
    cfg.write_text("midterm_date=2016-10-24T12:00:00Z\n")
    with pytest.raises(ConfigError):
        timeline_from_file(cfg)


def test_timeline_rejects_inverted_dates():
    with pytest.raises(ConfigError):
        ts_mid = ts("2016-12-15T09:00:00Z")
        ts_final = ts("2016-10-24T12:00:00Z")
        from gradecast.dataset import CourseTimeline

        CourseTimeline(ts_mid, ts_final, 110, 120)


# ------------------------------------------------ per-row validation order

# Each bad row, appended as line 6 of SUBMISSIONS_CSV: the error type and a
# piece of the message it must raise.
BAD_ROWS = {
    "unknown_task": ("s1,t9,2016-10-03T10:00:00Z,PP", ReferentialError, "unknown task_id 't9'"),
    "unknown_student": (
        "ghost,t1,2016-10-03T10:01:00Z,PPPPP",
        ReferentialError,
        "unknown student_id 'ghost'",
    ),
    "bad_timestamp": ("s1,t3,yesterday,PP", ParseError, "bad timestamp 'yesterday'"),
    "no_such_day": ("s1,t3,2015-02-29T10:00:00Z,PP", ParseError, "bad timestamp"),
    "year_zero": ("s1,t3,0000-01-01T10:00:00Z,PP", ParseError, "bad timestamp"),
    "bad_character": ("s1,t3,2016-10-03T10:02:00Z,PX", ParseError, "bad outcome character 'X'"),
    "bad_first_character": (
        "s1,t3,2016-10-03T10:05:00Z,XP",
        ParseError,
        "bad outcome character 'X'",
    ),
    "no_outcomes": ("s1,t3,2016-10-03T10:06:00Z,", ParseError, "0 outcomes for task t3"),
    "wrong_count": ("s1,t3,2016-10-03T10:03:00Z,PPP", ParseError, "3 outcomes"),
    "mixed_compile_error": ("s1,t3,2016-10-03T10:04:00Z,PC", ParseError, "compile_error"),
    "duplicate": ("s1,t1,2016-10-01T10:00:00Z,PPPPF", ParseError, "duplicate"),
}


def load_with_rows(tmp_path, *rows):
    text = SUBMISSIONS_CSV + "".join(row + "\n" for row in rows)
    text += "s2,t3,2016-10-14T13:00:00Z,PF\n"  # a good row after the bad ones
    paths = write_inputs(tmp_path, submissions=text)
    load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_bad_row_reports_file_and_line(tmp_path, name):
    row, error, text = BAD_ROWS[name]
    with pytest.raises(error) as err:
        load_with_rows(tmp_path, row)
    assert f"submissions.csv:6: {text}" in str(err.value)
    if error is ParseError:
        assert err.value.line_no == 6


@pytest.mark.parametrize("first", sorted(BAD_ROWS))
@pytest.mark.parametrize("second", sorted(BAD_ROWS))
def test_earlier_of_two_bad_rows_is_reported(tmp_path, first, second):
    row, error, text = BAD_ROWS[first]
    with pytest.raises(error) as err:
        load_with_rows(tmp_path, row, BAD_ROWS[second][0])
    assert f"submissions.csv:6: {text}" in str(err.value)


@pytest.mark.parametrize(
    "row, text",
    [
        ("s1,t9,yesterday,PX", "unknown task_id"),
        ("ghost,t1,yesterday,PX", "unknown student_id"),
        ("s1,t3,yesterday,PX", "bad timestamp"),
        ("s1,t3,2016-10-03T10:00:00Z,PXC", "bad outcome character"),
        ("s1,t3,2016-10-03T10:00:00Z,PCC", "compile_error"),
        ("s1,t1,2016-10-01T10:00:00Z,PPPP", "4 outcomes"),
    ],
)
def test_row_with_several_faults_reports_the_first_check(tmp_path, row, text):
    with pytest.raises((ParseError, ReferentialError), match=f":6: {text}"):
        load_with_rows(tmp_path, row)


def test_excluded_students_with_equal_timestamps_are_not_duplicates(tmp_path):
    grades = "student_id,midterm,final\ns1,95,100\ns2,40,\ns3,,50\n"
    subs = "student_id,task_id,submitted_at,outcomes\n"
    subs += "s2,t3,2016-10-03T10:00:00Z,PP\ns3,t3,2016-10-03T10:00:00Z,PP\n"
    paths = write_inputs(tmp_path, submissions=subs, grades=grades)
    ds = load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
    assert ds.report.submissions_dropped == 2
    assert ds.submissions("s2", "t3") == []


def test_timestamp_forms_load_to_the_same_instants(tmp_path):
    # The plain "...Z" form is parsed as one block by the byte reader; a file
    # with any other form is read by csv.reader, which parses row by row.
    offsets = SUBMISSIONS_CSV.replace("T10:00:00Z", "T12:00:00.000000+02:00")
    offsets = offsets.replace("T17:00:00Z", " 17:00:00+00:00").replace("T12:00:00Z", "T12:00Z")
    datasets = []
    for i, text in enumerate([SUBMISSIONS_CSV, offsets]):
        (tmp_path / str(i)).mkdir()
        paths = write_inputs(tmp_path / str(i), submissions=text)
        datasets.append(
            load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
        )
    plain, other = datasets
    for sid in ("s1", "s2"):
        for task in ("t1", "t3"):
            assert other.submissions(sid, task) == plain.submissions(sid, task)
    assert len(plain.submissions("s1", "t1")) == 2


def test_sub_second_timestamps_are_kept_exactly(tmp_path):
    subs = "student_id,task_id,submitted_at,outcomes\ns1,t3,2016-10-14T17:59:59.000001Z,PP\n"
    paths = write_inputs(tmp_path, submissions=subs)
    ds = load_dataset(paths["tasks"], paths["submissions"], paths["grades"], make_timeline())
    (only,) = ds.submissions("s1", "t3")
    assert only.submitted_at == ts("2016-10-14T17:59:59.000001Z")
    assert ds.task("t3").deadline - only.submitted_at == timedelta(microseconds=999_999)


def test_records_are_validated_like_file_rows():
    dl = MIDTERM - timedelta(days=5)
    tasks = [make_task("t1", "a0", dl, 2)]
    grades = [GradeRecord("s1", 60.0, 60.0)]
    good = sub("s1", "t1", hours_before(dl, 3.0), "PF")
    cases = [
        ([good, sub("ghost", "t1", dl, "PF"), sub("s1", "t9", dl, "PF")], ReferentialError, "ghost"),
        ([good, sub("s1", "t9", dl, "PF"), sub("ghost", "t1", dl, "PF")], ReferentialError, "t9"),
        ([good, sub("s1", "t1", dl, "PC")], ConfigError, "compile_error"),
        ([good, sub("s1", "t1", dl, "PFF")], ConfigError, "3 outcomes"),
        ([good, sub("s1", "t1", hours_before(dl, 3.0), "PP")], ConfigError, "duplicate"),
    ]
    for records, error, text in cases:
        with pytest.raises(error, match=text):
            Dataset(tasks, make_timeline(), records, grades)


@pytest.mark.parametrize("grade", [math.nan, -5.0, 500.0, math.inf])
@pytest.mark.parametrize("exam", ["midterm", "final"])
def test_grade_records_follow_the_grades_file_rule(grade, exam):
    # As in a grades file, a given grade must lie in [0, the exam's maximum]:
    # 110 for the midterm and 120 for the final here.
    exams = {"midterm": 60.0, "final": 60.0, exam: grade}
    grades = [GradeRecord("s1", 60.0, 60.0), GradeRecord("s2", **exams)]
    with pytest.raises(ConfigError, match=f"student s2: {exam} grade"):
        Dataset([make_task("t1", "a0", MIDTERM, 2)], make_timeline(), [], grades)


# Each course rule: the file whose row breaks it, that row, the same row as
# a record, the record's name and the reason both errors give.
COURSE_RULES = {
    "duplicate_task_id": (
        "tasks", "t2,a1,2016-10-14T18:00:00Z,tc1", TaskSpec("t2", "a1", MIDTERM, ("tc1",)),
        "task t2", "duplicate task_id t2",
    ),
    "no_testcases": (
        "tasks", "t4,a1,2016-10-14T18:00:00Z,;", TaskSpec("t4", "a1", MIDTERM, ()),
        "task t4", "no testcase ids",
    ),
    "duplicate_testcases": (
        "tasks", "t4,a1,2016-10-14T18:00:00Z,x;x", TaskSpec("t4", "a1", MIDTERM, ("x", "x")),
        "task t4", "duplicate testcase ids",
    ),
    "duplicate_student": (
        "grades", "s2,50,50", GradeRecord("s2", 50.0, 50.0), "student s2", "duplicate student_id s2"
    ),
    "grade_outside": (
        "grades", "s3,40,130", GradeRecord("s3", 40.0, 130.0), "student s3",
        "final grade 130.0 outside [0, 120.0]",
    ),
}


@pytest.mark.parametrize("rule", sorted(COURSE_RULES))
def test_records_and_files_refuse_a_course_rule_alike(tmp_path, rule):
    kind, row, record, name, reason = COURSE_RULES[rule]
    course = {
        "tasks": [make_task("t1", "a0", MIDTERM, 2), make_task("t2", "a0", MIDTERM, 3)],
        "grades": [GradeRecord("s1", 95.0, 100.0), GradeRecord("s2", 40.0, 45.0)],
    }
    course[kind].append(record)
    with pytest.raises(ConfigError) as err:
        Dataset(course["tasks"], make_timeline(), [], course["grades"])
    assert type(err.value) is ConfigError
    assert str(err.value) == f"{name}: {reason}"
    # In a file, the row follows a blank line: it starts on its file's last line.
    texts = {"tasks": TASKS_CSV, "grades": GRADES_CSV}
    texts[kind] += f"\n{row}\n"
    paths = write_inputs(tmp_path, **texts)
    with pytest.raises(ParseError) as err:
        load(paths)
    assert err.value.line_no == texts[kind].count("\n")
    assert str(err.value) == f"{paths[kind]}:{err.value.line_no}: {reason}"


def test_submissions_are_rebuilt_from_columns_oldest_first(small_dataset):
    d1 = small_dataset.task("t1").deadline
    subs = small_dataset.submissions("s1", "t1")
    assert [s.submitted_at for s in subs] == [hours_before(d1, h) for h in (50.0, 30.0, 10.0)]
    assert [s.passed_count for s in subs] == [1, 3, 4]
    assert subs[0] == sub("s1", "t1", hours_before(d1, 50.0), "PFFF")
    assert small_dataset.submissions("nobody", "t1") == []


# ------------------------------------------------ typed errors on bad input


@pytest.mark.parametrize("kind", ["tasks", "submissions", "grades"])
def test_byte_that_is_not_utf8_names_its_physical_line(tmp_path, kind):
    # After a blank line and a quoted field over two lines, with CRLF line
    # ends, the 0xFF byte sits on physical line 7 of each file.
    text = {"tasks": TASKS_CSV, "submissions": SUBMISSIONS_CSV, "grades": GRADES_CSV}[kind]
    header, first = text.splitlines()[:2]
    raw = f'{header}\r\n{first}\r\n\r\nx,y\r\n"two\r\nlines",z\r\n'.encode()
    raw += b"bad\xffbyte,z\r\n"
    paths = write_inputs(tmp_path)
    paths[kind].write_bytes(raw)
    with pytest.raises(ParseError, match=rf"{kind}\.csv:7: text is not UTF-8") as err:
        load(paths)
    assert err.value.line_no == 7


def test_field_over_the_csv_limit_is_a_parse_error(tmp_path):
    submissions = SUBMISSIONS_CSV + "s1,t1,2016-10-03T10:00:00Z," + "P" * 200_000 + "\n"
    with pytest.raises(ParseError, match=r"submissions\.csv:6: field larger"):
        load(write_inputs(tmp_path, submissions=submissions))


TIMELINE_CFG = (
    "midterm_date=2016-10-24T12:00:00Z\n"
    "final_date=2016-12-15T09:00:00Z\n"
    "# maxima\n"
    "midterm_max=110\n"
    "final_max=120\n"
)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("midterm_max=110", "midterm_max=abc", 4),
        ("final_max=120", "final_max=", 5),
        ("midterm_date=2016-10-24", "midterm_date=2016-13-20", 1),
        ("final_date=2016-12-15T09:00:00Z", "final_date=soon", 2),
    ],
)
def test_timeline_value_that_does_not_parse_names_its_line(tmp_path, old, new, line):
    cfg = tmp_path / "timeline.cfg"
    cfg.write_text(TIMELINE_CFG.replace(old, new))
    key = new.partition("=")[0]
    with pytest.raises(ParseError, match=rf"timeline\.cfg:{line}: bad {key} ") as err:
        timeline_from_file(cfg)
    assert err.value.line_no == line


@pytest.mark.parametrize("maximum", ["nan", "inf", "0"])
def test_timeline_maximum_that_is_not_positive_and_finite_is_rejected(tmp_path, maximum):
    cfg = tmp_path / "timeline.cfg"
    cfg.write_text(TIMELINE_CFG.replace("midterm_max=110", f"midterm_max={maximum}"))
    with pytest.raises(ParseError, match=r"timeline\.cfg:4: .*exam maxima must be positive"):
        timeline_from_file(cfg)


@pytest.mark.parametrize("midterm", ["2016-12-15T09:00:00Z", "2017-01-01T00:00:00Z"])
def test_timeline_midterm_on_or_after_the_final_names_the_final_date_line(tmp_path, midterm):
    cfg = tmp_path / "timeline.cfg"
    cfg.write_text(TIMELINE_CFG.replace("2016-10-24T12:00:00Z", midterm))
    with pytest.raises(ParseError, match=r"timeline\.cfg:2: .*midterm_date must precede") as err:
        timeline_from_file(cfg)
    assert err.value.line_no == 2


def test_timeline_file_that_is_not_utf8_names_the_line(tmp_path):
    cfg = tmp_path / "timeline.cfg"
    cfg.write_bytes(TIMELINE_CFG.replace("# maxima", "# \xe9t\xe9").encode("latin-1"))
    with pytest.raises(ParseError, match=r"timeline\.cfg:3: text is not UTF-8"):
        timeline_from_file(cfg)


def test_timeline_file_with_a_bom_loads(tmp_path):
    cfg = tmp_path / "timeline.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + TIMELINE_CFG.encode())
    assert timeline_from_file(cfg) == make_timeline()


TIMELINE_KEYS = ("midterm_date", "final_date", "midterm_max", "final_max")
BAD = object()  # a value that does not parse


@st.composite
def timeline_values(draw, key):
    """A value's text for the key, and what it parses to (BAD if nothing).
    One value in ten does not parse, and one maximum in nine is refused by
    CourseTimeline; midterm dates mostly precede final dates."""
    if key.endswith("_date"):
        first = 2000 if key == "midterm_date" else 2010
        naive = draw(st.datetimes(datetime(first, 1, 1), datetime(first + 20, 1, 1)))
        when = naive.replace(tzinfo=timezone.utc)
        elsewhere = when.astimezone(timezone(timedelta(hours=-5))).isoformat()
        texts = [naive.isoformat() + "Z", naive.isoformat(sep=" "), elsewhere]
        good = [(text, when) for text in texts]
        bad = ["2016-13-20T00:00:00Z", "2016-10-24T25:00:00Z", "soon", ""]
    elif key.endswith("_max"):
        x = draw(st.floats(1e-3, 1e6))
        n = draw(st.integers(1, 500))
        good = [(repr(x), x), (str(n), float(n))] * 4
        refused = [("0", 0.0), ("-5", -5.0), ("inf", math.inf), ("nan", math.nan)]
        good.append(draw(st.sampled_from(refused)))
        bad = ["abc", "", "1,5", "12 points"]
    else:
        return draw(st.sampled_from(["CS101", "", "a=b"])), None
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(bad)), BAD
    return draw(st.sampled_from(good))


@st.composite
def timeline_lines(draw, key=None):
    """A line model (kind, key, value) and the line's text."""
    kinds = ["blank", "comment", "entry"] * 3 + ["garbage"]
    kind = "entry" if key else draw(st.sampled_from(kinds))
    if kind == "blank":
        return (kind, None, None), draw(st.sampled_from(["", "  ", "\t"]))
    if kind == "comment":
        # Form feed, NEL and FS are not line ends in a file, though
        # str.splitlines splits at them.
        texts = ["# timeline", "  # midterm_max = 5", "#", "# a\x0cb", "# a\x85b", "#\x1c"]
        return (kind, None, None), draw(st.sampled_from(texts))
    if kind == "garbage":
        return (kind, None, None), draw(st.sampled_from(["oops", "midterm_max 110"]))
    key = key or draw(st.sampled_from(TIMELINE_KEYS + ("course", "")))
    text, value = draw(timeline_values(key))
    pads = [draw(st.sampled_from(["", " ", "  ", "\t", "\x0c"])) for _ in range(4)]
    return (kind, key, value), f"{pads[0]}{key}{pads[1]}={pads[2]}{text}{pads[3]}"


def expected_timeline(models, bad_byte_line):
    """The CourseTimeline of the lines' values, or the error's type and its
    line (for a ParseError, a refused value's too) or the missing keys (for
    a ConfigError)."""
    if bad_byte_line is not None:
        return ParseError, bad_byte_line
    values = {}  # a repeated key's last value wins
    for line_no, (kind, key, value) in enumerate(models, start=1):
        if kind == "garbage":
            return ParseError, line_no
        if kind == "entry" and key in TIMELINE_KEYS:
            values[key] = line_no, value
    missing = [key for key in TIMELINE_KEYS if key not in values]
    if missing:
        return ConfigError, missing
    for key in TIMELINE_KEYS:
        line_no, value = values[key]
        if value is BAD:
            return ParseError, line_no
    # A refused value names its key's line; dates out of order, the final's.
    value = {key: values[key][1] for key in TIMELINE_KEYS}
    refused = [
        ("final_date", value["midterm_date"] >= value["final_date"]),
        ("midterm_max", not 0 < value["midterm_max"] < math.inf),
        ("final_max", not 0 < value["final_max"] < math.inf),
    ]
    for key, is_refused in refused:
        if is_refused:
            return ParseError, values[key][0]
    return CourseTimeline(**value)


@settings(deadline=None)
@given(
    complete=st.sampled_from([True, True, True, False]),
    extra=st.lists(timeline_lines(), max_size=6),
    order=st.randoms(use_true_random=False),
    end=st.sampled_from(["\n", "\r\n"]),
    final_end=st.booleans(),
    bom=st.booleans(),
    bad_byte=st.one_of(st.none(), st.none(), st.none(), st.integers(0, 20)),
    data=st.data(),
)
def test_timeline_file_gives_its_values_or_an_error_naming_the_line(
    tmp_path_factory, complete, extra, order, end, final_end, bom, bad_byte, data
):
    lines = [data.draw(timeline_lines(key)) for key in TIMELINE_KEYS] if complete else []
    lines += extra
    order.shuffle(lines)
    models = [model for model, _text in lines]
    encoded = [text.encode() for _model, text in lines]
    bad_byte_line = None
    if bad_byte is not None and encoded:
        bad_byte_line = bad_byte % len(encoded) + 1
        encoded[bad_byte_line - 1] += b"\xff"
    raw = b"\xef\xbb\xbf" * bom + end.encode().join(encoded) + end.encode() * final_end
    cfg = tmp_path_factory.mktemp("timeline") / "timeline.cfg"
    cfg.write_bytes(raw)

    expected = expected_timeline(models, bad_byte_line)
    try:
        got = timeline_from_file(cfg)
    except GradecastError as err:
        assert not isinstance(expected, CourseTimeline), err
        kind, detail = expected
        assert type(err) is kind
        event(kind.__name__)
        if kind is ParseError:
            assert err.line_no == detail
            assert str(err).startswith(f"{cfg}:{detail}: ")
        else:
            assert all(key in str(err) for key in detail)
    else:
        event("CourseTimeline")
        assert got == expected
        assert got.midterm_date.utcoffset() == got.final_date.utcoffset() == timedelta(0)


# ------------------------------------------------ grades as arrays


def test_grades_are_arrays_in_student_order(tmp_path):
    grades = "student_id,midterm,final\ns2,40,45\ns3,,50\ns1,95.5,100\n"
    ds = load(write_inputs(tmp_path, grades=grades))
    assert ds.student_ids == ("s1", "s2")
    assert ds.midterm.tolist() == [95.5, 40.0]
    assert ds.final.tolist() == [100.0, 45.0]
    assert ds.midterm.dtype == ds.final.dtype == np.float64
    for exam in ("midterm", "final"):
        assert getattr(ds, exam).tolist() == [ds.grades[s].exam(exam) for s in ds.student_ids]


# ------------------------------------------------ columns and one-block times


def frozen_read_rows(path, required):
    """The row reader the columnar one replaced: each row's physical start
    line, and its required fields, recorded row by row."""
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


def _csv_field(text, quote):
    if quote or any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


csv_fields = st.tuples(st.text(alphabet='ab ,"\r\né', max_size=5), st.booleans())
csv_lines = st.tuples(
    st.lists(csv_fields, max_size=6),  # fewer or more fields than the header
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.integers(0, 2),  # blank lines after the row
)


@settings(deadline=None, max_examples=200)
@given(
    header=st.permutations(["a", "b", "c", "d"]),
    required=st.sampled_from([["a", "b"], ["d", "b", "c"], ["a", "b", "c", "d"]]),
    lines=st.lists(csv_lines, max_size=12),
    bom=st.booleans(),
    last_end=st.booleans(),
)
def test_columns_and_row_lines_equal_the_row_by_row_reader(
    tmp_path_factory, header, required, lines, bom, last_end
):
    text = ",".join(header) + "\n"
    for fields, end, blanks in lines:
        text += ",".join(_csv_field(*f) for f in fields) + end + end * blanks
    if not last_end:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode())

    starts, rows = frozen_read_rows(path, required)
    columns = _read_rows(path, required)
    assert columns == [[row[j] for row in rows] for j in range(len(required))]
    for i, start in enumerate(starts):
        assert _row_line(path, i) == start
        assert _refusal(path, i, "bad").line_no == start


def test_columns_of_a_file_missing_a_required_column(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,c\n1,2\n")
    with pytest.raises(ParseError, match="rows.csv:1: missing columns: b"):
        _read_rows(path, ["a", "b"])


def _stamp(when):
    return when.strftime("%Y-%m-%dT%H:%M:%S").rjust(19, "0") + "Z"


# Each turns a plain stamp into a near miss of the one-block form.
NEAR_MISSES = {
    "year 0000": lambda s: "0000" + s[4:],
    "month 00": lambda s: s[:5] + "00" + s[7:],
    "month 13": lambda s: s[:5] + "13" + s[7:],
    "february 30": lambda s: s[:5] + "02-30" + s[10:],
    "hour 24": lambda s: s[:11] + "24" + s[13:],
    "second 60": lambda s: s[:17] + "60Z",
    "lowercase z": lambda s: s[:19] + "z",
    "+00:00 suffix": lambda s: s[:19] + "+00:00",
    "19 characters": lambda s: s[:19],
    "21 characters": lambda s: s + " ",
    "fractional second": lambda s: s[:19] + ".25Z",
    "space for T": lambda s: s[:10] + " " + s[11:],
    "space in the year": lambda s: " " + s[1:],
    "sign in the year": lambda s: "-" + s[1:],
    "arabic-indic digit": lambda s: s[:3] + "٣" + s[4:],
}
# The near misses that keep a stamp's 20 characters: only the block can tell.
BLOCK_MISSES = [k for k, miss in NEAR_MISSES.items() if len(miss("2016-10-03T10:00:00Z")) == 20]


def time_block(texts):
    """The (n, 20) byte block of 20-character texts; "replace" keeps one byte
    per character."""
    return np.frombuffer("".join(texts).encode("ascii", "replace"), np.uint8).reshape(-1, 20)


@settings(deadline=None, max_examples=300)
@given(
    stamps=st.lists(
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
        min_size=1,
        max_size=20,
    ),
    miss=st.sampled_from([None, *BLOCK_MISSES]),
    where=st.integers(0, 19),
)
def test_one_block_timestamps_equal_the_text_by_text_parse(stamps, miss, where):
    texts = [_stamp(when.replace(microsecond=0)) for when in stamps]
    if miss is not None:
        i = where % len(texts)
        texts[i] = NEAR_MISSES[miss](texts[i])
    parsed = _epoch_us_block(time_block(texts))
    if miss is None:
        assert parsed.tolist() == [_parsed_us(t) for t in texts]
    else:
        assert parsed is None


def test_one_block_timestamps_of_an_empty_column():
    assert _epoch_us_block(time_block([])).dtype == np.int64
    assert len(_epoch_us_block(time_block([]))) == 0


@pytest.mark.parametrize("miss", sorted(NEAR_MISSES))
def test_a_time_of_another_form_sends_the_file_to_csv_reader(tmp_path, miss):
    text = NEAR_MISSES[miss]("2016-10-03T10:00:00Z")
    path = tmp_path / "submissions.csv"
    path.write_text(f"{SUBMISSIONS_CSV}s1,t3,{text},PP\n", encoding="utf-8")
    assert _plain_rows(path, path.read_bytes()) is None
    assert _csv_rows(path).time_us[-1] == _parsed_us(text)


# ------------------------------------------------ whole input files

# The course the file property draws: ids of different lengths, so that
# runs of equal ids end at a change of length too; s333 misses the final.
PROPERTY_TASKS = {"t1": 3, "t22": 2}
PROPERTY_GRADES = {"s1": (95.0, 100.0), "s22": (40.0, 45.0), "s333": (1.0, None)}
PROPERTY_DEADLINE = "2016-10-20T18:00:00Z"
# Ways to write a submissions file that is not plain.
FALLBACKS = [
    "quote", "crlf", "cr", "non_ascii_id", "nul", "field_count", "long_line",
    "outcome_space", "outcome_lower", "not_utf8",
]


@st.composite
def submission_rows(draw):
    """A row of the property's course: good three times in four, so that
    whole files are often good; else with ids, times and outcomes that may
    be wrong."""
    good = draw(st.integers(0, 3)) > 0
    students, tasks = [*PROPERTY_GRADES], [*PROPERTY_TASKS]
    other_stamps = ["2016-10-03T10:00:00.25Z", "2016-10-03 10:00:00+02:00"]
    if not good:
        students += ["ghost", "", "s1 "]
        tasks += ["t9"]
        other_stamps += ["0000-01-01T00:00:00Z", "2016-10-03T10:00:00ZZ", "yesterday", ""]
    student, task = draw(st.sampled_from(students)), draw(st.sampled_from(tasks))
    width = PROPERTY_TASKS.get(task, 2)
    plain_stamp = st.builds(
        "2016-10-{:02d}T{:02d}:{:02d}:00Z".format,
        st.integers(1, 31), st.integers(0, 23 if good else 24), st.integers(0, 59),
    )
    stamp = draw(st.one_of(plain_stamp, plain_stamp, plain_stamp, st.sampled_from(other_stamps)))
    outcomes = st.one_of(st.text("PF", min_size=width, max_size=width), st.just("C" * width))
    outcomes = draw(outcomes if good else st.text("PFC", max_size=4))
    return {"student_id": student, "task_id": task, "submitted_at": stamp, "outcomes": outcomes}


def csv_text(header, rows, end, blanks, final_end):
    lines = [",".join(header)] + [",".join(row) for row in rows]
    blanks = blanks + [0] * len(lines)
    text = "".join(line + end + end * blank for line, blank in zip(lines, blanks))
    return text if final_end else text.rstrip("\r\n")


def physical_lines(raw: bytes) -> int:
    return len(re.split(rb"\r\n|\r|\n", raw))


def assert_names_a_physical_line(err: GradecastError, paths) -> None:
    """A ParseError, or a ReferentialError naming its file, names the line of
    what is at fault: the first byte that is not UTF-8, or the start of the
    header or of a row."""
    found = re.match(r"(.*):(\d+): ", str(err))
    if isinstance(err, ParseError):
        path, line_no = Path(err.path), err.line_no
    elif found:
        path, line_no = Path(found[1]), int(found[2])
    else:
        return
    assert path in paths
    raw = path.read_bytes()
    if "text is not UTF-8" in str(err):
        with pytest.raises(UnicodeDecodeError) as bad:
            raw.decode("utf-8")
        assert line_no == physical_lines(raw[: bad.value.start])
    elif "field larger than field limit" in str(err):
        assert 1 <= line_no <= physical_lines(raw)
    else:
        required = ["task_id" if path.name == "tasks.csv" else "student_id"]
        assert line_no in [1, *frozen_read_rows(path, required)[0]]


def dataset_fields(ds: Dataset):
    rows = [
        tuple((a.dtype.str, a.shape, a.tolist()) if isinstance(a, np.ndarray) else a for a in view)
        for view in ds._rows
    ]
    return ds.student_ids, ds.report, ds.tasks, ds.grades, ds.midterm.tolist(), rows


def property_dataset(rows, tasks=PROPERTY_TASKS, grades=PROPERTY_GRADES) -> Dataset:
    """The Dataset of the property's course, or of the course of ``tasks``
    (id -> testcase count) and ``grades`` (id -> exams), with these
    submission rows."""
    tasks = [make_task(t, "a0", ts(PROPERTY_DEADLINE), w) for t, w in tasks.items()]
    grades = [GradeRecord(s, *exams) for s, exams in grades.items()]
    return Dataset(tasks, make_timeline(), rows, grades)


def dataset_or_error(read, **course):
    """The fields of the Dataset of ``read()``'s rows and the property's
    course (or ``property_dataset``'s ``course``), or the type and message
    of the error raised; None if ``read`` gives no rows."""
    try:
        rows = read()
        if rows is None:
            return None
        return dataset_fields(property_dataset(rows, **course))
    except GradecastError as err:
        return type(err), str(err)


def is_plain_stamp(text: str) -> bool:
    """Whether the text is YYYY-MM-DDTHH:MM:SSZ with its fields in range."""
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z", text):
        return False
    try:
        datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return False
    return True


@settings(deadline=None)
@given(
    rows=st.lists(submission_rows(), max_size=12),
    header=st.permutations(["student_id", "task_id", "submitted_at", "outcomes"]),
    extra_column=st.booleans(),
    fallback=st.one_of(st.none(), st.sampled_from(FALLBACKS)),  # plain half the time
    bom=st.booleans(),
    where=st.integers(0, 100),
    blanks=st.lists(st.integers(0, 2), max_size=14),
    final_end=st.booleans(),
    grades=st.lists(
        st.sampled_from(["95", "40.5", "60", "", "nan", "inf", "-inf", "1e400", "-1", "x"]),
        min_size=6, max_size=6,
    ),
    tasks_form=st.sampled_from(["plain", "bom", "crlf", "not_utf8", "bad_deadline"]),
)
def test_loaders_return_a_dataset_or_a_typed_error_naming_the_line(
    tmp_path_factory, rows, header, extra_column, fallback, bom, where, blanks, final_end,
    grades, tasks_form,
):
    header = header + ["note"] * extra_column
    table = [[row.get(c, "x") for c in header] for row in rows]
    end = {"crlf": "\r\n", "cr": "\r"}.get(fallback, "\n")
    edits = {
        "quote": ("task_id", '"{}"'),
        "non_ascii_id": ("student_id", "s\xe9"),
        "nul": ("task_id", "{}\0"),
        "long_line": ("outcomes", "P" * (csv.field_size_limit() + where % 2)),
        "outcome_space": ("outcomes", " {}"),
        "outcome_lower": ("outcomes", "{}p"),
    }
    if table:
        row = table[where % len(table)]
        if fallback in edits:
            column, form = edits[fallback]
            row[header.index(column)] = form.format(row[header.index(column)])
        elif fallback == "field_count":  # one field too few or too many
            if where % 2:
                row.append("x")
            else:
                row.pop()
    text = csv_text(header, table, end, blanks, final_end)
    raw = b"\xef\xbb\xbf" * bom + text.encode()
    if fallback == "not_utf8" and table:
        raw = raw[:-2] + b"\xff" + raw[-2:]
    # Without rows, only a line end can make the file not plain.
    plain_file = fallback is None or not (table or "\r" in text)
    plain_file &= all(is_plain_stamp(row["submitted_at"]) for row in rows)

    grade_rows = [[s, *grades[2 * i : 2 * i + 2]] for i, s in enumerate(PROPERTY_GRADES)]
    task_rows = [
        [t, "a0", PROPERTY_DEADLINE, ";".join(f"tc{i}" for i in range(w))]
        for t, w in PROPERTY_TASKS.items()
    ]
    if tasks_form == "bad_deadline":
        task_rows[-1][2] = "soon"
    tasks_header = ["task_id", "assignment_id", "deadline", "testcase_ids"]
    tasks_end = "\r\n" if tasks_form == "crlf" else "\n"
    tasks_text = csv_text(tasks_header, task_rows, tasks_end, [], True)
    tasks_raw = b"\xef\xbb\xbf" * (tasks_form == "bom") + tasks_text.encode()
    if tasks_form == "not_utf8":
        tasks_raw = tasks_raw.replace(b"a0,", b"a\xc30,", 1)

    directory = tmp_path_factory.mktemp("course")
    paths = {name: directory / f"{name}.csv" for name in ("tasks", "submissions", "grades")}
    paths["tasks"].write_bytes(tasks_raw)
    paths["submissions"].write_bytes(raw)
    grades_text = csv_text(["student_id", "midterm", "final"], grade_rows, "\n", blanks, final_end)
    paths["grades"].write_text(grades_text)

    try:
        ds = load(paths)
    except GradecastError as err:
        assert_names_a_physical_line(err, list(paths.values()))
    else:
        assert isinstance(ds, Dataset)

    # The byte reader reads every plain file, and reads it as csv.reader does.
    path = paths["submissions"]
    plain = dataset_or_error(lambda: _plain_rows(path, raw))
    assert (plain is not None) == plain_file
    if plain is not None:
        assert plain == dataset_or_error(lambda: _csv_rows(path))


@st.composite
def good_submission_rows(draw):
    """Rows of the property's course that load: distinct (student, task,
    time) keys, times that often tie across students and tasks, and
    outcomes of the task's width."""
    keys = st.tuples(
        st.sampled_from([*PROPERTY_GRADES]),
        st.sampled_from([*PROPERTY_TASKS]),
        st.integers(1, 31),
        st.integers(0, 2),
    )
    rows = []
    for student, task, day, hour in draw(st.lists(keys, unique=True, max_size=16)):
        width = PROPERTY_TASKS[task]
        outcomes = st.one_of(st.text("PF", min_size=width, max_size=width), st.just("C" * width))
        stamp = f"2016-10-{day:02d}T{hour:02d}:00:00Z"
        fields = [student, task, stamp, draw(outcomes)]
        rows.append(dict(zip(["student_id", "task_id", "submitted_at", "outcomes"], fields)))
    return rows


def dataset_and_matrices(path):
    """The fields of the submissions file's Dataset in the property's course,
    and its matrix of every feature family for both exams."""
    ds = property_dataset(_read_submissions(path))
    config = FeatureConfig(tuple(PROPERTY_TASKS))
    matrices = [
        build_feature_matrix(ds, family, config, exam)
        for family in FAMILIES
        for exam in ("midterm", "final")
    ]
    return dataset_fields(ds), [
        (m.student_ids, m.column_names, m.values.tolist(), m.target.tolist()) for m in matrices
    ]


@settings(deadline=None)
@given(
    rows=good_submission_rows(),
    header=st.permutations(["student_id", "task_id", "submitted_at", "outcomes"]),
    shuffle=st.randoms(use_true_random=False),
)
def test_line_order_and_line_ends_leave_the_dataset_and_matrices_unchanged(
    tmp_path_factory, rows, header, shuffle
):
    # The same lines shuffled and sorted by time are read by the byte
    # reader too; the CRLF copy goes through csv.reader.
    copies = {
        "given": (rows, "\n"),
        "shuffled": (shuffle.sample(rows, len(rows)), "\n"),
        "by_time": (sorted(rows, key=itemgetter("submitted_at")), "\n"),
        "crlf": (rows, "\r\n"),
    }
    directory = tmp_path_factory.mktemp("order")
    loaded = []
    for name, (lines, end) in copies.items():
        path = directory / f"{name}.csv"
        table = [[row[c] for c in header] for row in lines]
        path.write_bytes(csv_text(header, table, end, [], True).encode())
        assert (_plain_rows(path, path.read_bytes()) is None) == (name == "crlf")
        loaded.append(dataset_and_matrices(path))
    assert all(other == loaded[0] for other in loaded[1:])


ID = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12)


def spelled_course(directory, students, tasks, spell, seed):
    """A course's three files, with each id written as ``spell(id)``:
    submissions and grades drawn from ``seed``, the same for every spelling."""
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 5, size=len(tasks))
    tasks_csv = ["task_id,assignment_id,deadline,testcase_ids"] + [
        f"{spell(t)},a0,2016-10-20T18:00:00Z,{';'.join(f'tc{i}' for i in range(w))}"
        for t, w in zip(tasks, widths)
    ]
    subs_csv, grades_csv = ["student_id,task_id,submitted_at,outcomes"], ["student_id,midterm,final"]
    for student in students:
        ability = rng.random()
        for task, width in zip(tasks, widths):
            for day in rng.choice(np.arange(1, 31), size=rng.integers(0, 4), replace=False):
                outcomes = "".join("PF"[int(rng.random() > ability)] for _ in range(width))
                subs_csv.append(f"{spell(student)},{spell(task)},2016-10-{day:02d}T12:00:00Z,{outcomes}")
        midterm, final = np.clip(ability * 110 + rng.normal(0, 15, 2), 0, 110).round(1)
        grades_csv.append(f"{spell(student)},{midterm},{final}")
    texts = {"tasks": tasks_csv, "submissions": subs_csv, "grades": grades_csv}
    return write_inputs(directory, **{name: "\n".join(lines) + "\n" for name, lines in texts.items()})


def outcome_of(call):
    """A call's result, or the type of the error it raised: a message may
    name a column, and column names carry task ids."""
    try:
        return repr(call())
    except GradecastError as err:
        return type(err).__name__


@settings(deadline=None, max_examples=25)
@given(
    students=st.lists(ID, min_size=8, max_size=24, unique=True),
    tasks=st.lists(ID, min_size=1, max_size=3, unique=True),
    prefix=st.text("abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_an_order_preserving_id_renaming_leaves_matrices_trees_and_reports_unchanged(
    tmp_path_factory, students, tasks, prefix, seed
):
    # A common prefix keeps the byte order of ids, and so the order of
    # students and of equal-deadline tasks; it also moves ids across the
    # 8-byte words in which the byte reader codes them.
    seen = []
    for spell in (str, lambda name: prefix + name):
        paths = spelled_course(tmp_path_factory.mktemp("ids"), students, tasks, spell, seed)
        ds = load(paths)
        assert list(ds.student_ids) == sorted(spell(s) for s in students)
        config = FeatureConfig(tuple(spell(t) for t in tasks))
        found = []
        for family in FAMILIES:
            m = build_feature_matrix(ds, family, config, "final")
            categorical = m.with_target(categorize_all(m.target), "final_category")
            model = train_tree(categorical)
            found += [
                m.values.tolist(), m.target.tolist(), model.classes,
                [getattr(model, a).tolist() for a in ("feature", "threshold", "child", "counts")],
                outcome_of(lambda: cross_validate(categorical, "tree", 4, seed)),
                outcome_of(lambda: cross_validate(m, "regression", 4, seed)),
            ]
        seen.append(found)
    assert seen[1] == seen[0]


@given(st.lists(st.integers(0, 4), max_size=12), st.data())
def test_counts_in_back_to_back_runs_equal_the_sums_of_their_slices(lengths, data):
    size = sum(lengths)
    hits = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    lengths = np.array(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    expected = [int(hits[s : s + n].sum()) for s, n in zip(starts, lengths)]
    assert _counts_at(hits, starts, lengths).tolist() == expected


def recording_reader(refused, calls):
    """csv.reader, recording the name of each file it reads and raising on
    the file named ``refused``."""
    real = csv.reader

    def reader(fh, *args, **kwargs):
        calls.append(Path(fh.name).name)
        if calls[-1] == refused:
            raise AssertionError(f"csv.reader read {refused}")
        return real(fh, *args, **kwargs)

    return reader


def test_a_plain_submissions_file_never_reaches_csv_reader(tmp_path, monkeypatch):
    (tmp_path / "bare").mkdir()
    (tmp_path / "dressed").mkdir()
    expected = dataset_fields(load(write_inputs(tmp_path / "bare")))
    # A BOM, a blank line and no final newline keep a file plain.
    text = SUBMISSIONS_CSV.replace("\ns2,t1,", "\n\ns2,t1,").rstrip("\n")
    paths = write_inputs(tmp_path / "dressed", submissions=text)
    paths["submissions"].write_bytes(b"\xef\xbb\xbf" + paths["submissions"].read_bytes())
    calls = []
    monkeypatch.setattr("gradecast.dataset.csv.reader", recording_reader("submissions.csv", calls))
    assert dataset_fields(load(paths)) == expected
    assert sorted(calls) == ["grades.csv", "tasks.csv"]


def test_a_quoted_field_is_read_by_csv_reader(tmp_path, monkeypatch):
    (tmp_path / "bare").mkdir()
    (tmp_path / "quoted").mkdir()
    expected = dataset_fields(load(write_inputs(tmp_path / "bare")))
    quoted = SUBMISSIONS_CSV.replace("s2,t3,", '"s2",t3,')
    paths = write_inputs(tmp_path / "quoted", submissions=quoted)
    calls = []
    monkeypatch.setattr("gradecast.dataset.csv.reader", recording_reader(None, calls))
    assert dataset_fields(load(paths)) == expected
    assert "submissions.csv" in calls


# ------------------------------------------------ id codes and row order


SUBMISSION_HEADER = ["student_id", "task_id", "submitted_at", "outcomes"]
# Plain-file bytes from both ends of ASCII, so byte order is tested too.
ID_ALPHABET = " !-.09AZ_az~"


@st.composite
def course_ids(draw):
    """Distinct ids of 1-24 bytes; many share an 8- or 16-byte prefix and
    differ only after it."""
    prefix = draw(st.text(ID_ALPHABET, min_size=8, max_size=16))
    shared = st.builds(
        lambda k, tail: (prefix[:k] + tail)[:24] or prefix[:1],
        st.sampled_from([8, 16, len(prefix)]),
        st.text(ID_ALPHABET, max_size=9),
    )
    any_id = st.text(ID_ALPHABET, min_size=1, max_size=24)
    return draw(st.lists(st.one_of(shared, any_id), min_size=1, max_size=8, unique=True))


@settings(deadline=None)
@given(students=course_ids(), tasks=course_ids(), data=st.data())
def test_byte_reader_codes_ids_as_csv_reader_reads_them(tmp_path_factory, students, tasks, data):
    # The course registers a prefix of each id list, so rows may name
    # unknown ids; each row has its own minute, so no row is a duplicate.
    known_students = students[: data.draw(st.integers(1, len(students)))]
    known_tasks = tasks[: data.draw(st.integers(1, len(tasks)))]
    results = st.text("PF", min_size=2, max_size=2)
    picks = st.tuples(st.sampled_from(students), st.sampled_from(tasks), results)
    table = [
        [student, task, f"2016-10-03T10:{minute:02d}:00Z", outcomes]
        for minute, (student, task, outcomes) in enumerate(data.draw(st.lists(picks, max_size=40)))
    ]
    path = tmp_path_factory.mktemp("ids") / "submissions.csv"
    raw = csv_text(SUBMISSION_HEADER, table, "\n", [], True).encode()
    path.write_bytes(raw)

    rows = _plain_rows(path, raw)
    assert rows is not None
    for ids, index, column in zip((rows.student_ids, rows.task_ids), rows.id_index, (0, 1)):
        assert ids == sorted({row[column] for row in table})
        assert [ids[i] for i in index] == [row[column] for row in table]

    course = {
        "tasks": dict.fromkeys(known_tasks, 2),
        "grades": dict.fromkeys(known_students, (60.0, 70.0)),
    }
    plain = dataset_or_error(lambda: _plain_rows(path, raw), **course)
    assert plain == dataset_or_error(lambda: _csv_rows(path), **course)


def frozen_order(task, student, time_us):
    """The row order and duplicate flags of the three-key sort that the one
    int64 key replaced."""
    order = np.lexsort((time_us, student, task))
    keys = np.stack([task, student, time_us])[:, order]
    duplicate = np.zeros(len(task), dtype=bool)
    duplicate[order[1:][(np.diff(keys) == 0).all(axis=0)]] = True
    return order, duplicate


# Three students excluded, so that excluded students' codes run past -2.
ORDER_GRADES = {**PROPERTY_GRADES, "s4444": (None, 50.0), "s55555": (None, None)}


@settings(deadline=None)
@given(
    picks=st.lists(
        st.tuples(
            st.sampled_from([*ORDER_GRADES, "ghost"]),
            st.sampled_from([*PROPERTY_TASKS, "t9"]),
            # Few times, so rows often tie; "yesterday" does not parse.
            st.sampled_from(["2016-10-03T10:00:00Z", "2016-10-03T09:00:00Z", "yesterday"]),
            st.sampled_from(["PP", "PFP", "CCC"]),
        ),
        max_size=24,
    ),
)
def test_row_order_and_duplicates_equal_the_three_key_sort(tmp_path_factory, picks):
    path = tmp_path_factory.mktemp("order") / "submissions.csv"
    path.write_text(csv_text(SUBMISSION_HEADER, [list(p) for p in picks], "\n", [], True))
    rows = _read_submissions(path)
    calls = []
    real = Dataset._order

    def recording(self, task, student, time_us):
        calls.append(((task, student, time_us), real(self, task, student, time_us)))
        return calls[-1][1]

    with patch.object(Dataset, "_order", recording):
        loaded = dataset_or_error(lambda: rows, grades=ORDER_GRADES)
    (codes, (order, duplicate)), = calls
    expected_order, expected_duplicate = frozen_order(*codes)
    assert order.tolist() == expected_order.tolist()
    assert duplicate.tolist() == expected_duplicate.tolist()
    # The same Dataset, or the same first error, row and message included.
    with patch.object(Dataset, "_order", lambda self, *codes: frozen_order(*codes)):
        assert loaded == dataset_or_error(lambda: rows, grades=ORDER_GRADES)


def test_a_row_order_key_past_int64_is_a_config_error():
    # (tasks + 1) * (students + 1) * (distinct times) must stay below 2**63;
    # ranges stand in for a course that large.
    huge = SimpleNamespace(tasks=range(2**31), _codes=range(2**31), student_ids=range(2**30))
    codes = np.zeros(4, dtype=np.int64)
    with pytest.raises(ConfigError, match="too many to order"):
        Dataset._order(huge, codes, codes, np.arange(4, dtype=np.int64))


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


def _lines_with_starts(lines, end, blanks):
    """The text of the lines, each followed by ``end`` and its blank lines,
    and the physical line on which each line starts."""
    text, starts = "", []
    for line, blank in zip(lines, blanks):
        starts.append(physical_lines(text.encode()))
        text += line + end * (1 + blank)
    return text, starts


spanning_text = st.builds(
    "".join, st.lists(st.sampled_from(["a", " ", ",", '"', "\n", "\r\n", "\r", "é"]), max_size=6)
)


@settings(deadline=None)
@given(
    assignments=st.lists(spanning_text, min_size=2, max_size=2),
    notes=st.lists(spanning_text, min_size=3, max_size=3),
    note_first=st.booleans(),
    bad_task=st.one_of(st.none(), st.integers(0, 1)),
    bad_grade=st.one_of(st.none(), st.integers(0, 2)),
    end=st.sampled_from(["\n", "\r\n"]),
    blanks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
def test_quoted_fields_over_several_lines_in_tasks_and_grades(
    tmp_path_factory, assignments, notes, note_first, bad_task, bad_grade, end, blanks
):
    task_lines = ["task_id,assignment_id,deadline,testcase_ids"]
    for i, ((task, width), assignment) in enumerate(zip(PROPERTY_TASKS.items(), assignments)):
        deadline = "soon" if i == bad_task else PROPERTY_DEADLINE
        testcases = ";".join(f"tc{k}" for k in range(width))
        task_lines.append(",".join([task, _quoted(assignment), deadline, testcases]))
    grade_rows = [["note", "student_id", "midterm", "final"]]
    for i, (student, (midterm, final)) in enumerate(PROPERTY_GRADES.items()):
        midterm = "x" if i == bad_grade else str(midterm)
        final = "" if final is None else str(final)
        grade_rows.append([_quoted(notes[i]), student, midterm, final])
    # The note column, which holds each row's quoted field, comes first or last.
    grade_lines = [",".join(row if note_first else row[1:] + row[:1]) for row in grade_rows]
    tasks_text, task_starts = _lines_with_starts(task_lines, end, blanks)
    grades_text, grade_starts = _lines_with_starts(grade_lines, end, blanks[::-1])

    directory = tmp_path_factory.mktemp("spanning")
    submissions = "student_id,task_id,submitted_at,outcomes\ns1,t1,2016-10-03T10:00:00Z,PFP\n"
    paths = write_inputs(directory, submissions=submissions)
    paths["tasks"].write_bytes(tasks_text.encode())
    paths["grades"].write_bytes(grades_text.encode())
    if bad_task is not None:
        expected = (paths["tasks"], task_starts[1 + bad_task], "bad timestamp 'soon'")
    elif bad_grade is not None:
        expected = (paths["grades"], grade_starts[1 + bad_grade], "bad midterm grade 'x'")
    else:
        ds = load(paths)
        assert [t.assignment_id for t in ds.tasks] == assignments
        assert ds.student_ids == ("s1", "s22")
        return
    with pytest.raises(ParseError) as err:
        load(paths)
    assert (Path(err.value.path), err.value.line_no) == expected[:2]
    assert str(err.value).endswith(expected[2])

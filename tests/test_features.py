import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradecast.dataset import Dataset, GradeRecord, Outcome
from gradecast.errors import ConfigError
from gradecast.features import FAMILIES, FeatureConfig, FeatureMatrix, build_feature_matrix

from conftest import MIDTERM, hours_before, make_task, make_timeline, sub


def cell(dataset, family, student_id, task_id, threshold=0.75):
    """The student's cell of a one-task matrix: the family's values for the task."""
    m = build_feature_matrix(dataset, family, FeatureConfig((task_id,), threshold))
    return m.values[m.student_ids.index(student_id)]


def passing_rate(dataset, student_id, task_id):
    return float(cell(dataset, "passing_rate", student_id, task_id)[0])


def outcome_vector(dataset, student_id, task_id):
    return cell(dataset, "testcase_outcomes", student_id, task_id)


def submission_count(dataset, student_id, task_id):
    return int(cell(dataset, "submission_count", student_id, task_id)[0])


def sti_hours(dataset, student_id, task_id, threshold=0.75):
    return float(cell(dataset, "sti", student_id, task_id, threshold)[0])


def test_passing_rate_is_m_over_n(small_dataset):
    assert passing_rate(small_dataset, "s1", "t1") == 1.0
    # s2's best on t1 is the late 3-of-4 submission
    assert passing_rate(small_dataset, "s2", "t1") == 0.75
    assert passing_rate(small_dataset, "s3", "t1") == 0.0
    with pytest.raises(ConfigError):
        passing_rate(small_dataset, "s1", "nope")


def test_testcase_outcomes_encode_best_submission(small_dataset):
    assert outcome_vector(small_dataset, "s2", "t2").tolist() == [1.0, 0.0]
    assert outcome_vector(small_dataset, "s3", "t1").tolist() == [0.0] * 4


def test_compile_error_counts_as_all_failed(timeline):
    deadline = MIDTERM - timedelta(days=5)
    tasks = [make_task("t1", "a0", deadline, 3)]
    subs = [sub("s1", "t1", hours_before(deadline, 5.0), "CCC")]
    ds = Dataset(tasks, timeline, subs, [GradeRecord("s1", 60.0, 60.0)])
    assert outcome_vector(ds, "s1", "t1").tolist() == [0.0, 0.0, 0.0]
    assert passing_rate(ds, "s1", "t1") == 0.0


def test_submission_count_includes_late_submissions(small_dataset):
    assert submission_count(small_dataset, "s1", "t1") == 3
    assert submission_count(small_dataset, "s2", "t1") == 2
    assert submission_count(small_dataset, "s3", "t1") == 0


def test_submission_count_heavy_resubmitter(timeline):
    deadline = MIDTERM - timedelta(days=5)
    tasks = [make_task("t1", "a0", deadline, 2)]
    subs = [
        sub("s1", "t1", hours_before(deadline, 300.0 - i * 0.5), "PF") for i in range(211)
    ]
    ds = Dataset(tasks, timeline, subs, [GradeRecord("s1", 60.0, 60.0)])
    assert submission_count(ds, "s1", "t1") == 211


def test_sti_uses_earliest_qualifying_submission(small_dataset):
    # s1/t1: 30h-before submission is the first to reach 3/4 = 75%
    assert sti_hours(small_dataset, "s1", "t1") == pytest.approx(30.0)
    # threshold 1.0 requires the 10h-before full pass
    assert sti_hours(small_dataset, "s1", "t1", 1.0) == pytest.approx(10.0)


def test_sti_paper_style_cases(timeline):
    deadline = MIDTERM - timedelta(days=5)
    tasks = [make_task("t1", "a0", deadline, 4)]
    grades = [GradeRecord(s, 60.0, 60.0) for s in ("s1", "s2", "s3")]

    # qualifying submission 23 hours before the deadline
    subs = [sub("s1", "t1", hours_before(deadline, 23.0), "PPPF")]
    # qualifying submission exactly at the deadline -> 0
    subs.append(sub("s2", "t1", deadline, "PPPP"))
    # only qualifying submission is 2 hours late -> 0
    subs.append(sub("s3", "t1", hours_before(deadline, -2.0), "PPPP"))
    ds = Dataset(tasks, timeline, subs, grades)

    assert sti_hours(ds, "s1", "t1") == pytest.approx(23.0)
    assert sti_hours(ds, "s2", "t1") == 0.0
    assert sti_hours(ds, "s3", "t1") == 0.0


def test_sti_monotone_in_threshold(small_dataset):
    thresholds = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    for sid in small_dataset.student_ids:
        for task in small_dataset.tasks:
            values = [
                sti_hours(small_dataset, sid, task.task_id, t)
                for t in thresholds
            ]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(v >= 0 for v in values)


def test_passing_rate_equals_mean_outcomes(small_dataset):
    for sid in small_dataset.student_ids:
        for task in small_dataset.tasks:
            rate = passing_rate(small_dataset, sid, task.task_id)
            vec = outcome_vector(small_dataset, sid, task.task_id)
            assert rate == pytest.approx(vec.mean())


def test_build_matrix_row_order_and_shapes(small_dataset):
    config = FeatureConfig(("t1", "t2"))
    m = build_feature_matrix(small_dataset, "sti", config, target="midterm")
    assert m.student_ids == ["s1", "s2", "s3"]
    assert m.column_names == ["t1", "t2"]
    assert m.values.shape == (3, 2)
    assert m.target.tolist() == [95.0, 40.0, 65.0]

    to = build_feature_matrix(small_dataset, "testcase_outcomes", config)
    # 4 + 2 testcases -> 6 columns
    assert len(to.column_names) == 6
    assert to.column_names[0] == "t1:tc1"

    # student with no submissions anywhere -> all-zero row
    pr = build_feature_matrix(small_dataset, "passing_rate", config)
    s3_row = pr.values[pr.student_ids.index("s3")]
    assert np.all(s3_row == 0.0)


def test_take_and_with_target_keep_labels_and_check_the_target_length():
    m = FeatureMatrix(["a", "b", "c"], ["x", "y"], [[1, 2], [3, 4], [5, 6]], [7, 8, 9], "t")
    part = m.take([2, 0, 2])
    assert part.student_ids == ["c", "a", "c"]
    assert part.column_names == ["x", "y"] and part.column_names is not m.column_names
    assert part.values.tolist() == [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]]
    assert part.target.tolist() == [9, 7, 9] and part.target_name == "t"
    assert m.take([]).values.shape == (0, 2) and m.take(range(3)).student_ids == ["a", "b", "c"]
    relabelled = m.with_target([0, 1, 2], "u")
    assert relabelled.target.tolist() == [0, 1, 2] and relabelled.target_name == "u"
    assert m.target.tolist() == [7, 8, 9]
    with pytest.raises(ConfigError):
        m.with_target([1, 2], "u")


def test_build_matrix_rejects_bad_scope(small_dataset):
    with pytest.raises(ConfigError):
        FeatureConfig(())
    with pytest.raises(ConfigError):
        build_feature_matrix(small_dataset, "sti", FeatureConfig(("t9",)))
    with pytest.raises(ConfigError):
        build_feature_matrix(small_dataset, "nope", FeatureConfig(("t1",)))
    for scope in [("t1", "t1"), ("t1", "t2", "t1")]:
        with pytest.raises(ConfigError, match="task_scope names a task twice"):
            FeatureConfig(scope)


@pytest.mark.parametrize("target", ["Final", "midterm ", "grade"])
def test_a_target_that_is_no_exam_is_refused(small_dataset, target):
    with pytest.raises(ConfigError, match=f"unknown target {target!r}"):
        build_feature_matrix(small_dataset, "sti", FeatureConfig(("t1",)), target=target)


def test_matrix_csv_round_trip(tmp_path, small_dataset):
    config = FeatureConfig(("t1", "t2"))
    m = build_feature_matrix(small_dataset, "sti", config, target="midterm")
    out = tmp_path / "features.csv"
    m.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "student_id,t1,t2,target"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "s1"
    assert float(first[1]) == pytest.approx(30.0)


@pytest.mark.parametrize(
    "family, columns",
    [
        ("passing_rate", ["t1", "t2"]),
        ("testcase_outcomes", ["t1:tc1", "t1:tc2", "t1:tc3", "t2:tc1"]),
        ("submission_count", ["t1", "t2"]),
        ("sti", ["t1", "t2"]),
    ],
)
def test_build_matrix_on_cohort_with_no_retained_student(timeline, family, columns):
    deadline = MIDTERM - timedelta(days=5)
    tasks = [make_task("t1", "a0", deadline, 3), make_task("t2", "a0", deadline, 1)]
    submissions = [sub("s1", "t1", hours_before(deadline, 2.0), "PPF")]
    grades = [GradeRecord("s1", None, 70.0), GradeRecord("s2", 60.0, None)]
    dataset = Dataset(tasks, timeline, submissions, grades)
    m = build_feature_matrix(dataset, family, FeatureConfig(("t1", "t2")), target="final")
    assert m.values.shape == (0, len(columns))
    assert m.column_names == columns
    assert m.student_ids == []
    assert len(m.target) == 0


# Frozen record-based per-cell code that build_feature_matrix used to run,
# one (student, task) cell at a time; the segment reductions must return
# exactly the same matrix.
def reference_matrix(tasks, records, grades, family, config, target):
    tasks_by_id = {t.task_id: t for t in tasks}
    graded = {g.student_id: g for g in grades}
    students = sorted(
        sid for sid, g in graded.items() if g.midterm is not None and g.final is not None
    )
    subs = {}
    for record in records:
        subs.setdefault((record.student_id, record.task_id), []).append(record)

    def best(sid, task_id):
        rows = subs.get((sid, task_id), [])
        return max(rows, key=lambda s: (s.passed_count, s.submitted_at)) if rows else None

    def cell(sid, task_id):
        task = tasks_by_id[task_id]
        if family == "passing_rate":
            b = best(sid, task_id)
            return 0.0 if b is None else b.passed_count / task.testcase_count
        if family == "testcase_outcomes":
            b = best(sid, task_id)
            if b is None:
                return np.zeros(task.testcase_count)
            return np.array([o is Outcome.PASSED for o in b.outcomes], dtype=float)
        if family == "submission_count":
            return len(subs.get((sid, task_id), []))
        qualifying = [
            s.submitted_at
            for s in subs.get((sid, task_id), [])
            if s.submitted_at <= task.deadline
            and s.passed_count / task.testcase_count >= config.sti_threshold
        ]
        if not qualifying:
            return 0.0
        return (task.deadline - min(qualifying)).total_seconds() / 3600.0

    columns, blocks = [], []
    for task_id in config.task_scope:
        if family == "testcase_outcomes":
            names = [f"{task_id}:{tc}" for tc in tasks_by_id[task_id].testcase_ids]
        else:
            names = [task_id]
        columns.extend(names)
        cells = [cell(sid, task_id) for sid in students]
        blocks.append(np.array(cells, dtype=float).reshape(len(students), len(names)))
    matrix = FeatureMatrix(students, columns, np.hstack(blocks))
    if target != "none":
        matrix = matrix.with_target(np.array([getattr(graded[s], target) for s in students]), target)
    return matrix


HOUR_US = 3600 * 10**6


@st.composite
def courses(draw):
    """Tasks of different widths with microsecond deadlines; students, some
    missing an exam; 0-4 submissions per pair at microsecond offsets from the
    deadline, late ones included, each all-C or a P/F pattern."""
    base = MIDTERM - timedelta(days=5)
    tasks = [
        make_task(
            f"t{i}",
            "a0",
            base + timedelta(microseconds=draw(st.integers(-HOUR_US, HOUR_US))),
            draw(st.integers(1, 4)),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    exams = st.sampled_from([(60.0, 70.0), (60.0, 70.0), (None, 70.0), (55.0, None)])
    grades = [GradeRecord(f"s{i}", *draw(exams)) for i in range(draw(st.integers(1, 4)))]
    offsets = st.lists(
        st.one_of(st.just(0), st.integers(-30 * HOUR_US, 3 * HOUR_US)), max_size=4, unique=True
    )
    records = []
    for g in grades:
        for task in tasks:
            width = task.testcase_count
            pattern = st.one_of(st.just("C" * width), st.text("PF", min_size=width, max_size=width))
            for offset in draw(offsets):
                when = task.deadline + timedelta(microseconds=offset)
                records.append(sub(g.student_id, task.task_id, when, draw(pattern)))
    return tasks, draw(st.permutations(records)), grades


thresholds = st.one_of(
    st.sampled_from([0.25, 0.5, 0.75, 1.0, 1 / 3, 2 / 3]),
    st.floats(0.0, 1.0, exclude_min=True),
)


@given(courses(), st.sampled_from(FAMILIES), thresholds, st.data())
def test_feature_matrix_equals_reference_cells_exactly(course, family, threshold, data):
    tasks, records, grades = course
    task_ids = [t.task_id for t in tasks]
    scope = data.draw(st.permutations(task_ids))[: data.draw(st.integers(1, len(task_ids)))]
    target = data.draw(st.sampled_from(["none", "midterm", "final"]))
    config = FeatureConfig(tuple(scope), threshold)
    dataset = Dataset(tasks, make_timeline(), records, grades)

    ours = build_feature_matrix(dataset, family, config, target)
    expected = reference_matrix(tasks, records, grades, family, config, target)
    assert ours.student_ids == expected.student_ids
    assert ours.column_names == expected.column_names
    assert ours.values.dtype == expected.values.dtype
    assert np.array_equal(ours.values, expected.values)
    with tempfile.TemporaryDirectory() as tmp:
        ours.to_csv(Path(tmp, "ours.csv"))
        expected.to_csv(Path(tmp, "expected.csv"))
        assert Path(tmp, "ours.csv").read_bytes() == Path(tmp, "expected.csv").read_bytes()

    cells = [
        np.hstack([cell(dataset, family, sid, t, threshold) for t in scope])
        for sid in dataset.student_ids
    ]
    assert np.array_equal(
        np.array(cells, dtype=float).reshape(expected.values.shape), expected.values
    )


@given(courses())
def test_best_submission_equals_the_frozen_max(course):
    # The best row has the most passes, ties to the latest: its outcomes are
    # each student's testcase_outcomes cell, all zeros without a submission.
    tasks, records, grades = course
    dataset = Dataset(tasks, make_timeline(), records, grades)
    by_pair = {}
    for record in records:
        by_pair.setdefault((record.student_id, record.task_id), []).append(record)
    for task in tasks:
        for sid in dataset.student_ids:
            rows = by_pair.get((sid, task.task_id), [])
            best = max(rows, key=lambda s: (s.passed_count, s.submitted_at), default=None)
            expected = [0.0] * task.testcase_count
            if best is not None:
                expected = [float(o is Outcome.PASSED) for o in best.outcomes]
            assert outcome_vector(dataset, sid, task.task_id).tolist() == expected

from datetime import timedelta

import numpy as np
import pytest

from gradecast.dataset import Dataset, GradeRecord
from gradecast.errors import ConfigError, ReferentialError
from gradecast.features import (
    FeatureConfig,
    build_feature_matrix,
    passing_rate,
    submission_count,
    submission_time_interval,
)
from gradecast.features import testcase_outcomes as outcome_vector

from conftest import MIDTERM, hours_before, make_task, make_timeline, sub


def test_passing_rate_is_m_over_n(small_dataset):
    assert passing_rate(small_dataset, "s1", "t1") == 1.0
    # s2's best on t1 is the late 3-of-4 submission
    assert passing_rate(small_dataset, "s2", "t1") == 0.75
    assert passing_rate(small_dataset, "s3", "t1") == 0.0
    with pytest.raises(ReferentialError):
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
    assert submission_time_interval(small_dataset, "s1", "t1") == pytest.approx(30.0)
    # threshold 1.0 requires the 10h-before full pass
    assert submission_time_interval(small_dataset, "s1", "t1", 1.0) == pytest.approx(10.0)


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

    assert submission_time_interval(ds, "s1", "t1") == pytest.approx(23.0)
    assert submission_time_interval(ds, "s2", "t1") == 0.0
    assert submission_time_interval(ds, "s3", "t1") == 0.0


def test_sti_monotone_in_threshold(small_dataset):
    thresholds = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    for sid in small_dataset.student_ids:
        for task in small_dataset.tasks:
            values = [
                submission_time_interval(small_dataset, sid, task.task_id, t)
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


def test_build_matrix_rejects_bad_scope(small_dataset):
    with pytest.raises(ConfigError):
        FeatureConfig(())
    with pytest.raises(ConfigError):
        build_feature_matrix(small_dataset, "sti", FeatureConfig(("t9",)))
    with pytest.raises(ConfigError):
        build_feature_matrix(small_dataset, "nope", FeatureConfig(("t1",)))


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

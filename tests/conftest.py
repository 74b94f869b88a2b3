from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import settings

from gradecast.dataset import (
    CourseTimeline,
    Dataset,
    GradeRecord,
    Outcome,
    SubmissionRecord,
    TaskSpec,
)


# Longer fuzzing for CI: pytest --hypothesis-profile=ci. Properties that set
# their own max_examples keep it.
settings.register_profile("ci", max_examples=1000)


def ts(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00")).astimezone(timezone.utc)


MIDTERM = ts("2016-10-24T12:00:00Z")
FINAL = ts("2016-12-15T09:00:00Z")


def make_timeline() -> CourseTimeline:
    return CourseTimeline(MIDTERM, FINAL, 110.0, 120.0)


def make_task(task_id: str, assignment: str, deadline: datetime, n_testcases: int) -> TaskSpec:
    return TaskSpec(
        task_id, assignment, deadline, tuple(f"tc{i + 1}" for i in range(n_testcases))
    )


def outcomes(pattern: str) -> tuple[Outcome, ...]:
    return tuple(Outcome(ch) for ch in pattern)


def sub(student: str, task: str, when: datetime, pattern: str) -> SubmissionRecord:
    return SubmissionRecord(student, task, when, outcomes(pattern))


def hours_before(deadline: datetime, hours: float) -> datetime:
    return deadline - timedelta(hours=hours)


@pytest.fixture
def timeline() -> CourseTimeline:
    return make_timeline()


@pytest.fixture
def small_dataset(timeline) -> Dataset:
    """Two tasks, three students; s1 is a strong early submitter, s2 a weak
    late one, s3 never submits."""
    d1 = MIDTERM - timedelta(days=20)
    d2 = MIDTERM - timedelta(days=10)
    tasks = [make_task("t1", "a0", d1, 4), make_task("t2", "a0", d2, 2)]
    submissions = [
        sub("s1", "t1", hours_before(d1, 50.0), "PFFF"),
        sub("s1", "t1", hours_before(d1, 30.0), "PPPF"),
        sub("s1", "t1", hours_before(d1, 10.0), "PPPP"),
        sub("s1", "t2", hours_before(d2, 40.0), "PP"),
        sub("s2", "t1", hours_before(d1, 2.0), "PFFF"),
        sub("s2", "t1", hours_before(d1, -3.0), "PPPF"),  # late
        sub("s2", "t2", hours_before(d2, 1.0), "PF"),
    ]
    grades = [
        GradeRecord("s1", 95.0, 100.0),
        GradeRecord("s2", 40.0, 45.0),
        GradeRecord("s3", 65.0, 70.0),
    ]
    return Dataset(tasks, timeline, submissions, grades)

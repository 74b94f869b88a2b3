"""Tests of the benchmark's own machinery: run with ``python -m pytest perfbench``."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import spans
import workloads
from cohort import CohortShape, generate, write_csv

TINY = CohortShape(students=40, assignments=3, tasks_per_assignment=2, testcases=4, resubmissions=2.0)


def _span(name, start, end, parent):
    return spans.Span(name, float(start), float(end), parent)


def test_self_time_subtracts_child_time():
    tree = [
        _span("bench.pass", 0, 10, -1),
        _span("evaluation.cross_validate[tree]", 1, 8, 0),
        _span("tree.train_tree", 2, 4, 1),
        _span("tree.train_tree", 4.5, 5, 1),
        _span("tree.predict_many", 6, 7, 1),
        _span("tables.confusion_text", 8.5, 9, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 7 - 0.5, 7 - 2 - 0.5 - 1, 2, 0.5, 1, 0.5])
    assert spans.subtree(tree, 1) == [1, 2, 3, 4]


def test_tracer_records_nested_calls_and_restores_the_originals():
    gc = SimpleNamespace(**{layer: __import__(f"gradecast.{layer}", fromlist=["_"]) for layer in spans.LAYERS})
    original = gc.tree.train_tree
    rng = np.random.default_rng(0)
    values = rng.random((30, 2))
    labels = np.array(["PP" if v < 0.4 else "GP" for v in values[:, 0]], dtype=object)
    matrix = gc.features.FeatureMatrix([f"s{i}" for i in range(30)], ["a", "b"], values, labels, "c")
    tracer = spans.Tracer()
    with tracer.installed(gc):
        with tracer.span("bench.pass"):
            gc.evaluation.cross_validate(matrix, "tree", 3, 0, "PP")
    assert gc.tree.train_tree is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["bench.pass", "evaluation.cross_validate[tree]", "tree.train_tree"]
    assert names.count("tree.train_tree") == 3
    cv = names.index("evaluation.cross_validate[tree]")
    assert all(s.parent == cv for s in tracer.spans if s.name == "tree.train_tree")
    assert [s.work for s in tracer.spans if s.name == "tree.train_tree"] == [20, 20, 20]


def test_generator_is_deterministic(tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for directory, seed in ((first, 7), (second, 7), (other, 8)):
        directory.mkdir()
        write_csv(generate(TINY, seed), directory)
    for name in ("tasks", "submissions", "grades"):
        assert (first / f"{name}.csv").read_bytes() == (second / f"{name}.csv").read_bytes()
    assert (first / "submissions.csv").read_bytes() != (other / "submissions.csv").read_bytes()


def test_class_sizes_do_not_depend_on_the_seed():
    sizes = set()
    for seed in range(4):
        cohort = generate(TINY, seed)
        grades = cohort.final[cohort.retained]
        sizes.add(((grades < 50).sum(), (grades > 80).sum(), len(grades)))
    assert len(sizes) == 1


@pytest.mark.parametrize("seed", [1, 2])
def test_oracle_matches_the_program_on_a_tiny_cohort(tmp_path, seed):
    from gradecast import dataset, features

    cohort = generate(TINY, seed)
    paths = write_csv(cohort, tmp_path)
    gc = SimpleNamespace(dataset=dataset)
    tl = workloads.timeline(gc)
    ds = dataset.load_dataset(paths["tasks"], paths["submissions"], paths["grades"], tl)
    ops = oracle.Ops()
    oracle.check_load_report(ops, cohort, ds.report)
    reference = oracle.FeatureOracle(cohort)
    scopes = [cohort.task_ids, cohort.task_ids[2:4], cohort.task_ids[:1]]
    for family in workloads.FAMILIES:
        for scope in scopes:
            for exam in workloads.EXAMS:
                config = features.FeatureConfig(tuple(scope))
                matrix = features.build_feature_matrix(ds, family, config, exam)
                oracle.check_matrix(ops, reference, family, scope, exam, matrix)
    assert ops.errors == []
    assert ops.attempted == 1 + len(workloads.FAMILIES) * len(scopes) * len(workloads.EXAMS)


def test_a_wrong_feature_value_fails_its_check():
    cohort = generate(TINY, 3)
    reference = oracle.FeatureOracle(cohort)
    names, values = reference.matrix("sti", cohort.task_ids)
    values = values.copy()
    values[0, 0] += 1.0
    matrix = SimpleNamespace(
        student_ids=reference.student_ids(), column_names=names, values=values,
        target=reference.target("final"),
    )
    ops = oracle.Ops()
    oracle.check_matrix(ops, reference, "sti", cohort.task_ids, "final", matrix)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_a_failure_is_counted_once_and_does_not_stop_the_run():
    import run

    def program_call():
        raise ValueError("bad input")

    ops = oracle.Ops()
    assert run.guarded(ops, "pass", lambda: ops(program_call)) is None
    assert run.guarded(ops, "checks", lambda: 1 / 0) is None
    assert run.guarded(ops, "pass", lambda: ops(len, "ok")) == 2
    assert (ops.attempted, ops.failed, len(ops.errors)) == (3, 2, 2)


def test_cold_setup_loads_the_course_in_a_child_process(tmp_path):
    import run

    gc = run.import_program()
    cohort = generate(TINY, 4)
    workload = workloads.WORKLOADS["assignment_report"]
    ctx = SimpleNamespace(
        workload=workload, paths=write_csv(cohort, tmp_path), timeline=workloads.timeline(gc), cohort=cohort
    )
    ops = oracle.Ops()
    assert run.timed_setup(ops, ctx) > 0
    assert (ops.attempted, ops.errors) == (2, [])


def test_normalised_time_scales_with_the_reference_kernel():
    import reference

    slow = reference.REFERENCE_S * 2
    assert reference.normalised(3.0, slow, slow) == pytest.approx(1.5)
    assert reference.normalised(3.0, reference.REFERENCE_S, slow) == pytest.approx(2.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_pass_checks_clean_on_a_small_cohort(tmp_path, name):
    import run

    workload = workloads.WORKLOADS[name]
    workload = dataclasses.replace(workload, shape=dataclasses.replace(workload.shape, students=60))
    cohort = generate(workload.shape, 5)
    paths = write_csv(cohort, tmp_path)
    gc = run.import_program()
    tl = workloads.timeline(gc)
    ops = oracle.Ops()
    ds = workloads.load(gc, ops, paths, tl) if workload.load_in_setup else None
    ctx = SimpleNamespace(
        workload=workload, seed=5, paths=paths, timeline=tl, dataset=ds,
        cohort=cohort, oracle=oracle.FeatureOracle(cohort),
    )
    tracer = spans.Tracer()
    with tracer.installed(gc):
        with tracer.span("bench.pass") as root:
            outputs = workloads.PASSES[name](gc, ops, ctx)
    workloads.check_pass(gc, ops, ctx, outputs)
    assert ops.errors == []
    assert {s.layer for s in tracer.spans} == {*spans.LAYERS, "bench"}
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(tracer.spans[root].duration)

"""Benchmark of the gradecast pipeline on deterministic synthetic courses.

    python3 perfbench/run.py --workload log_heavy --seed 1 --seconds 36 --trace 0

Run from the repository root. The run generates ``COURSES`` courses from
``--seed`` and writes each as the three CSV files under a temporary
directory in the repository. It imports ``gradecast`` from ``src/`` and,
after one untimed warm-up, repeats one analysis pass (see ``workloads.py``)
closed-loop in one thread for ``--seconds``, rotating through the courses
and timing a cold set-up in a child process ``SETUP_SAMPLES`` times on the
way. Every pass's outputs are checked against independent references
(``oracle.py``).

With ``--trace 0`` it reports the end-to-end metrics:

* ``run_s``: median time of one pass;
* ``setup_s``: median over the set-ups of the time from starting the
  ``gradecast`` import in a fresh interpreter (numpy's import included)
  until a pass can begin; on ``assignment_report`` this includes
  ``load_dataset``; course generation is not included;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

Both times are wall times normalised to the host's speed by a reference
kernel timed right before and after each of them (``reference.py``); the
raw wall times are printed too.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from spans around each layer's public functions
(``spans.py``). Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``failed / attempted`` is the failed-operation ratio.
"""

from __future__ import annotations

import os

# One thread, BLAS included; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracle
import reference
import spans
import workloads
from cohort import generate, write_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 16
# Courses drawn per run. Passes rotate through them, so that a run's median
# does not hang on how large one draw's trees happen to grow.
COURSES = 3


class ProgramMissing(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import every gradecast layer module from ``src/``."""
    try:
        modules = {layer: importlib.import_module(f"gradecast.{layer}") for layer in spans.LAYERS}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import gradecast from {SRC}: {exc}") from None
    origin = Path(modules["dataset"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"gradecast was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def timed_setup(ops, ctx) -> float | None:
    """Time one cold set-up in a fresh interpreter (``setup_child.py``): the
    ``gradecast`` import and, on workloads that count it as set-up, the
    dataset load. Returns the seconds, or None if the child failed."""
    command = [sys.executable, str(HERE / "setup_child.py"), str(SRC), ",".join(spans.LAYERS)]
    if ctx.workload.load_in_setup:
        tl = ctx.timeline
        command += [str(ctx.paths[name]) for name in ("tasks", "submissions", "grades")]
        command += [tl.midterm_date.isoformat(), tl.final_date.isoformat(), str(tl.final_max)]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    ops.check(f"set-up exits cleanly: {child.stderr.strip()[-300:]}", child.returncode == 0)
    if child.returncode != 0:
        return None
    result = json.loads(child.stdout)
    if ctx.workload.load_in_setup:
        oracle.check_load_report(ops, ctx.cohort, SimpleNamespace(**result["report"]))
    return result["seconds"]


def guarded(ops, label, fn, *args):
    """Call ``fn``; if it raises, count one failed operation and return None.

    A call into the program that raised has already been counted by ``ops``;
    anything else (the benchmark's own code) is counted here, so the run
    goes on and reports the failure instead of stopping.
    """
    failed = ops.failed
    try:
        return fn(*args)
    except Exception as exc:
        if ops.failed == failed:
            ops.check(f"{label} raised {exc!r}", False)
        return None


def one_pass(gc, ops, ctx, tracer=None):
    """Run and time one pass, traced when a tracer is given; returns
    (seconds, outputs or None if it raised, root span index or None)."""
    run = workloads.PASSES[ctx.workload.name]
    root = None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed(gc))
            root = stack.enter_context(tracer.span("bench.pass"))
        start = time.perf_counter()
        outputs = guarded(ops, "pass", run, gc, ops, ctx)
        seconds = time.perf_counter() - start
    return seconds, outputs, root


def bracketed(fn, *args):
    """Call ``fn`` between two timings of the reference kernel; returns
    (result, kernel seconds before, kernel seconds after)."""
    before = reference.seconds()
    result = fn(*args)
    return result, before, reference.seconds()


def digest(gc, ops, outputs, directory: Path) -> str:
    """SHA-256 over a pass's feature CSVs, tree JSON and table text."""
    h = hashlib.sha256()
    for i, (_family, _tasks, _exam, matrix) in enumerate(outputs.matrices):
        path = directory / f"features-{i}.csv"
        ops(matrix.to_csv, path)
        h.update(path.read_bytes())
    for step in outputs.trees:
        h.update(ops(gc.tree.to_json, step.model).encode())
    for text, _labels in outputs.tables:
        h.update(text.encode())
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _mean_defined(values):
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else 0.0


def layer_metrics(recorded, roots, outputs, load_report, smote_peak_bytes):
    """Per-layer metrics from the traced passes' spans and outputs."""
    self_time = spans.self_times(recorded)
    per_pass = []
    for root in roots:
        stats = {"count": {}, "duration": {}, "self": {}, "work": {}, "errors": {}}
        for i in spans.subtree(recorded, root):
            s = recorded[i]
            for name in {s.name, s.function}:
                stats["count"][name] = stats["count"].get(name, 0) + 1
                stats["duration"][name] = stats["duration"].get(name, 0.0) + s.duration
                stats["self"][name] = stats["self"].get(name, 0.0) + self_time[i]
                stats["work"][name] = stats["work"].get(name, 0) + s.work
            stats["self"][s.layer] = stats["self"].get(s.layer, 0.0) + self_time[i]
            if s.error:
                stats["errors"][(s.function, s.error)] = stats["errors"].get((s.function, s.error), 0) + 1
        per_pass.append(stats)

    def med(kind, name):
        return _median([p[kind].get(name, 0) for p in per_pass])

    def rate(name):
        return _median([
            p["work"].get(name, 0) / p["duration"][name] for p in per_pass if p["duration"].get(name)
        ])

    loads = [s for s in recorded if s.function == "dataset.load_dataset"]
    load_s = _median([s.duration for s in loads])
    trees = [oracle.tree_shape(step.model.root) for step in outputs.trees]
    m = {
        "dataset.load_s": metric(load_s, "s"),
        "dataset.submissions_per_s": metric(
            sum(s.work for s in loads) / sum(s.duration for s in loads), "1/s"
        ),
        "dataset.submissions_read": metric(load_report.submissions_read, "count"),
        "dataset.submissions_dropped": metric(load_report.submissions_dropped, "count"),
        "dataset.students_excluded": metric(len(load_report.excluded_students), "count"),
    }
    for family in workloads.FAMILIES:
        m[f"features.{family}_s"] = metric(
            med("duration", f"features.build_feature_matrix[{family}]"), "s"
        )
    m["features.calls"] = metric(med("count", "features.build_feature_matrix"), "count")
    m["features.cells_per_s"] = metric(rate("features.build_feature_matrix"), "1/s")
    m["labeling.categorize_s"] = metric(med("duration", "labeling.categorize_all"), "s")
    m["labeling.split_s"] = metric(med("duration", "labeling.split"), "s")
    m["smote.oversample_s"] = metric(med("duration", "smote.oversample"), "s")
    m["smote.synthetic_rows"] = metric(med("work", "smote.oversample"), "count")
    m["smote.peak_alloc_mb"] = metric(smote_peak_bytes / 2**20, "MB")
    m["tree.train_s"] = metric(med("duration", "tree.train_tree"), "s")
    m["tree.train_calls"] = metric(med("count", "tree.train_tree"), "count")
    m["tree.rows_trained_per_s"] = metric(rate("tree.train_tree"), "1/s")
    m["tree.nodes"] = metric(sum(n for n, _ in trees), "count")
    m["tree.depth"] = metric(max(d for _, d in trees), "count")
    m["tree.predict_s"] = metric(med("duration", "tree.predict_many"), "s")
    m["tree.rows_predicted_per_s"] = metric(rate("tree.predict_many"), "1/s")
    m["evaluation.cv_tree_s"] = metric(med("duration", "evaluation.cross_validate[tree]"), "s")
    m["evaluation.cv_tree_self_s"] = metric(med("self", "evaluation.cross_validate[tree]"), "s")
    m["evaluation.cv_regression_s"] = metric(
        med("duration", "evaluation.cross_validate[regression]"), "s"
    )
    m["evaluation.cv_pp_f_measure"] = metric(
        _mean_defined([cv.f_measure for cv in outputs.cv_tree]), "ratio"
    )
    m["evaluation.cv_regression_correlation"] = metric(
        _mean_defined([cv.correlation for cv in outputs.cv_regression]), "ratio"
    )
    m["regress.fit_transformed_s"] = metric(med("duration", "regress.fit_transformed"), "s")
    m["regress.fit_calls"] = metric(med("count", "regress.fit_least_squares"), "count")
    m["regress.lambda"] = metric(
        _mean_defined([fit.model.transform.lam for fit in outputs.fits]), "1"
    )
    m["regress.predict_grades_s"] = metric(med("duration", "regress.predict_grades"), "s")
    m["regress.clamped_predictions"] = metric(
        sum(int(np.sum(fit.clamped)) for fit in outputs.fits), "count"
    )
    m["regress.singular_fits"] = metric(
        _median([p["errors"].get(("regress.fit_least_squares", "SingularityError"), 0) for p in per_pass]),
        "count",
    )
    m["tables.render_s"] = metric(
        _median([sum(p["duration"].get(f"tables.{f}", 0.0) for f in spans.WRAPPED["tables"])
                 for p in per_pass]),
        "s",
    )
    for layer in (*spans.LAYERS, "bench"):
        m[f"{layer}.self_s"] = metric(med("self", layer), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gradecast").is_dir():
        print(f"error: no gradecast package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    ops = oracle.Ops()
    tracer = spans.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        tmp = Path(tmp)
        try:
            gc = import_program()
        except ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        courses = []
        for k in range(COURSES):
            cohort = generate(workload.shape, [args.seed, k])
            (tmp / str(k)).mkdir()
            ctx = SimpleNamespace(
                workload=workload, seed=args.seed, paths=write_csv(cohort, tmp / str(k)),
                timeline=workloads.timeline(gc), dataset=None, cohort=cohort,
                oracle=oracle.FeatureOracle(cohort),
            )
            if workload.load_in_setup:
                with tracer.installed(gc) if tracer is not None else contextlib.nullcontext():
                    ctx.dataset = guarded(ops, "load", workloads.load, gc, ops, ctx.paths, ctx.timeline)
                if ctx.dataset is not None:
                    oracle.check_load_report(ops, cohort, ctx.dataset.report)
            courses.append(ctx)

        # The first pass is an untimed warm-up that fills caches and pays
        # one-off first-call costs. Cold set-up is timed SETUP_SAMPLES times
        # in child processes, at most once between two passes and spread
        # evenly over the run, so that it meets the same host conditions as
        # the passes. The reference kernel is timed right before and after
        # each pass and set-up (see reference.py).
        setup_wall, setup_norm, untraced, untraced_norm, traced, roots = [], [], [], [], [], []
        kernel, outputs_of = [], {}
        passes, start = 0, None
        while start is None or time.perf_counter() < start + args.seconds or (
            tracer is not None and not traced
        ):
            if start is not None and len(setup_wall) < SETUP_SAMPLES and (
                time.perf_counter() - start >= len(setup_wall) * args.seconds / SETUP_SAMPLES
            ):
                seconds, before, after = bracketed(guarded, ops, "set-up", timed_setup, ops, courses[0])
                kernel += [before, after]
                if seconds is None:
                    break
                setup_wall.append(seconds)
                setup_norm.append(reference.normalised(seconds, before, after))
            use_tracer = tracer if start is not None and len(untraced) > len(traced) else None
            course = passes % COURSES
            ctx = courses[course]
            passes += 1
            (seconds, outputs, root), before, after = bracketed(one_pass, gc, ops, ctx, use_tracer)
            kernel += [before, after]
            if outputs is not None:
                guarded(ops, "checks", workloads.check_pass, gc, ops, ctx, outputs)
                outputs_of[course] = outputs
            if start is None:
                start = time.perf_counter()
            elif use_tracer is None:
                untraced.append(seconds)
                untraced_norm.append(reference.normalised(seconds, before, after))
            else:
                traced.append(seconds)
                roots.append(root)

        if 0 not in outputs_of or not setup_wall or not untraced:
            print("error: every pass of course 0, every timed pass or a set-up failed:",
                  *ops.errors[:10], sep="\n", file=sys.stderr)
            return 1
        # Counts, quality values and the digest come from course 0, so that
        # they do not depend on how many passes fit in the run.
        last = outputs_of[0]
        result_digest = guarded(ops, "digest", digest, gc, ops, last, tmp)
        smote_peak = 0
        if tracer is not None:
            for step in last.trees:
                tracemalloc.start()
                guarded(ops, "oversample", ops, gc.smote.oversample, step.train,
                        gc.smote.SmoteConfig(seed=args.seed))
                smote_peak = max(smote_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q1, run_s, q3 = quartiles(untraced_norm)
    s1, setup_s, s3 = quartiles(setup_norm)
    w1, wall_run_s, w3 = quartiles(untraced)
    v1, wall_setup_s, v3 = quartiles(setup_wall)
    kernel_s = statistics.median(kernel)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("times are normalised to a reference kernel time of "
          f"{reference.REFERENCE_S * 1000:.0f} ms; the kernel's median here was {kernel_s * 1000:.1f} ms")
    print(f"run_s        {run_s:.4f} s median  q1 {q1:.4f}  q3 {q3:.4f}  n={len(untraced)}")
    print(f"setup_s      {setup_s:.4f} s median  q1 {s1:.4f}  q3 {s3:.4f}  n={len(setup_wall)}")
    print(f"wall run_s   {wall_run_s:.4f} s median  q1 {w1:.4f}  q3 {w3:.4f}")
    print(f"wall setup_s {wall_setup_s:.4f} s median  q1 {v1:.4f}  q3 {v3:.4f}")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"failed_ratio {ops.failed / max(ops.attempted, 1):.6f}  ({ops.failed} of {ops.attempted} operations)")
    print(f"digest       {result_digest}")
    for error in ops.errors[:10]:
        print(f"FAILED       {error}")

    if tracer is None:
        metrics = {
            "run_s": metric(run_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        report = courses[0].dataset.report if courses[0].dataset is not None else last.report
        metrics = layer_metrics(tracer.spans, roots, last, report, smote_peak)
        traced_run_s = statistics.median(traced)
        metrics["trace.run_s"] = metric(traced_run_s, "s")
        metrics["trace.overhead_s"] = metric(traced_run_s - wall_run_s, "s")
        metrics["wall.run_s"] = metric(wall_run_s, "s")
        metrics["wall.setup_s"] = metric(wall_setup_s, "s")
        metrics["reference.kernel_s"] = metric(kernel_s, "s")
        shares = {
            layer: metrics[f"{layer}.self_s"]["value"] / traced_run_s
            for layer in (*spans.LAYERS, "bench")
        }
        print(f"traced run_s {traced_run_s:.4f} s median  n={len(traced)}  "
              f"overhead {traced_run_s - wall_run_s:+.4f} s")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  self {layer:<11s} {metrics[f'{layer}.self_s']['value']:.4f} s  {share:6.1%}")
        print(f"  sum of self times / traced run_s = {sum(shares.values()):.3f}")
        dominant = max(spans.LAYERS, key=shares.get)
        verdict = "matches" if dominant == workload.predicted_dominant else "DOES NOT MATCH"
        print(f"dominant layer {dominant} {verdict} the prediction {workload.predicted_dominant}")
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-{args.seed}.json"
        spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]))
        print(f"spans        {spans_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

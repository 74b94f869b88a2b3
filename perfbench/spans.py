"""Spans around the public functions of each ``gradecast`` layer.

``Tracer.installed(program)`` replaces each function listed in ``WRAPPED``
with a wrapper at its module attribute and restores the originals on exit.
Package code looks these names up at call time (``tree.train_tree`` inside
``evaluation.cross_validate``, ``fit_least_squares`` inside
``fit_transformed``), so nested calls are recorded as child spans.

Per-row and per-cell helpers (``predict_tree``, ``predict_grade``,
``passing_rate``, ``best_submission``, ...) are deliberately not wrapped:
they run thousands of times per pass, so a wrapper would distort the
timings it reports. Their time is the self time of the span that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

# layer -> public functions wrapped in that layer's module.
WRAPPED = {
    "dataset": ("load_dataset", "tasks_before"),
    "features": ("build_feature_matrix",),
    "labeling": ("categorize_all", "split"),
    "smote": ("oversample",),
    "tree": ("train_tree", "predict_many", "to_json", "from_json"),
    "regress": (
        "fit_least_squares",
        "fit_transformed",
        "diagnostics",
        "suggest_power",
        "predict_grades",
    ),
    "evaluation": (
        "cross_validate",
        "confusion",
        "class_metrics",
        "pearson",
        "regression_report",
    ),
    "tables": (
        "confusion_text",
        "metrics_table_text",
        "assignment_table_text",
        "regression_report_text",
    ),
}
LAYERS = tuple(WRAPPED)

# Spans of these functions are named after one argument, e.g.
# "features.build_feature_matrix[sti]": (positional index, keyword).
_TAG_ARGUMENT = {
    "features.build_feature_matrix": (1, "family"),
    "evaluation.cross_validate": (1, "model_kind"),
}


# Work each call did, in the unit its layer's rate metric uses.
_WORK = {
    "dataset.load_dataset": lambda args, result: result.report.submissions_read,
    "features.build_feature_matrix": lambda args, result: result.values.size,
    "tree.train_tree": lambda args, result: args[0].n_rows,
    "tree.predict_many": lambda args, result: len(args[1]),
    "smote.oversample": lambda args, result: result.n_rows - args[0].n_rows,
    "regress.predict_grades": lambda args, result: len(args[1]),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    work: int = 0
    error: str | None = None  # exception class name when the call raised

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def function(self) -> str:
        """Qualified function name without the argument tag."""
        return self.name.split("[", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def _wrap(self, qualified: str, fn):
        tag = _TAG_ARGUMENT.get(qualified)
        work = _WORK.get(qualified)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = qualified
            if tag is not None:
                position, keyword = tag
                value = args[position] if len(args) > position else kwargs.get(keyword)
                name = f"{qualified}[{value}]"
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].error = type(exc).__name__
                raise
            finally:
                self.end(index)
            if work is not None:
                self.spans[index].work = int(work(args, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, program):
        """Wrap every ``WRAPPED`` function of ``program``, a namespace holding
        the ``gradecast`` layer modules by layer name, until the block exits."""
        saved = []
        try:
            for layer, names in WRAPPED.items():
                module = getattr(program, layer)
                for name in names:
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self._wrap(f"{layer}.{name}", original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The tracer keeps open spans on a stack, so a span's children are
    disjoint and lie inside it.
    """
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)

"""One cold set-up of the program, timed in a fresh interpreter.

    python3 perfbench/setup_child.py SRC LAYER,LAYER,... [TASKS SUBMISSIONS GRADES MIDTERM FINAL EXAM_MAX]

Times importing every listed ``gradecast`` layer from ``SRC`` (numpy and the
other dependencies included, since nothing is imported before the clock
starts) and, when the CSV paths and exam dates are given, one
``load_dataset`` of the three files. Prints one JSON object: the seconds
taken and, after a load, the ``LoadReport`` counts so the caller can check
them.
"""

import time

start = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv):
    src, layers, *load = argv
    sys.path.insert(0, src)
    modules = {layer: importlib.import_module(f"gradecast.{layer}") for layer in layers.split(",")}
    report = None
    if load:
        from datetime import datetime

        tasks, submissions, grades, midterm, final, exam_max = load
        dataset = modules["dataset"]
        timeline = dataset.CourseTimeline(
            datetime.fromisoformat(midterm), datetime.fromisoformat(final), float(exam_max), float(exam_max)
        )
        report = dataset.load_dataset(tasks, submissions, grades, timeline).report
    seconds = time.perf_counter() - start
    result = {"seconds": seconds}
    if report is not None:
        result["report"] = vars(report)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

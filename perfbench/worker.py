"""One measured pass of a benchmark workload, in a fresh interpreter.

Run by `run.py` as ``python3 perfbench/worker.py`` with ``src`` on
PYTHONPATH and a JSON payload on stdin::

    {"requests": [...], "trace": false, "oracle": false, "spans_out": null,
     "calibrator": [write_fd, read_fd], "cpu": 0}

The worker times ``import stemsize.cli`` before importing anything else,
runs every request once in order, checks each stdout digest and exit code
against the pinned values (and, with ``oracle``, each DSL Hilbert series
against `algebra.oracle_hilbert`), and prints one JSON object on stdout.
Between requests it asks the calibrator (`calibrate.py`, a separate
interpreter whose pipes it inherits and which is bound to CPU ``cpu``) to
time the reference task.
"""

import sys
import time

# Calibrate again once the requests since the last calibration used this
# much CPU: the host's speed changes within a second.
CALIBRATE_EVERY_S = 0.05


def main() -> int:
    start = time.thread_time()
    import stemsize.cli  # the timed import: what a CLI user waits for

    import_s = time.thread_time() - start

    import contextlib
    import hashlib
    import importlib
    import io
    import json
    import os
    import resource

    from stemsize import algebra, ehp
    from stemsize.series import TruncatedSeries

    payload = json.load(sys.stdin)
    requests = payload["requests"]
    tracer = None
    if payload["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = stemsize.cli.main  # read after install, so it is the traced one

    # Run on the calibrator's CPU, so both see the same speed.  Only this
    # thread moves, after the import, so numpy's threads start as usual.
    os.sched_setaffinity(0, {payload["cpu"]})
    to_calibrator = os.fdopen(payload["calibrator"][0], "w")
    from_calibrator = os.fdopen(payload["calibrator"][1], "r")

    def calibrate() -> float:
        to_calibrator.write("\n")
        to_calibrator.flush()
        return float(from_calibrator.readline())

    def execute(req):
        if "api" in req:
            name, *args = req["api"]
            module, _, fn = name.rpartition(".")
            result = getattr(importlib.import_module(f"stemsize.{module}"), fn)(*args)
            return result.to_json(), 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(req["argv"])
        return out.getvalue(), rc

    # CPU time of the main thread, the one a CLI user waits for: on a shared
    # host the wall clock also counts time given to other guests, and process
    # time counts numpy's BLAS threads spinning on an idle core.
    clock = time.thread_time
    calibration = [calibrate()]
    since_calibration = 0.0
    calibrated_before = []  # index of the last calibration before each request
    latencies = []
    failures = []
    oracle_outputs = []
    wall_start = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        calibrated_before.append(len(calibration) - 1)
        t0 = clock()
        try:
            text, rc = execute(req)
        except Exception as exc:  # an unexpected exception is a failed request
            text, rc = "", f"raised {type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        since_calibration += latencies[-1]
        if since_calibration >= CALIBRATE_EVERY_S:
            calibration.append(calibrate())
            since_calibration = 0.0
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != req["sha256"] or rc != req["rc"]:
            failures.append({"id": req["id"], "rc": rc, "want_rc": req["rc"],
                             "sha256": digest, "want_sha256": req["sha256"]})
        elif payload["oracle"] and "oracle" in req:
            oracle_outputs.append((req, text))
    wall_s = time.perf_counter() - wall_start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration.append(calibrate())

    result = {
        "import_s": import_s,
        "latencies": latencies,
        "cpu_s": sum(latencies),
        "wall_s": wall_s,
        "calibration_s": calibration,
        "calibrated_before": calibrated_before,
        "rss_kb": rss_kb,
        "stemsize": os.path.abspath(stemsize.cli.__file__),
    }
    if tracer is not None:
        mark = len(tracer.spans)
        result["times"] = tracer.times(0, mark)
        result["counts"] = tracer.counters(ehp)
        tracer.request = -1

    for req, text in oracle_outputs:
        spec = req["oracle"]
        want = algebra.oracle_hilbert(algebra.parse_spec(spec["spec"]), spec["n"])
        if spec["cumulative"]:
            want = want.cumulative()
        if spec["format"] == "json":
            got = TruncatedSeries.from_json(text)
        else:
            got = TruncatedSeries(int(line.split(",")[1]) for line in text.splitlines())
        if got != want:
            failures.append({"id": req["id"], "oracle": "mismatch"})
    result["oracle_checked"] = len(oracle_outputs)
    result["failures"] = failures

    if tracer is not None:
        result["times"]["algebra.oracle_s"] = tracer.times(mark)["algebra.oracle_s"]
        if payload["spans_out"]:
            with open(payload["spans_out"], "w", encoding="utf-8") as fh:
                json.dump({"requests": [r["id"] for r in requests],
                           "fields": ["name", "request", "parent", "start", "end"],
                           "spans": tracer.spans}, fh)

    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

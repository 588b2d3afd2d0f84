"""The stemsize benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed picks the run's request
list from the workload's pinned pool (see `workloads.py`).  The run then
repeats passes over that list until `--seconds` have gone by: each pass is
a fresh interpreter (`worker.py`) that imports ``stemsize.cli`` from
``src/`` and sends the requests one after another, as a CLI user would,
so no pass sees another pass's caches.  Every output is checked against
the digest and exit code pinned from a known-good commit.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` passes alternate between untraced and traced
(`tracer.py`) and the last line reports the per-layer metrics instead.
The line before it records the machine, the Python version and the run's
sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
TRACEDIR = os.path.join(HERE, ".trace")

# Every time metric is main-thread CPU time scaled to a nominal machine
# speed at which calibrate.calibrate() takes CALIBRATION_NOMINAL_S: on a
# shared virtual machine the host's speed can swing by half within a
# second, and the scale, taken around each request, cancels most of that.
CALIBRATION_NOMINAL_S = 0.015
CPU = min(os.sched_getaffinity(0))
SETUP_REPEATS = 5
MIN_PASSES = 3  # per mode, so every median has at least three samples
WORKER_TIMEOUT_S = 60  # a pass takes seconds; a run must end within minutes

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


@contextlib.contextmanager
def calibrator():
    """The speed reference of a run: `calibrate.py` in its own interpreter,
    which never imports the program, so the program's state cannot move it."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "calibrate.py"), str(CPU)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=HERE, text=True)
    try:
        yield proc
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()


def run_worker(requests: list[dict], cal: subprocess.Popen, *, trace: bool,
               oracle: bool, spans_out: str | None = None) -> dict:
    """One pass in a fresh interpreter, timed against the calibrator `cal`;
    returns the worker's report."""
    env = dict(os.environ, PYTHONPATH=SRC)
    fds = (cal.stdin.fileno(), cal.stdout.fileno())
    payload = json.dumps({"requests": requests, "trace": trace, "oracle": oracle,
                          "spans_out": spans_out, "calibrator": fds, "cpu": CPU})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=payload, capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=WORKER_TIMEOUT_S, pass_fds=fds,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if os.path.dirname(os.path.dirname(os.path.realpath(report["stemsize"]))) != \
            os.path.realpath(SRC):
        raise RuntimeError(f"worker imported stemsize from {report['stemsize']}")
    return report


def make_inputs(workload: str, seed: int, workdir: str) -> tuple[list[dict], list[float]]:
    """The run's requests, generated SETUP_REPEATS times to time input set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.thread_time()
        requests = workloads.make_inputs(workload, seed, workdir)
        times.append(time.thread_time() - start)
    return requests, times


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run passes for `seconds` (at least MIN_PASSES per mode) and summarize."""
    workdir = os.path.join(WORKDIR, f"{workload}-{os.getpid()}")
    try:
        requests, inputs_s = make_inputs(workload, seed, workdir)
        # Compile the bytecode cache once, so no pass pays for it.
        subprocess.run([sys.executable, "-c", "import stemsize.cli"], cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=SRC), check=True,
                       timeout=WORKER_TIMEOUT_S)
        spans_out = None
        if trace:
            os.makedirs(TRACEDIR, exist_ok=True)
            spans_out = os.path.join(TRACEDIR, f"{workload}-seed{seed}.json")
        modes = (False, True) if trace else (False,)
        reports = {mode: [] for mode in modes}
        with calibrator() as cal:
            start = time.monotonic()
            i = 0
            while (time.monotonic() - start < seconds
                   or any(len(r) < MIN_PASSES for r in reports.values())):
                mode = modes[i % len(modes)]
                first = not reports[mode]  # checks the oracle and writes the spans
                reports[mode].append(run_worker(
                    requests, cal, trace=mode, oracle=first,
                    spans_out=spans_out if mode and first else None))
                i += 1
            elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(),
        "requests_per_pass": len(requests),
        "passes": {("traced" if m else "untraced"): len(r) for m, r in reports.items()},
        "elapsed_s": elapsed,
    }
    return info, summarize(reports, inputs_s, info)


def apply_calibration(report: dict) -> None:
    """Scale a pass's times in place to the nominal speed: each request by
    the mean of the calibrations just before and after it, the import by
    the first calibration, and layer times by the pass's overall factor."""
    cal = report["calibration_s"]
    raw = report["latencies"]
    report["latencies"] = [
        x * 2.0 * CALIBRATION_NOMINAL_S / (cal[k] + cal[k + 1])
        for x, k in zip(raw, report["calibrated_before"])]
    report["unscaled_cpu_s"] = report["cpu_s"]
    report["cpu_s"] = sum(report["latencies"])
    report["scale"] = report["cpu_s"] / report["unscaled_cpu_s"]
    report["import_s"] *= CALIBRATION_NOMINAL_S / cal[0]
    for name in report.get("times", {}):
        report["times"][name] *= report["scale"]


def summarize(reports: dict[bool, list[dict]], inputs_s: list[float], info: dict) -> dict:
    """The result line from the passes' reports; adds diagnostics to `info`."""
    every = [r for rs in reports.values() for r in rs]
    plain = reports[False]
    failures = [f for r in every for f in r["failures"]]
    for f in failures[:5]:
        sys.stderr.write(f"perfbench: failed request {json.dumps(f)}\n")

    for r in every:
        apply_calibration(r)
    scale = statistics.median(r["scale"] for r in every)
    import_s = statistics.median(r["import_s"] for r in every)
    inputs_s = statistics.median(inputs_s) * scale
    latencies_ms = [[x * 1000.0 for x in r["latencies"]] for r in plain]
    plain_cpu = statistics.median(r["cpu_s"] for r in plain)
    if True in reports:
        traced = reports[True]
        values = {name: statistics.median(r["times"][name] for r in traced)
                  for name in traced[0]["times"]}
        values["algebra.oracle_s"] = traced[0]["times"]["algebra.oracle_s"]
        values["setup.import_s"] = import_s
        values["setup.inputs_s"] = inputs_s
        # The counters are exact: a pass that counts differently is a fault.
        counters_repeat = all(r["counts"] == traced[0]["counts"] for r in traced)
        if not counters_repeat:
            sys.stderr.write("perfbench: counters differ between traced passes\n")
        values.update(traced[0]["counts"])
        values["trace.overhead_frac"] = (
            statistics.median(r["cpu_s"] for r in traced) / plain_cpu - 1.0)
        units = PER_LAYER
    else:
        counters_repeat = True
        values = {
            "setup_s": import_s + inputs_s,
            "pass_cpu_s": plain_cpu,
            # A pass is one cold user session: take its percentiles, then
            # the median over passes, which a single slow pass cannot move.
            "req_cpu_p50_ms": statistics.median(map(statistics.median, latencies_ms)),
            "req_cpu_p90_ms": statistics.median(
                statistics.quantiles(ms, n=10)[8] for ms in latencies_ms),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in plain) / 1024.0,
        }
        units = END_TO_END
    info.update({
        "latency_samples": sum(map(len, latencies_ms)),
        "scale": scale,
        "unscaled_pass_cpu_s": statistics.median(r["unscaled_cpu_s"] for r in plain),
        "pass_wall_s": [round(r["wall_s"], 4) for r in plain],
        "oracle_checked": sum(r["oracle_checked"] for r in every),
    })
    return {
        "correct": not failures and counters_repeat,
        "attempted": sum(len(r["latencies"]) for r in every),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stemsize", "cli.py")):
        sys.stderr.write(f"perfbench: no stemsize sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

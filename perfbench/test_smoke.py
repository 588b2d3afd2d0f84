"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench

They check that every metric named in BENCHMARK.json is printed with its
unit, that the digest check fires on a corrupted output, that counters
which differ between traced passes fail the run, that the same seed gives
the same inputs, and that the benchmark refuses to run without the
program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
LOAD_POOL = workloads.load_pool


def _benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_pool(name: str) -> list[dict]:
    """One variant of each of the first strata: a pass of a few requests."""
    return [dict(s, pick=1, variants=s["variants"][:1])
            for s in LOAD_POOL(name)[:4]]


def test_layer_map_names_known_metrics():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(run.HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    assert set(layers["layers"]) == set(run.PER_LAYER)
    for entry in layers["layers"].values():
        for workload, metrics in entry["moves"].items():
            assert workload in workloads.WORKLOADS
            assert set(metrics) <= set(run.END_TO_END)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    pool = workloads.load_pool(name)
    first = workloads.select(pool, 11)
    assert first == workloads.select(workloads.load_pool(name), 11)
    assert first != workloads.select(pool, 12)
    assert len(first) == sum(s["pick"] for s in pool)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(monkeypatch, trace):
    monkeypatch.setattr(workloads, "load_pool", _tiny_pool)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    info, result = run.measure("cli_mix", 5, 0.0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    assert info["machine"]["python"] and info["machine"]["nproc"]


def test_counters_that_differ_between_passes_fail_the_run():
    def report(count):
        return {"failures": [], "latencies": [0.01], "cpu_s": 0.01, "wall_s": 0.01,
                "calibration_s": [0.015, 0.015], "calibrated_before": [0],
                "import_s": 0.1, "rss_kb": 1024, "oracle_checked": 0,
                "times": dict.fromkeys(run.PER_LAYER, 0.0),
                "counts": {"ehp.sequences": count}}

    info = {}
    steady = run.summarize({False: [report(0)], True: [report(5), report(5)]}, [0.01], info)
    drift = run.summarize({False: [report(0)], True: [report(5), report(6)]}, [0.01], info)
    assert steady["correct"] and not drift["correct"]


def test_digest_check_fires_on_corrupted_output():
    pool = workloads.load_pool("cli_mix")
    dsl = [r for s in pool if s["name"].startswith("hilbert") for r in s["variants"]][:2]
    errors = [r for s in pool if s["name"].startswith("errors") for r in s["variants"]][:1]
    workdir = os.path.join(run.WORKDIR, "smoke-digest")
    try:
        with run.calibrator() as cal:
            requests = workloads.materialize(dsl + errors, workdir)
            clean = run.run_worker(requests, cal, trace=False, oracle=True)
            assert clean["failures"] == [] and clean["oracle_checked"] == 2

            # A wrong pinned digest, a wrong pinned exit code, and an input file
            # changed after pinning, so the program's output itself differs.
            requests[0] = dict(requests[0], sha256="0" * 64)
            requests[2] = dict(requests[2], rc=0)
            spec_path = requests[1]["argv"][requests[1]["argv"].index("--spec") + 1]
            with open(spec_path, "a", encoding="utf-8") as fh:
                fh.write("gen poly deg = 1\n")
            report = run.run_worker(requests, cal, trace=False, oracle=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert sorted(f["id"] for f in report["failures"]) == sorted(r["id"] for r in requests)


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.WORKDIR, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", ".trace", "__pycache__"))
        shutil.copy(BENCHMARK, bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Pin the expected output of every pool request from the current program.

    python3 perfbench/pin.py [WORKLOAD ...]

Builds each workload's request pool (`workloads.build_pool`), runs every
request once through `worker.py`, and writes ``pinned/<workload>.json``
with the SHA-256 of the request's stdout and its exit code.  It then runs
the pinned pool twice more, once with the oracle cross-check, fails on
any mismatch, and bands each stratum by the median calibrated CPU cost of
its variants over the three passes (see `band`).  Re-pin only from a
commit whose outputs are known to be right: the benchmark counts every
later difference as a failed request.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import statistics
import sys

import run
import workloads

# Exit codes each stratum may pin: 2 is the documented honest FAIL line of
# `verify --suite ehp`; the error strata must end in their exit code.
ALLOWED_RC = {"errors_exit1": {1}, "errors_exit3": {3}, "verify_ehp": {2}}


def _dumps(name: str, strata: list[dict]) -> str:
    """The pinned file, one request per line so that diffs stay readable."""
    blocks = []
    for stratum in strata:
        variants = ",\n".join(json.dumps(req, sort_keys=True)
                              for req in stratum["variants"])
        blocks.append(f'{{"name": {json.dumps(stratum["name"])}, '
                      f'"pick": {stratum["pick"]}, "variants": [\n{variants}\n]}}')
    return (f'{{"workload": {json.dumps(name)},\n"strata": [\n'
            + ",\n".join(blocks) + "\n]}\n")


def pin(name: str) -> None:
    strata = workloads.build_pool(name)
    pool = [req for stratum in strata for req in stratum["variants"]]
    workdir = os.path.join(run.WORKDIR, f"pin-{name}")
    try:
        with run.calibrator() as cal:
            requests = workloads.materialize(
                [dict(req, sha256="", rc=None) for req in pool], workdir)
            report = run.run_worker(requests, cal, trace=False, oracle=False)
            got = {f["id"]: f for f in report["failures"]}
            for req in pool:
                req["sha256"] = got[req["id"]]["sha256"]
                req["rc"] = got[req["id"]]["rc"]
            rcs = collections.Counter()
            for stratum in strata:
                allowed = ALLOWED_RC.get(stratum["name"], {0})
                for req in stratum["variants"]:
                    rcs[req["rc"]] += 1
                    if req["rc"] not in allowed:
                        raise SystemExit(f"{req['id']}: exit {req['rc']!r} not in {allowed}")
            pinned = workloads.materialize(pool, workdir)
            check = run.run_worker(pinned, cal, trace=False, oracle=True)
            extra = run.run_worker(pinned, cal, trace=False, oracle=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if check["failures"] or extra["failures"]:
        raise SystemExit(f"{name}: pinned pool does not reproduce: {check['failures'][:3]}")
    for r in (report, check, extra):
        run.apply_calibration(r)
    cost = {req["id"]: statistics.median(times) for req, *times in
            zip(pool, report["latencies"], check["latencies"], extra["latencies"])}
    banded = band(strata, cost)
    path = os.path.join(workloads.PINNED_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(name, banded))
    print(f"{name}: {len(pool)} requests pinned in {len(banded)} strata, exit codes "
          f"{dict(rcs)}, {check['oracle_checked']} oracle checks, pool pass "
          f"{check['cpu_s']:.2f} s at nominal speed")


def band(strata: list[dict], cost: dict[str, float]) -> list[dict]:
    """Split a stratum that picks k variants into k strata that pick one,
    each a band of variants of neighbouring measured CPU cost, so every seed
    draws the same mix of cheap and dear requests."""
    out = []
    for stratum in strata:
        k = stratum["pick"]
        if k == 1:
            out.append(stratum)
            continue
        ranked = sorted(stratum["variants"], key=lambda req: cost[req["id"]])
        n = len(ranked)
        out += [{"name": f"{stratum['name']}.{b:03d}", "pick": 1,
                 "variants": ranked[b * n // k:(b + 1) * n // k]} for b in range(k)]
    return out


def main() -> int:
    sys.path.insert(0, run.SRC)  # the pool filters call the library
    for name in sys.argv[1:] or workloads.WORKLOADS:
        pin(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())

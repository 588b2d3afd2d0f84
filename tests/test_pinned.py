"""Replay the benchmark's pinned requests in process.

`perfbench/pinned/<workload>.json` pins the stdout SHA-256 and exit code of
every request the benchmark may run.  This test reads those files without
changing them and replays every request except the `verify` self-checks
(covered by `test_golden.py` and the CLI determinism tests): each `cli_mix`
stratum but `verify_*`, and the `s_k_profile_*` and `cover_*` strata (but
`cover_verify`) of the other two workloads.  Their heavy strata are left to
the benchmark itself.
"""

import contextlib
import hashlib
import importlib
import io
import json
import pathlib

import pytest

from stemsize import cli

PINNED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pinned"
WORKLOADS = ("cli_mix", "chain_bracket", "generic_fold")


def _replayed(strata: list[dict], workload: str) -> list[dict]:
    def kept(name: str) -> bool:
        if workload == "cli_mix":
            return not name.startswith("verify_")
        return name.startswith("s_k_profile_") or (
            name.startswith("cover_") and name != "cover_verify"
        )

    return [req for stratum in strata if kept(stratum["name"].partition(".")[0])
            for req in stratum["variants"]]


def _run(req: dict, tmp_path: pathlib.Path) -> tuple[str, int]:
    if "api" in req:
        name, *args = req["api"]
        module, _, fn = name.rpartition(".")
        result = getattr(importlib.import_module(f"stemsize.{module}"), fn)(*args)
        return result.to_json(), 0
    paths = {}
    for key, text in req.get("files", {}).items():
        path = tmp_path / f"{req['id']}.{key}"
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    argv = [a.format(**paths) if "{" in a else a for a in req["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return out.getvalue(), rc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pinned_requests_reproduce(workload, tmp_path):
    with open(PINNED / f"{workload}.json", encoding="utf-8") as fh:
        requests = _replayed(json.load(fh)["strata"], workload)
    assert requests
    mismatches = []
    for req in requests:
        text, rc = _run(req, tmp_path)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if (digest, rc) != (req["sha256"], req["rc"]):
            mismatches.append((req["id"], rc, req["rc"]))
    assert not mismatches, mismatches[:5]

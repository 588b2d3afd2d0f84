"""The torsion suite's per-process tables: g(n), log_p(n) and the exact
window sums E(n) are built once and kept read-only, while every verdict is
decided afresh on each run."""

import math
import os
import subprocess
import sys

import pytest

from stemsize import torsion, verify
from stemsize.torsion import LinearCurve, PowerLawCurve, stable_torsion_bound

SUITE_CURVES = (LinearCurve(), PowerLawCurve(0.5, 1.0))
BUILDERS = (verify._log_table, verify._curve_table, verify._window_sums)
STABLE_CHECKS = [f"stable_bound_exhaustive_p{p}_{label}"
                 for p in (2, 3, 5) for label in ("linear", "sqrt")]


def clear_tables():
    for builder in BUILDERS:
        builder.cache_clear()


def stable_results(seed=verify.DEFAULT_SEED):
    return {r.name: r for r in verify.run_suite("torsion", seed) if r.name in STABLE_CHECKS}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("curve", SUITE_CURVES)
def test_every_entry_equals_the_direct_formula(p, curve):
    gs, logs = verify._curve_table(curve), verify._log_table(p)
    sums = verify._window_sums(p, curve)
    n_max = verify.SCAN_LIMIT
    assert len(gs) == len(logs) == len(sums) == n_max
    assert gs.tolist() == [curve(n) for n in range(1, n_max + 1)]
    want = [(math.log2(n) if p == 2 else math.log(n, p)).hex() for n in range(1, n_max + 1)]
    assert [x.hex() for x in logs] == want
    slope, const = torsion._closed_form_coefficients(p)
    for n in range(1, n_max + 1):
        rep = stable_torsion_bound(p, n, curve)
        assert sums[n - 1] == rep.exact_sum, n
        # the tables give the closed form float for float
        assert slope * gs[n - 1] + logs[n - 1] + const == rep.closed_form, n


@pytest.mark.parametrize("builder, args", [
    (verify._log_table, (3,)), (verify._curve_table, (LinearCurve(),)),
    (verify._window_sums, (2, PowerLawCurve(0.5, 1.0)))], ids=["logs", "g", "sums"])
def test_tables_are_read_only(builder, args):
    table = builder(*args)
    first = table[0]
    with pytest.raises(TypeError):
        table[0] = first + 1
    with pytest.raises(TypeError):
        table[:1] = table[1:2]
    assert table[0] == first


def test_import_builds_no_table_and_loads_no_array_module():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, stemsize.cli, stemsize.verify as v; "
            "print([f.cache_info().currsize for f in "
            "(v._log_table, v._curve_table, v._window_sums)], 'array' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout == "[0, 0, 0] False\n"


def test_a_suite_run_fills_each_table_once():
    clear_tables()
    verify.run_suite("torsion")
    verify.run_suite("torsion")
    assert [b.cache_info().currsize for b in BUILDERS] == [3, 2, 6]
    assert [b.cache_info().misses for b in BUILDERS] == [3, 2, 6]


def test_wrong_coefficients_fail_a_warm_run(monkeypatch):
    assert all(r.ok for r in stable_results().values())  # warm, and passing
    monkeypatch.setattr(torsion, "_closed_form_coefficients", lambda p: (0.0, -100))
    results = stable_results()
    assert [results[name].detail for name in STABLE_CHECKS] == [
        f"violation at p={p}, n=1" for p in (2, 3, 5) for _ in range(2)]
    monkeypatch.undo()
    assert all(r.ok for r in stable_results().values())


def test_wrong_direct_calls_fail_a_warm_run(monkeypatch):
    assert all(r.ok for r in stable_results().values())  # warm, and passing
    real = torsion.stable_torsion_bound

    def off_by_one(p, n, curve):
        rep = real(p, n, curve)
        return torsion.TorsionReport(rep.p, rep.n, rep.exact_sum + 1, rep.closed_form, rep.curve)

    monkeypatch.setattr(torsion, "stable_torsion_bound", off_by_one)
    results = stable_results()
    assert [results[name].detail for name in STABLE_CHECKS] == [
        f"direct call mismatch at p={p}, n=1" for p in (2, 3, 5) for _ in range(2)]
    assert not any(r.ok for r in results.values())


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1720])
def test_a_cold_run_reports_what_a_warm_run_does(seed):
    verify.run_suite("torsion", seed)
    warm = verify.format_report(verify.run_suite("torsion", seed), "torsion", seed)
    clear_tables()
    cold = verify.format_report(verify.run_suite("torsion", seed), "torsion", seed)
    assert cold == warm
    assert all(b.cache_info().currsize for b in BUILDERS)

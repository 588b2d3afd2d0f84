import os
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_growth_report_writes_both_profiles(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "growth_report.py"),
         "--m", "3", "--max-point", "7", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "bracketing may_model at m = 3: ok" in proc.stdout
    tables = {
        "ratio_s_k_p2_k2.csv": "n,log_rank,log_n_pow_2,ratio",
        "ratio_may_e1_p2_k3.csv": "n,log_rank,log_n_pow_3,ratio",
    }
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(tables)
    for name, header in tables.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert [line.partition(",")[0] for line in lines[1:]] == ["64", "128"]


def test_performance_report_nilpotent_regime():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import performance_report as report; "
         "report.measure_nilpotent(dsl_trunc=200, may_trunc=81)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SCRIPTS), str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "nilpotent generic_fold-shaped DSL spec", "nilpotent may_e1"]
    assert all("generators packed" in line for line in lines)

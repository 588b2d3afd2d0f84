import ast
import os
import pathlib
import re
import subprocess
import sys

from stemsize import algebra, verify
from stemsize.algebra import _plan, hilbert, instantiate, parse_spec
from stemsize.ehp import a_series
from stemsize.presets import preset

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


def run_performance_report(call):
    """stdout of `performance_report.<call>` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import performance_report as report; report.{call}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SCRIPTS), str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH", "")])},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FOLD_LINE = re.compile(r"(\w+) +(.+), N = (\d+): \d+\.\d ms CPU, best of 1; top coefficient "
                       r"(\d+) bits; g = (\d+); (\d+) of (\d+) generators fold sparse on (\d+) "
                       r"support terms; (\d+) of \7 generators packed, (\d+) unit passes, "
                       r"(\d+) power steps, (\d+) coefficient additions")


def fold_totals(lines, cases):
    """Checks each `measure_folds` line against its (regime, label, spec, N)
    case; returns each line's (sparse, support terms, packed, power steps)."""
    assert len(lines) == len(cases)
    totals = []
    for (regime, label, spec, trunc), line in zip(cases, lines):
        match = FOLD_LINE.fullmatch(line)
        assert match and match.groups()[:3] == (regime, label, str(trunc)), line
        coeffs, g = algebra._lattice_fold(spec, trunc)
        gens = instantiate(spec, trunc)
        plan = _plan(gens, trunc)
        sparse = [step.work for step in plan.steps if step.kernel == "sparse"]
        assert tuple(map(int, match.groups()[3:])) == (
            sum(coeffs).bit_length(), g, len(sparse), len(gens), sum(sparse), len(plan.picked),
            sum(step.mult for step in plan.steps if step.kernel == "unit"),
            sum(step.kernel == "power" for step in plan.steps), plan.cost)
        totals.append((len(sparse), sum(sparse), len(plan.picked),
                       sum(step.kernel == "power" for step in plan.steps)))
    return totals


def test_performance_report_fold_table(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from performance_report import FOLD_CASES

    trunc = 2**14  # the cases fold sparse (may_e1), packed (TRUNC_SPEC) and by power steps
    lines = run_performance_report(f"measure_folds(trunc={trunc}, repeats=1)").splitlines()
    totals = fold_totals(lines, [(*case[:3], trunc) for case in FOLD_CASES])
    assert all(any(row[i] for row in totals) for i in (0, 2, 3))  # sparse, packed, power


def test_performance_report_nilpotent_regime(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from performance_report import NILPOTENT_SPEC

    may_e1 = preset("may_e1", 3, drop_q0=True)
    cases = [("nilpotent", "NILPOTENT_SPEC", parse_spec(NILPOTENT_SPEC), 200),
             ("nilpotent", may_e1.label, may_e1, 81)]
    lines = run_performance_report(
        "measure_folds([('nilpotent', 'NILPOTENT_SPEC', report.parse_spec(report.NILPOTENT_SPEC), "
        f"200, 1), ('nilpotent', {may_e1.label!r}, report.preset('may_e1', 3, drop_q0=True), "
        "81, 1)])").splitlines()
    totals = fold_totals(lines, cases)
    assert totals[0][2] > 0  # the DSL spec packs at N = 200


def test_performance_report_sparse_regime():
    trunc = 4096
    presets = [("mrs_e2_model", {"h": 2}), ("dual_steenrod", {}), ("y_h_lifted", {"h": 2}),
               ("y_h_lifted", {"h": 3}), ("may_e1", {"drop_q0": True})]
    specs = [preset(name, 2, **kwargs) for name, kwargs in presets]
    calls = ", ".join(f"report.preset({name!r}, 2, **{kwargs!r})" for name, kwargs in presets)
    lines = run_performance_report(
        f"measure_folds([('sparse', s.label, s, {trunc}, 1) for s in ({calls},)])").splitlines()
    totals = fold_totals(lines, [("sparse", spec.label, spec, trunc) for spec in specs])
    for spec, (sparse, terms, packed, _) in zip(specs, totals):
        # at N = 4096 the plan packs y_h_lifted (h = 2) and starts the others sparse
        assert (packed > 0) == (spec.label == "y_h_lifted(p=2, h=2)") != (sparse > 0)
        assert 0 < terms <= sparse * (trunc + 1) or sparse == terms == 0


def test_performance_report_starts_regime(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from performance_report import starts_cases

    trunc = 4096
    lines = run_performance_report(f"measure_starts(trunc={trunc}, repeats=1)").splitlines()
    cases = starts_cases()
    assert len(lines) == len(cases) == 15
    line_re = re.compile(rf"starts   (.+), N = {trunc}: plan starts (packed|sparse|plain), (\d+) "
                         r"coefficient additions; packed (n/a|\d+\.\d\d ms), "
                         r"sparse (n/a|\d+\.\d\d ms), plain (\d+\.\d\d ms) CPU")
    starts = {}
    for (label, spec, _), line in zip(cases, lines):
        match = line_re.fullmatch(line)
        assert match and match[1] == label, line
        plan = _plan(instantiate(spec, trunc), trunc)
        assert int(match[3]) == plan.cost
        sparse = any(step.kernel == "sparse" for step in plan.steps)
        assert match[2] == ("packed" if plan.picked else "sparse" if sparse else "plain")
        assert match[4 + ("packed", "sparse", "plain").index(match[2])] != "n/a", line
        starts[label] = match[2]
    sparse_at_4096 = ("dual_steenrod(p=2)", "mrs_e2_model(p=2, h=2)", "y_h_lifted(p=2, h=3)",
                      "may_e1(p=2, drop_q0)")
    assert all(starts[label] == "sparse" for label in sparse_at_4096)


def test_performance_report_times_the_suite_checks():
    lines = run_performance_report("measure_verify(suites=('series',), repeats=1)").splitlines()
    checks = [line.split()[1].rstrip(":") for line in lines[:-1]]
    assert checks == [f"series.{r.name}" for r in verify.run_suite("series")]
    assert all(re.search(r": \d+\.\d\d ms CPU$", line) for line in lines[:-1])
    assert lines[-1].startswith("verify   series suite: ")


def test_performance_report_times_the_torsion_suite_cold_and_warm():
    lines = run_performance_report("measure_torsion_tables(repeats=1)").splitlines()
    checks = len(verify.run_suite("torsion"))
    assert len(lines) == 2
    for state, line in zip(("empty table caches", "warm table caches"), lines):
        assert re.fullmatch(rf"verify   torsion suite, {state}: \d+\.\d ms CPU "
                            rf"for {checks} checks, best of 1", line), line


def test_performance_report_times_the_listing():
    cases = ((2, 1, 12), (3, 2, 20), (2, 1, 200))
    lines = run_performance_report(f"measure_listing(cases={cases}, repeats=1)").splitlines()
    assert len(lines) == 3
    for (p, n, cap), line in zip(cases[:2], lines):
        count = sum(a_series(p, n, cap))
        assert re.fullmatch(rf"listing  I\({n}\), p = {p}, cap {cap}: \d+\.\d ms CPU, "
                            rf"{count} sequences", line)
    assert re.fullmatch(r"listing  I\(1\), p = 2, cap 200: \d+\.\d ms CPU, exit 3", lines[2])


def test_performance_report_measures_output_peaks():
    lines = run_performance_report("measure_output(trunc=64, big_trunc=50)").splitlines()
    labels = ["preset may_e1, p = 2, N = 64, JSON to stdout",
              "hilbert of mult 10^8 in degree 1, N = 50, JSON to a file",
              "hilbert of mult 10^8 in degree 1, N = 50, CSV to a file"]
    assert len(lines) == len(labels)
    sizes = []
    for label, line in zip(labels, lines):
        match = re.fullmatch(rf"output   {re.escape(label)}: peak RSS (\d+\.\d) MB, "
                             r"(-?\d+\.\d) MB above import, (\d+) bytes, exit 0", line)
        assert match, line
        assert float(match[1]) > 0 and float(match[2]) >= 0
        sizes.append(int(match[3]))
    # the may_e1 JSON, with the newline after it on stdout, and the files
    assert sizes[0] == len(hilbert(preset("may_e1", 2, drop_q0=True), 64).to_json()) + 1
    big = hilbert(parse_spec("p = 2\ngen poly deg = 1 mult = 100000000\n"), 50)
    assert sizes[1:] == [len(big.to_json()), sum(len(f"{n},{c}\n") for n, c in big.csv_rows())]


def test_performance_report_times_the_ehp_fold():
    lines = run_performance_report("measure_ehp(truncs=(12, 40), repeats=1)").splitlines()
    assert len(lines) == 2
    for trunc, line in zip((12, 40), lines):
        match = re.fullmatch(rf"ehp      A\(1;t\) by the fold, p = 2, N = {trunc}: \d+\.\d ms "
                             r"CPU, (\d+) counted; stemsize ehp peak RSS (\d+\.\d) MB, exit 0",
                             line)
        assert match, line
        assert int(match[1]) == sum(a_series(2, 1, trunc))
        assert float(match[2]) > 0


def test_performance_report_times_the_lattice_regime():
    lines = run_performance_report("measure_lattice(trunc=31, repeats=1)").splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"lattice  max_over_h r_h_einf, p = 2, N = 31: \d+\.\d\d ms CPU",
                        lines[0]), lines[0]


def test_performance_report_runs_every_measurement():
    tree = ast.parse((SCRIPTS / "performance_report.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("measure_")}
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "main")
    called = {node.func.id for node in ast.walk(main) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id.startswith("measure_")}
    assert defined and defined == called, defined ^ called


def test_performance_report_times_the_preset_catalog():
    lines = run_performance_report("measure_presets(repeats=1)").splitlines()
    assert len(lines) == 2
    for state, line in zip(("empty cache", "warm cache"), lines):
        assert re.fullmatch(rf"presets  20 presets, every name at p = 2, 3, {state}: "
                            r"\d+\.\d{3} ms CPU", line), line


def test_code_lines_total_is_the_sum_of_the_modules():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "code_lines.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows[-1][1] == "total"
    counts = {name: int(count) for count, name in rows[:-1]}
    package = SCRIPTS.parent / "src" / "stemsize"
    assert sorted(counts) == sorted(path.name for path in package.glob("*.py"))
    assert all(count > 0 for count in counts.values())
    assert int(rows[-1][0]) == sum(counts.values())


def test_code_lines_skip_comments_docstrings_and_blanks(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from code_lines import code_lines

    assert code_lines("import os\n\n\ndef f(x):\n    return [x,\n            os.sep]\n") == 4
    documented = (
        '"""A module docstring\n\nover three lines."""\n'
        "import os  # a trailing comment\n\n"
        "# a comment line\n\n"
        "def f(x):\n"
        "    '''A function docstring.'''\n"
        "    # another comment\n"
        "    return [x,\n\n"
        "            os.sep]\n"
    )
    assert code_lines(documented) == 4
    assert code_lines(documented + "TEXT = '''a string\nthat is code'''\n") == 6

import contextlib
import csv
import functools
import hashlib
import io
import json
import re
import subprocess
import sys
import time

import pytest

import stemsize
from stemsize import algebra, asymptotics, series, torsion
from stemsize.algebra import hilbert, parse_spec
from stemsize.cli import MAX_INPUT_BYTES, CliError, int_or_power, main, parse_points
from stemsize.ehp import a_series
from stemsize.presets import preset


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "stemsize.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


@contextlib.contextmanager
def no_digit_limit():
    """Lift the interpreter's int/str digit limit (Python 3.11 on) inside."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# c_2000 of 1/(1 - t)^(10^8) has 10,265 digits
BIG_MULT_SPEC = "p = 2\ngen poly deg = 1 mult = 100000000\n"

DEEP_RANGES = ", ".join(f"i{k} = 0..0" for k in range(1200))
DEEP_GEN_LINES = {
    "parentheses": "gen poly deg = " + "(" * 3000 + "1" + ")" * 3000,
    "degree_sum": "gen poly deg = 1 + "
    + " + ".join(f"i{k}" for k in range(1200)) + f" for {DEEP_RANGES}",
    "index_ranges": f"gen poly deg = 1 for {DEEP_RANGES}",
}


class TestParsePoints:
    def test_power_range(self):
        assert parse_points("2^3..2^6") == [8, 16, 32, 64]

    def test_unit_range(self):
        assert parse_points("4..7") == [4, 5, 6, 7]

    def test_comma_list(self):
        assert parse_points("100,200,2^9") == [100, 200, 512]

    def test_huge_unit_range_rejected(self):
        with pytest.raises(CliError):
            parse_points("1..10000000")

    def test_garbage_rejected(self):
        with pytest.raises(CliError):
            parse_points("2^^4")

    @pytest.mark.parametrize("expr, point", [
        ("10^100000000", "10^100000000"),
        ("2^1..2^3000000", "2^3000000"),
        ("2^70", "2^70"),
        ("2^63", "2^63"),
        ("3^40", "3^40"),
        ("16,9223372036854775808", "9223372036854775808"),
        ("4..2^64", "2^64"),
    ])
    def test_point_past_maxsize_refused_before_it_is_built(self, expr, point):
        start = time.monotonic()
        with pytest.raises(series.ResourceLimitError,
                           match=rf"^point {re.escape(point)} is above sys.maxsize = "):
            parse_points(expr)
        assert time.monotonic() - start < 0.5  # 10^(10^8) alone takes far longer

    def test_maxsize_itself_is_a_point(self):
        assert parse_points(f"2^62,{sys.maxsize}") == [2**62, sys.maxsize]
        assert parse_points("2^60..2^62") == [2**60, 2**61, 2**62]

    @pytest.mark.parametrize("expr", ["2^-1000000000..2^3", "1^0..1^100000000000", "0^-1"])
    def test_unbuildable_power_ranges_rejected(self, expr):
        start = time.monotonic()
        with pytest.raises(CliError):
            parse_points(expr)
        assert time.monotonic() - start < 0.5


class TestPreset:
    def test_json_series(self):
        code, out, _ = run_cli(
            "preset", "--name", "dual_steenrod", "--p", "2",
            "--max-degree", "7", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["coeffs"] == ["1", "1", "1", "2", "2", "2", "3", "4"]

    def test_csv_cumulative(self):
        code, out, _ = run_cli(
            "preset", "--name", "dual_steenrod", "--p", "2",
            "--max-degree", "3", "--cumulative", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["0,1", "1,2", "2,3", "3,5"]

    def test_unknown_preset_exits_one(self):
        code, _, err = run_cli(
            "preset", "--name", "bogus", "--p", "2", "--max-degree", "3"
        )
        assert code == 1

    def test_missing_drop_q0_exits_one(self):
        code, _, err = run_cli(
            "preset", "--name", "may_e1", "--p", "2", "--max-degree", "5"
        )
        assert code == 1
        assert "drop_q0" in err


class TestHilbert:
    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("p = 2\ngen ext deg = 3\ngen poly deg = 2\n")
        code, out, _ = run_cli(
            "hilbert", "--spec", str(spec), "--max-degree", "5",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "0,1", "1,0", "2,1", "3,1", "4,1", "5,1",
        ]

    def test_parse_error_exits_one(self, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text("p = 2\ngen poly deg = \n")
        code, _, err = run_cli("hilbert", "--spec", str(spec), "--max-degree", "5")
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("gen_line", DEEP_GEN_LINES.values(), ids=DEEP_GEN_LINES.keys())
    def test_deep_input_exits_one(self, tmp_path, gen_line):
        # each overflows the recursion limit somewhere between parsing and
        # instantiation; the library turns that into DslError/AlgebraError
        spec = tmp_path / "deep.txt"
        spec.write_text(f"p = 2\n{gen_line}\n")
        code, out, err = run_cli("hilbert", "--spec", str(spec), "--max-degree", "3")
        assert (code, out) == (1, "")
        assert err.startswith("stemsize: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_coefficients_past_digit_limit(self, tmp_path, fmt):
        spec = tmp_path / "spec.txt"
        spec.write_text(BIG_MULT_SPEC)
        code, out, err = run_cli(
            "hilbert", "--spec", str(spec), "--max-degree", "2000", "--format", fmt
        )
        assert (code, err) == (0, "")
        if fmt == "json":
            coeffs = json.loads(out)["coeffs"]
        else:
            coeffs = [line.partition(",")[2] for line in out.splitlines()]
        want = hilbert(parse_spec(BIG_MULT_SPEC), 2000).coeffs
        with no_digit_limit():
            assert tuple(map(int, coeffs)) == want

    def test_output_over_budget_exits_three(self, tmp_path):
        # sum of squared bit lengths 2.59e12 at N = 3000
        spec = tmp_path / "spec.txt"
        spec.write_text(BIG_MULT_SPEC)
        code, out, err = run_cli(
            "hilbert", "--spec", str(spec), "--max-degree", "3000", "--format", "csv"
        )
        assert (code, out) == (3, "")
        assert err == (
            "stemsize: resource guard: writing the series in decimal costs "
            "2587538549292 (sum of squared coefficient bit lengths), above the "
            "budget 2000000000000\n"
        )

    def test_power_over_budget_exits_three(self, tmp_path, capsys):
        # 2^(2^24) has 2^24 + 1 bits: refused before it is built
        spec = tmp_path / "spec.txt"
        spec.write_text("p = 2\ngen poly deg = 2^(2^24) + i for i = 0..inf\n")
        assert main(["hilbert", "--spec", str(spec), "--max-degree", "3"]) == 3
        assert capsys.readouterr() == ("", (
            "stemsize: resource guard: a power in a degree expression would "
            "exceed the budget of 1048576 bits\n"
        ))

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit"
    )
    def test_integer_literal_past_digit_limit_exits_one(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("p = 2\ngen poly deg = 1 mult = 1" + "0" * 4400 + "\n")
        code, out, err = run_cli("hilbert", "--spec", str(spec), "--max-degree", "3")
        assert (code, out) == (1, "")
        assert err.startswith("stemsize: error: Exceeds the limit (4300 digits)")


class TestTorsion:
    def test_linear_csv(self):
        code, out, _ = run_cli(
            "torsion", "--p", "2", "--n", "16", "--curve", "linear",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,n,exact_sum,closed_form,curve"
        fields = lines[1].split(",", maxsplit=4)
        assert fields[:3] == ["2", "16", "20"]
        assert float(fields[3]) == 26.0

    def test_json(self):
        code, out, _ = run_cli(
            "torsion", "--p", "3", "--n", "48", "--curve", "linear",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["exact_sum"] == 17

    def test_table_curve_bad_line_exits_one(self, tmp_path):
        table = tmp_path / "curve.txt"
        table.write_text("1\n2\n\nx\n4\n")
        code, out, err = run_cli(
            "torsion", "--p", "2", "--n", "3", "--curve", f"table:{table}"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"stemsize: error: curve table {str(table)!r}, line 4: "
            f"expected an integer, got 'x'\n"
        )

    def test_table_curve_file(self, tmp_path):
        table = tmp_path / "curve.txt"
        table.write_text("1\n2\n\n3\n")
        code, out, _ = run_cli(
            "torsion", "--p", "2", "--n", "3", "--curve", f"table:{table}",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[:3] == ["2", "3", "4"]

    @pytest.mark.parametrize("p", ["1", "4"])
    def test_non_prime_exits_one(self, p):
        code, out, err = run_cli("torsion", "--p", p, "--n", "5")
        assert code == 1
        assert out == ""
        assert err == f"stemsize: error: p = {p} is not prime\n"

    def test_large_prime_answers_within_two_seconds(self):
        code, out, err = run_cli("torsion", "--p", str(10**18 + 3), "--n", "5", timeout=2)
        assert (code, err) == (0, "")
        assert json.loads(out)["p"] == 10**18 + 3

    def test_p_from_2_to_the_64_exits_one(self):
        p = 2**64 + 13
        code, out, err = run_cli("torsion", "--p", str(p), "--n", "5")
        assert (code, out) == (1, "")
        assert err == f"stemsize: error: p = {p} is too large: primes are decided below 2^64\n"

    @pytest.mark.parametrize("curve, n", [("linear", 10**400), ("sqrt", 10**700)])
    def test_closed_form_past_float_range_exits_one(self, curve, n):
        code, out, err = run_cli("torsion", "--p", "2", "--n", str(n), "--curve", curve)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"stemsize: error: n = {n} is too large: the closed form exceeds the float range"
        ]


class TestImport:
    def test_standard_library_only(self):
        # in a fresh interpreter, the CLI's import loads no third-party module
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import stemsize.cli\n"
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'stemsize'}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_resource_limit_error_is_one_class(self):
        assert stemsize.ResourceLimitError is series.ResourceLimitError
        assert asymptotics.ResourceLimitError is series.ResourceLimitError

    def test_no_dataclasses_or_inspect(self):
        # both cost milliseconds of every cold CLI call, and nothing needs them
        code = (
            "import stemsize.cli; import sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestEhp:
    def test_sequence_listing(self):
        code, out, _ = run_cli(
            "ehp", "--p", "2", "--excess", "1", "--max-dim", "2",
            "--format", "json",
        )
        assert code == 0
        entries = [tuple(item["entries"]) for item in json.loads(out)]
        assert entries == [(), (1,), (2,), (3,), (3, 1)]

    def test_a_series(self):
        code, out, _ = run_cli(
            "ehp", "--p", "2", "--excess", "1", "--max-degree", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["0,2", "1,1", "2,2", "3,2"]

    @pytest.mark.parametrize("argv, message", [
        (["--max-dim", "5", "--max-degree", "40"],
         "argument --max-degree: not allowed with argument --max-dim"),
        (["--max-degree", "3", "--max-dim", "5"],
         "argument --max-dim: not allowed with argument --max-degree"),
    ], ids=["dim-then-degree", "degree-then-dim"])
    def test_listing_and_series_flags_together_exit_one(self, argv, message, capsys):
        # --max-degree was ignored beside --max-dim, even at its default 40
        assert main(["ehp", "--p", "2", "--excess", "1", *argv]) == 1
        assert capsys.readouterr() == ("", f"stemsize: error: {message}\n")

    def test_series_truncation_defaults_to_40(self, capsys):
        assert main(["ehp", "--p", "2", "--excess", "1", "--format", "csv"]) == 0
        rows = [f"{d},{c}" for d, c in a_series(2, 1, 40).csv_rows()]
        assert capsys.readouterr().out.splitlines() == rows

    # SHA-256 of stdout, pinned from the O(N^2) chain census that computed
    # A(n;t) before the fold
    @pytest.mark.parametrize("argv, digest", [
        (("--p", "2", "--excess", "1", "--max-degree", "3000"),
         "e02df1bd79362ca3ca9720fd42bc2bc1d5e7c97e71c8c9edfa6d372520b29c72"),
        (("--p", "3", "--excess", "2", "--max-degree", "3000", "--format", "csv"),
         "c7df2799e9cafca355dc8a049014ac3c6ab679cda7958800059cd4aadc3c6aaf"),
    ], ids=["p2_json", "p3_csv"])
    def test_a_series_digest(self, argv, digest):
        code, out, err = run_cli("ehp", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_a_series_large_truncation(self):
        # the census ran out of memory here; the fold needs O(N)
        code, out, err = run_cli(
            "ehp", "--p", "2", "--excess", "1", "--max-degree", "20000", timeout=20
        )
        assert (code, err) == (0, "")
        assert out == a_series(2, 1, 20000).to_json() + "\n"

    @pytest.mark.parametrize(
        "limit, message",
        [("--max-degree", "truncation must be nonnegative"),
         ("--max-dim", "dimension cap must be >= 0")],
    )
    def test_negative_limit_names_its_flag(self, limit, message):
        code, out, err = run_cli("ehp", "--p", "2", "--excess", "1", limit, "-3")
        assert code == 1
        assert out == ""
        assert err == f"stemsize: error: {message}\n"

    def test_listing_over_ceiling_exits_three(self):
        # 14,008,118 sequences: the listing stops at the ceiling, not a timeout
        code, out, err = run_cli("ehp", "--p", "2", "--excess", "1", "--max-dim", "400")
        assert (code, out) == (3, "")
        assert err == (
            "stemsize: resource guard: I(1) at p = 2 has more than 100000 "
            "sequences of dimension <= 400; lower the dimension cap\n"
        )

    @pytest.mark.parametrize("p, exponent", [("2", 300), ("3", 600)])
    def test_deep_cap_exits_three(self, p, exponent):
        # Sequences of about 1,000 entries fit under these caps; the guard
        # must trip (exit 3, no traceback) before any depth matters.
        cap = str(10**exponent)
        code, out, err = run_cli(
            "ehp", "--p", p, "--excess", "1", "--max-dim", cap, timeout=5
        )
        assert (code, out) == (3, "")
        assert err == (
            f"stemsize: resource guard: I(1) at p = {p} has more than 100000 "
            f"sequences of dimension <= {cap}; lower the dimension cap\n"
        )

    @pytest.mark.parametrize("p", ["1", "4"])
    def test_non_prime_exits_one(self, p):
        code, out, err = run_cli("ehp", "--p", p, "--excess", "1")
        assert code == 1
        assert out == ""
        assert err == f"stemsize: error: p = {p} is not prime\n"


class TestAsymptotics:
    def test_constants(self):
        code, out, _ = run_cli("asymptotics", "--p", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert 0 < obj["K1"] < obj["K2"] < obj["K3"]

    def test_bracketing_ok(self):
        code, out, _ = run_cli(
            "asymptotics", "--p", "2", "--name", "may_model", "--n", "4",
            "--format", "csv",
        )
        assert code == 0
        assert "True" in out

    def test_lower_check_skipped_without_ceiling(self):
        code, out, _ = run_cli("asymptotics", "--p", "2", "--name", "may_model", "--n", "15")
        assert code == 0
        lower = json.loads(out)["checks"][1]
        assert lower == {
            "name": "may_model_lower",
            "ok": True,
            "detail": "skipped: degree 3440535 exceeds ceiling 2097152",
        }

    def test_resource_limit_exits_three(self):
        code, _, err = run_cli(
            "asymptotics", "--p", "2", "--name", "may_model", "--n", "12",
            "--lower-ceiling", "10",
        )
        assert code == 3
        assert "resource" in err.lower()

    @pytest.mark.parametrize("model", ["r_h_einf", "may_model"])
    def test_bracketing_scale_over_the_ceiling_exits_three(self, model):
        start = time.monotonic()
        code, out, err = run_cli("asymptotics", "--p", "2", "--name", model, "--n", "40")
        assert time.monotonic() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (f"stemsize: resource guard: {model}{' upper' * (model == 'may_model')} "
                       "check needs the series through degree 2^40 - 1, above the "
                       "ceiling 2097152\n")

    @pytest.mark.parametrize("m", [20000, 100000000])
    def test_r_h_e2_scale_over_the_ceiling_exits_three(self, m):
        start = time.monotonic()
        code, out, err = run_cli("asymptotics", "--p", "2", "--name", "r_h_e2", "--n", str(m))
        assert time.monotonic() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (f"stemsize: resource guard: r_h_e2 check needs the tensor series "
                       f"through degree {m // 2} * 16384, above the ceiling 2097152\n")

    def test_r_h_e2_at_the_ceiling_answers_as_before(self):
        # 128 * 2^14 = 2^21: the largest scale at p = 2 under the ceiling;
        # the digest is of the stdout before the guard was added
        code, out, _ = run_cli("asymptotics", "--p", "2", "--name", "r_h_e2", "--n", "257")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0eb3ae63019b9f75e2d8795cce71b0edef36282d56fa8b6718e9923ed6ddbfe1")

    @pytest.mark.parametrize("p", ["1", "4"])
    def test_non_prime_exits_one(self, p, capsys):
        requests = [
            *(["--name", model, "--n", m] for model in asymptotics.BRACKET_MODELS
              for m in ("4", "300")),
            ["--name", "s_k", "--h", "0", "--points", "2^4"],
            [],
        ]
        for argv in requests:
            start = time.monotonic()
            assert main(["asymptotics", "--p", p, *argv]) == 1, argv
            assert time.monotonic() - start < 1.0
            assert capsys.readouterr() == ("", f"stemsize: error: p = {p} is not prime\n")

    @pytest.mark.parametrize("points", ["10^100000000", "2^1..2^3000000"])
    def test_points_past_maxsize_exit_three(self, points):
        start = time.monotonic()
        code, out, err = run_cli("asymptotics", "--p", "2", "--name", "s_k", "--h", "0",
                                 "--points", points, timeout=10)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("stemsize: resource guard: point ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--name", "bogus", "--n", "3"], "unknown bracketing model 'bogus'; "
         "expected one of ('may_model', 'r_h_e2', 'r_h_einf')"),
        (["--name", "s_k", "--n", "3"], "unknown bracketing model 's_k'; "
         "expected one of ('may_model', 'r_h_e2', 'r_h_einf')"),
        (["--n", "5"], "bracketing checks need --name <model> and --n <scale m>; "
         "ratio profiles need --name <preset> and --points"),
        (["--name", "s_k", "--h", "2"], "bracketing checks need --name <model> and "
         "--n <scale m>; ratio profiles need --name <preset> and --points"),
    ], ids=["unknown-model", "preset-without-points", "n-without-name",
            "name-without-n-or-points"])
    def test_input_that_would_be_ignored_exits_one(self, argv, message, capsys):
        # each of these printed the growth constants with exit 0
        assert main(["asymptotics", "--p", "2", *argv]) == 1
        assert capsys.readouterr() == ("", f"stemsize: error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--lower-ceiling", "5"], "--lower-ceiling does not apply to the growth constants"),
        (["--name", "r_h_e2", "--n", "4", "--lower-ceiling", "5"],
         "--lower-ceiling applies only to the may_model bracketing check"),
        (["--name", "r_h_einf", "--n", "4", "--lower-ceiling", "0"],
         "--lower-ceiling applies only to the may_model bracketing check"),
        (["--name", "may_model", "--n", "4", "--h", "3", "--drop-q0"],
         "--h does not apply to bracketing checks"),
        (["--name", "may_model", "--n", "4", "--h", "0"],
         "--h does not apply to bracketing checks"),
        (["--name", "r_h_e2", "--n", "4", "--drop-q0"],
         "--drop-q0 does not apply to bracketing checks"),
        (["--name", "may_model", "--n", "4", "--simplify-odd"],
         "--simplify-odd does not apply to bracketing checks"),
        (["--name", "may_model", "--n", "4", "--exponent", "3"],
         "--exponent does not apply to bracketing checks"),
        (["--h", "0"], "--h does not apply to the growth constants"),
        (["--exponent", "2"], "--exponent does not apply to the growth constants"),
        (["--simplify-odd"], "--simplify-odd does not apply to the growth constants"),
        (["--name", "s_k", "--h", "0", "--points", "2^4", "--n", "4"],
         "--n does not apply to ratio profiles"),
        (["--name", "may_model", "--points", "2^4", "--lower-ceiling", "10"],
         "--lower-ceiling does not apply to ratio profiles"),
    ], ids=["ceiling-constants", "ceiling-r_h_e2", "ceiling-zero-r_h_einf",
            "h-and-drop-q0-bracketing", "h-zero-bracketing", "drop-q0-bracketing",
            "simplify-odd-bracketing", "exponent-bracketing", "h-constants",
            "exponent-constants", "simplify-odd-constants", "n-points", "ceiling-points"])
    def test_flag_the_mode_ignores_exits_one(self, argv, message, capsys):
        # each of these exited 0 with the flag ignored
        assert main(["asymptotics", "--p", "2", *argv]) == 1
        assert capsys.readouterr() == ("", f"stemsize: error: {message}\n")

    def test_negative_lower_ceiling_exits_one(self, capsys):
        argv = ["asymptotics", "--p", "2", "--name", "may_model", "--n", "3"]
        assert main([*argv, "--lower-ceiling", "-5"]) == 1
        assert capsys.readouterr() == (
            "", "stemsize: error: lower ceiling must be >= 0, got -5\n")
        # zero is a budget: the lower check needs degree 21, above it
        assert main([*argv, "--lower-ceiling", "0"]) == 3
        assert capsys.readouterr() == ("", (
            "stemsize: resource guard: may_model lower check needs the series "
            "through degree C(3, 2) * (2^3 - 1), above the ceiling 0\n"))

    def test_ratio_profile_exponent_defaults_to_three(self, capsys):
        argv = ["asymptotics", "--p", "2", "--name", "s_k", "--h", "0", "--points", "2^4"]
        assert main(argv) == 0
        default = capsys.readouterr()
        assert main([*argv, "--exponent", "3"]) == 0
        assert capsys.readouterr() == default
        assert json.loads(default.out)["exponent"] == 3

    def test_ratio_profile_csv(self):
        code, out, _ = run_cli(
            "asymptotics", "--p", "2", "--name", "s_k", "--h", "0",
            "--points", "2^4,2^5", "--exponent", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,log_rank,log_n_pow_2,ratio"
        assert len(lines) == 3


class TestInputFileCap:
    # the body, then blank lines up to the cap; one byte more is a line that
    # neither parser accepts, so exit 3 rather than 1 shows it went unparsed
    @pytest.mark.parametrize("argv, prefix, body, what", [
        (["hilbert", "--max-degree", "3", "--spec"], "", "p = 2\ngen poly deg = 1\n", "spec"),
        (["torsion", "--p", "2", "--n", "3", "--curve"], "table:", "1\n2\n3\n",
         "curve table"),
    ], ids=["spec", "curve-table"])
    def test_at_the_cap_and_one_byte_over(self, tmp_path, capsys, argv, prefix, body, what):
        assert MAX_INPUT_BYTES == 2**20
        path = tmp_path / "input.txt"
        at_cap = (body + "\n" * (MAX_INPUT_BYTES - len(body))).encode()
        assert len(at_cap) == MAX_INPUT_BYTES
        path.write_bytes(at_cap)
        assert main([*argv, prefix + str(path), "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[1].startswith(
            "1," if what == "spec" else "2,3,4,")
        path.write_bytes(at_cap + b"x")
        assert main([*argv, prefix + str(path)]) == 3
        assert capsys.readouterr() == ("", (
            f"stemsize: resource guard: {what} {str(path)!r} is larger than the "
            f"cap of 1048576 bytes\n"))


class TestVerify:
    def test_series_suite_passes(self):
        code, out, _ = run_cli("verify", "--suite", "series", "--seed", "7")
        assert code == 0
        assert "checks passed" in out

    def test_deterministic_output(self):
        runs = [
            run_cli("verify", "--suite", "torsion", "--seed", "1729")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_unknown_suite_exits_one(self):
        code, _, _ = run_cli("verify", "--suite", "bogus")
        assert code == 1

    def test_format_flag_rejected(self, capsys, tmp_path):
        # verify prints one plain report, so it takes no --format
        assert main(["verify", "--suite", "series", "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "stemsize: error: unrecognized arguments: --format csv\n"
        out = tmp_path / "report.txt"
        assert main(["verify", "--suite", "series", "--out", str(out)]) == 0
        assert "checks passed" in out.read_text()


class TestMainEntry:
    def test_main_returns_int(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        rc = main([
            "preset", "--name", "dual_steenrod", "--p", "2",
            "--max-degree", "3", "--format", "csv", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "0,1"

    def test_unwritable_out_exits_one(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            "preset", "--name", "dual_steenrod", "--p", "2",
            "--max-degree", "3", "--out", str(target),
        )
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(
            f"stemsize: error: cannot write output {str(target)!r}: "
        )
        assert not target.exists()


    def test_memory_error_exits_three(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(torsion, "stable_torsion_bound", exhausted)
        assert main(["torsion", "--p", "2", "--n", "10"]) == 3
        assert capsys.readouterr() == ("", "stemsize: resource guard: out of memory\n")

    def test_overflow_error_exits_three(self, capsys, monkeypatch):
        def past_any_index(*args):
            raise OverflowError("cannot fit 'int' into an index-sized integer")

        monkeypatch.setattr(torsion, "stable_torsion_bound", past_any_index)
        assert main(["torsion", "--p", "2", "--n", "10"]) == 3
        assert capsys.readouterr() == (
            "", "stemsize: resource guard: cannot fit 'int' into an index-sized integer\n")

    @pytest.mark.parametrize("command", ["ehp", "hilbert"])
    def test_degree_past_any_index_exits_three(self, command, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("p = 2\ngen poly deg = 5\n")
        argv = (["ehp", "--p", "2", "--excess", "1"] if command == "ehp"
                else ["hilbert", "--spec", str(spec)])
        start = time.monotonic()
        code, out, err = run_cli(*argv, "--max-degree", str(2**70), timeout=10)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("stemsize: resource guard: cannot fit 'int' into an "
                       "index-sized integer\n")


    @pytest.mark.parametrize("argv, trunc", [
        (["asymptotics", "--p", "2", "--name", "s_k", "--h", "0", "--points", "2^30"], 2**30),
        (["asymptotics", "--p", "2", "--name", "s_k", "--h", "0", "--points", "2^62"], 2**62),
        (["preset", "--name", "s_k", "--h", "0", "--max-degree", str(2**62)], 2**62),
    ], ids=["points-2^30", "points-2^62", "preset-2^62"])
    def test_truncation_at_the_coefficient_cap_exits_three(self, argv, trunc):
        # each of these folded for seconds before memory ran out
        start = time.monotonic()
        code, out, err = run_cli(*argv, timeout=10)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (f"stemsize: resource guard: truncation {trunc} is not below "
                       f"the cap {algebra._MAX_COEFFS}\n")

    def test_coefficient_cap_boundary(self, monkeypatch):
        assert algebra._MAX_COEFFS > 10**7  # hilbert of poly deg = 1 at 10^7 still answers
        monkeypatch.setattr(algebra, "_MAX_COEFFS", 50)
        spec = parse_spec("p = 2\ngen poly deg = 3\n")
        assert list(hilbert(spec, 49)) == [int(n % 3 == 0) for n in range(50)]
        for fn in (hilbert, algebra.hilbert_cumulative):
            with pytest.raises(series.ResourceLimitError, match="truncation 50 is not below"):
                fn(spec, 50)

class TestSharedParser:
    def test_repeated_requests_leak_no_state(self, capsys, tmp_path):
        # every main() call in a process parses with the same parser, so a
        # second round of the same requests must repeat the first exactly
        out = tmp_path / "series.csv"
        requests = (
            ["torsion", "--p", "3", "--n", "48", "--format", "csv"],
            ["torsion", "--p", "3"],  # argparse error: --n is required
            ["asymptotics", "--p", "2", "--name", "may_model", "--n", "12",
             "--lower-ceiling", "10"],
            ["preset", "--name", "dual_steenrod", "--p", "2", "--max-degree", "9",
             "--format", "csv", "--out", str(out)],
            ["verify", "--suite", "series"],
        )

        def run_round():
            out.unlink(missing_ok=True)
            results = []
            for argv in requests:
                code = main(argv)
                captured = capsys.readouterr()
                written = out.read_text() if out.exists() else None
                results.append((code, captured.out, captured.err, written))
            return results

        first = run_round()
        assert [r[0] for r in first] == [0, 1, 3, 0, 0]
        assert first[1][2].startswith("stemsize: error: ")
        assert first[3][3].splitlines()[:3] == ["0,1", "1,1", "2,1"]
        assert run_round() == first


SMALL_SPEC = "p = 2\ngen poly deg = 1\ngen ext deg = 2\n"


def series_request(command, n, tmp_path):
    """argv of a series request truncated at n, and the series it prints."""
    if command == "hilbert":
        spec = tmp_path / "small.txt"
        spec.write_text(SMALL_SPEC)
        return (["hilbert", "--spec", str(spec), "--max-degree", str(n)],
                hilbert(parse_spec(SMALL_SPEC), n))
    if command == "preset":
        return (["preset", "--name", "dual_steenrod", "--p", "3", "--max-degree", str(n)],
                hilbert(preset("dual_steenrod", 3), n))
    return ["ehp", "--p", "2", "--excess", "1", "--max-degree", str(n)], a_series(2, 1, n)


def whole_text(s, fmt):
    """The output text of series s built in one piece, as the CLI wrote it
    before it wrote in pieces."""
    digits = [str(c) for c in s]
    if fmt == "json":
        return json.dumps({"trunc": s.trunc, "coeffs": digits})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in enumerate(digits):
        writer.writerow(row)
    return buf.getvalue()


def default_digit_limit():
    """The digit limit the interpreter started with (None before 3.11)."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return None
    configured = sys.flags.int_max_str_digits
    return sys.int_info.default_max_str_digits if configured == -1 else configured


class TestSeriesOutputInPieces:
    @pytest.mark.parametrize("command", ["hilbert", "preset", "ehp"])
    @pytest.mark.parametrize("per_piece, length", [(1, 1), (1, 2), (3, 1), (3, 3), (3, 4)])
    def test_pieces_match_whole_text(self, tmp_path, capsys, monkeypatch,
                                     command, per_piece, length):
        argv, want = series_request(command, length - 1, tmp_path)
        monkeypatch.setattr(series, "_PIECE_BITS", per_piece * (max(want).bit_length() + 1))
        sizes = []
        digits = series._digits
        monkeypatch.setattr(series, "_digits", lambda piece: sizes.append(len(piece))
                            or digits(piece))
        for fmt in ("json", "csv"):
            text = whole_text(want, fmt)
            sizes.clear()
            assert main([*argv, "--format", fmt]) == 0
            assert capsys.readouterr() == (text + "\n" * (fmt == "json"), "")
            assert sum(sizes) == length and max(sizes) == min(per_piece, length)
            out = tmp_path / f"out.{fmt}"
            assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == text.encode()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_over_budget_writes_nothing(self, tmp_path, capsys, monkeypatch, fmt):
        # the guard trips before any byte is written or any file opened
        monkeypatch.setattr(algebra, "hilbert", functools.cache(hilbert))
        spec = tmp_path / "spec.txt"
        spec.write_text(BIG_MULT_SPEC)
        argv = ["hilbert", "--spec", str(spec), "--max-degree", "3000", "--format", fmt]
        assert main(argv) == 3
        assert capsys.readouterr().out == ""
        existing = tmp_path / "existing.txt"
        existing.write_bytes(b"kept\r\nas it was")
        assert main([*argv, "--out", str(existing)]) == 3
        assert existing.read_bytes() == b"kept\r\nas it was"
        absent = tmp_path / "absent.txt"
        assert main([*argv, "--out", str(absent)]) == 3
        assert not absent.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_out_exits_one(self, tmp_path, capsys, fmt):
        argv, _ = series_request("hilbert", 5, tmp_path)
        out = tmp_path / "missing" / "out.txt"
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 1
        assert not out.parent.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"stemsize: error: cannot write output '{out}': ")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit"
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_sees_the_digit_limit(self, tmp_path, monkeypatch, fmt):
        # c_500 of 1/(1 - t)^(10^12) has 4,866 digits, past the default 4,300
        spec = tmp_path / "spec.txt"
        spec.write_text("p = 2\ngen poly deg = 1 mult = 1000000000000\n")
        limit = default_digit_limit()
        assert sys.get_int_max_str_digits() == limit
        seen = []

        class Checking(io.StringIO):
            def write(self, text):
                seen.append(sys.get_int_max_str_digits())
                return super().write(text)

        stdout = Checking()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["hilbert", "--spec", str(spec), "--max-degree", "500",
                     "--format", fmt]) == 0
        assert set(seen) == {limit} and sys.get_int_max_str_digits() == limit
        want = hilbert(parse_spec(spec.read_text()), 500)
        with no_digit_limit():
            assert stdout.getvalue() == whole_text(want, fmt) + "\n" * (fmt == "json")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_error_exits_one(self, capsys, monkeypatch, fmt):
        limit = default_digit_limit()
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

        class Failing:
            def write(self, text):
                raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", Failing())
            code = main(["ehp", "--p", "2", "--excess", "1", "--format", fmt])
        assert code == 1
        assert capsys.readouterr() == ("", (
            "stemsize: error: cannot write output '-': "
            "[Errno 28] No space left on device\n"
        ))
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


class TestMaxDegreeTerms:
    """--max-degree takes BASE^EXP as --points does; a decimal is read as
    before, and a power past sys.maxsize is refused before it is built."""

    def test_int_or_power(self):
        assert int_or_power("32") == int_or_power("2^5") == int_or_power(" 2^5 ") == 32
        assert int_or_power("3^0") == 1 and int_or_power("-7") == -7
        assert int_or_power(str(2**70)) == 2**70  # a decimal is not bounded here
        assert int_or_power("2^62") == 2**62
        start = time.monotonic()
        for text in ("2^63", "3^40", "10^100000000"):
            with pytest.raises(OverflowError, match="^cannot fit 'int' into an index-sized"):
                int_or_power(text)
        assert time.monotonic() - start < 0.5
        for text in ("2^x", "2^^4", "abc", "2^-1", "0^-1", ""):
            with pytest.raises(ValueError):
                int_or_power(text)

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--spec", "{spec}"],
        ["preset", "--name", "dual_steenrod", "--p", "3"],
        ["ehp", "--p", "2", "--excess", "2"],
    ], ids=["hilbert", "preset", "ehp"])
    def test_power_gives_the_decimal_output(self, argv, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("p = 2\ngen poly deg = 3\ngen ext deg = 2^i for i = 0..4\n")
        argv = [arg.format(spec=spec) for arg in argv]
        for fmt in ("json", "csv"):
            outputs = []
            for degree in ("32", "2^5"):
                assert main([*argv, "--max-degree", degree, "--format", fmt]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1] and outputs[0].out

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--spec", "{spec}"],
        ["preset", "--name", "s_k", "--h", "0"],
        ["ehp", "--p", "2", "--excess", "1"],
    ], ids=["hilbert", "preset", "ehp"])
    @pytest.mark.parametrize("degree, message", [
        ("2^62", f"truncation {2**62} is not below the cap {2**24}"),
        ("2^70", "cannot fit 'int' into an index-sized integer"),
        ("16777216", f"truncation {2**24} is not below the cap {2**24}"),
    ])
    def test_degree_past_the_cap_exits_three(self, argv, degree, message, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("p = 2\ngen poly deg = 5\n")
        argv = [arg.format(spec=spec) for arg in argv]
        start = time.monotonic()
        code, out, err = run_cli(*argv, "--max-degree", degree, timeout=10)
        assert time.monotonic() - start < 1.0
        assert (code, out, err) == (3, "", f"stemsize: resource guard: {message}\n")

    @pytest.mark.parametrize("command", ["hilbert", "preset", "ehp"])
    @pytest.mark.parametrize("degree", ["2^x", "abc", "0^-1", "2^-1"])
    def test_malformed_degree_exits_one(self, command, degree, capsys):
        argv = {"hilbert": ["hilbert", "--spec", "unread.txt"],
                "preset": ["preset", "--name", "s_k"],
                "ehp": ["ehp", "--excess", "1"]}[command]
        assert main([*argv, "--max-degree", degree]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("stemsize: error: argument --max-degree: ")
        assert repr(degree) in err

"""Command-line surface: batch computation, verification suites, and table
emission.

Exit codes: 0 success, 1 validation error, 2 verification-suite failure,
3 resource-guard trip.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import algebra, asymptotics, ehp, presets, series, torsion, verify

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY_FAILED = 2
EXIT_RESOURCE = 3

# Largest spec or curve-table file read, in bytes.  The DSL parses about
# 1.5 s per MiB, and no spec in the tests reaches 20 KB.
MAX_INPUT_BYTES = 1 << 20


class CliError(ValueError):
    """A validation problem in the command line or its input files."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        raise CliError(message)


def int_or_power(text: str) -> int:
    """The integer 'N' or 'BASE^EXP' names (--max-degree, parse_points).  A
    power past sys.maxsize raises OverflowError before it is built."""
    base, caret, exp = text.partition("^")
    base, exp = int(base), int(exp) if caret else 1
    if exp < 0:
        raise ValueError(f"negative exponent in {text.strip()!r}")
    # b^e >= 2^(e * (bit_length(b) - 1)): refuse before building it
    too_big = exp * (base.bit_length() - 1) >= sys.maxsize.bit_length()
    if caret and (too_big or base**exp > sys.maxsize):
        raise OverflowError("cannot fit 'int' into an index-sized integer")
    return base**exp


def parse_points(expr: str) -> list[int]:
    """Point lists: '2^6..2^16' (per-exponent powers), '10..20' (unit step),
    or comma-separated integers, each term allowing base^exp.  A point past
    sys.maxsize raises ResourceLimitError: no series list reaches it."""

    def term(s: str) -> int:
        try:
            if (value := int_or_power(s)) <= sys.maxsize:
                return value
        except OverflowError:
            pass
        raise series.ResourceLimitError(
            f"point {s.strip()} is above sys.maxsize = {sys.maxsize}")

    try:
        if ".." not in expr:
            return [term(s) for s in expr.split(",") if s.strip()]
        lo_s, _, hi_s = expr.partition("..")
        powers = "^" in lo_s and "^" in hi_s
        if powers:
            (base, lo), (base2, hi) = (map(int, s.split("^")) for s in (lo_s, hi_s))
            if base != base2:
                raise CliError(f"mismatched bases in point range {expr!r}")
        else:
            lo, hi = term(lo_s), term(hi_s)
        if hi < lo:
            raise CliError(f"empty point range {expr!r}")
        term(hi_s)  # the top end decides before any list is built
        if hi - lo > 1_000_000:
            raise CliError(f"point range {expr!r} is too large")
        if not powers:
            return list(range(lo, hi + 1))
        return [base**e for e in range(lo, hi + 1)]  # none above the top end
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad point expression {expr!r}: {exc}") from None


def _read_input(path: str, what: str) -> str:
    """The UTF-8 text of a spec or curve-table file, newlines translated as
    text-mode `open` does.  A file past MAX_INPUT_BYTES raises
    ResourceLimitError before any parsing: no more than one byte past the
    cap is read."""
    try:
        with open(path, "rb") as fh:
            # read(n) allocates n bytes first, which costs a small file about
            # 20 us at n = 2^20: read the rest only when a first block fills
            data = fh.read(1 << 16)
            if len(data) == 1 << 16:
                data += fh.read(MAX_INPUT_BYTES + 1 - len(data))
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from None
    if len(data) > MAX_INPUT_BYTES:
        raise series.ResourceLimitError(
            f"{what} {path!r} is larger than the cap of {MAX_INPUT_BYTES} bytes")
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load_curve(arg: str) -> torsion.VanishingCurve:
    if arg == "linear":
        return torsion.LinearCurve()
    if arg == "sqrt":
        return torsion.PowerLawCurve(0.5, 1.0)
    if arg.startswith("table:"):
        path = arg[len("table:"):]
        values = []
        for line_no, line in enumerate(_read_input(path, "curve table").split("\n"), 1):
            if not line.strip():
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise CliError(
                    f"curve table {path!r}, line {line_no}: "
                    f"expected an integer, got {line.strip()!r}"
                ) from None
        return torsion.TableCurve(tuple(values))
    raise CliError(f"unknown curve {arg!r}: expected linear, sqrt, or table:<path>")


class _LazyFile:
    """The --out file, opened at the first write: a guard that trips before
    the first byte leaves an existing file as it was."""

    fh = None

    def __init__(self, path: str) -> None:
        self.path = path

    def write(self, text: str) -> None:
        if self.fh is None:
            self.fh = open(self.path, "w", encoding="utf-8", newline="")
        self.fh.write(text)


def _emit(write, out: str | None, end: str = "") -> None:
    """Run write(stream) on stdout, then write `end`, or on the --out file."""
    file = None if out in (None, "-") else _LazyFile(out)
    try:
        try:
            write(file or sys.stdout)
        finally:
            if file and file.fh:
                file.fh.close()
        if not file:
            sys.stdout.write(end)
    except OSError as exc:
        raise CliError(f"cannot write output {out or '-'!r}: {exc}") from None


def _emit_as(fmt: str, out: str | None, write_json, rows) -> None:
    """Emit JSON by write_json(stream), then a newline on stdout, or rows()
    as CSV; only the requested form is built, as it is written."""
    if fmt == "json":
        _emit(write_json, out, "\n")
    else:
        _emit(lambda fh: csv.writer(fh, lineterminator="\n").writerows(rows()), out)


def _spec(args) -> algebra.AlgebraSpec:
    """The algebra a request names: the --spec DSL file, or the preset built
    from --name, --p, --h, --drop-q0 and --simplify-odd (--h is k for s_k)."""
    if args.spec is not None:
        return algebra.parse_spec(_read_input(args.spec, "spec"))
    return presets.preset(
        args.name,
        args.p,
        h=args.h,
        k=args.h if args.name == "s_k" else None,
        drop_q0=args.drop_q0,
        simplify_odd=args.simplify_odd,
    )


def _cmd_series(args) -> int:
    fn = algebra.hilbert_cumulative if args.cumulative else algebra.hilbert
    series = fn(_spec(args), args.max_degree)
    _emit_as(args.format, args.out, series.to_json, series.csv_rows)
    return EXIT_OK


def _cmd_torsion(args) -> int:
    report = torsion.stable_torsion_bound(args.p, args.n, _load_curve(args.curve))
    _emit_as(args.format, args.out, lambda fh: fh.write(report.to_json()), report.csv_rows)
    return EXIT_OK


def _cmd_ehp(args) -> int:
    if args.max_dim is not None:
        seqs = ehp.enumerate_I(args.p, args.excess, args.max_dim)
        _emit_as(
            args.format, args.out,
            lambda fh: fh.write(json.dumps([J.to_json_obj() for J in seqs], indent=2)),
            lambda: [("entries", "dim"),
                     *((repr(list(J.entries)), str(J.dim)) for J in seqs)],
        )
        return EXIT_OK
    trunc = 40 if args.max_degree is None else args.max_degree
    series = ehp.a_series(args.p, args.excess, trunc)
    _emit_as(args.format, args.out, series.to_json, series.csv_rows)
    return EXIT_OK


# The flags only a ratio profile reads: --h, --drop-q0 and --simplify-odd
# build its preset, --exponent sets its power of ln(n).
_PROFILE_FLAGS = ("h", "drop_q0", "simplify_odd", "exponent")


def _refuse_unused(args, mode: str, *names: str) -> None:
    """Exit 1 on the first of the named flags that was given: `mode` would
    ignore it.  An absent flag is None, or False for a switch."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise CliError(f"--{name.replace('_', '-')} does not apply to {mode}")


def _cmd_asymptotics(args) -> int:
    if args.points is not None:
        if args.name is None:
            raise CliError("ratio profiles need --name <preset>")
        _refuse_unused(args, "ratio profiles", "n", "lower_ceiling")
        points = parse_points(args.points)
        exponent = 3 if args.exponent is None else args.exponent
        result = asymptotics.ratio_profile(_spec(args), exponent, points)
    elif args.name is not None or args.n is not None:
        if args.name is None or args.n is None:
            raise CliError("bracketing checks need --name <model> and --n <scale m>; "
                           "ratio profiles need --name <preset> and --points")
        _refuse_unused(args, "bracketing checks", *_PROFILE_FLAGS)
        if args.lower_ceiling is not None and args.name != "may_model":
            raise CliError("--lower-ceiling applies only to the may_model bracketing check")
        # an unknown model exits 1 here, with bracketing_check's message
        result = asymptotics.bracketing_check(
            args.p, args.n, args.name, lower_ceiling=args.lower_ceiling)
    else:
        _refuse_unused(args, "the growth constants", *_PROFILE_FLAGS, "lower_ceiling")
        result = asymptotics.constants(args.p)
    _emit_as(args.format, args.out,
             lambda fh: fh.write(json.dumps(result.to_json_obj(), indent=2)),
             result.csv_rows)
    # only a bracketing report has a verdict
    return EXIT_OK if getattr(result, "ok", True) else EXIT_VERIFY_FAILED


def _cmd_verify(args) -> int:
    results = verify.run(args.suite, args.seed)
    _emit(lambda fh: fh.write(verify.format_report(results, args.suite, args.seed)),
          args.out)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="stemsize", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, prime=True, degree=False):
        if prime:
            p.add_argument("--p", type=int, default=2, help="prime p")
        if degree:
            p.add_argument("--max-degree", type=int_or_power, required=True,
                           help="series truncation N")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def preset_flags(p):  # the preset parameters `_spec` reads
        p.add_argument("--h", type=int, default=None,
                       help="family parameter (h, or k for s_k)")
        p.add_argument("--drop-q0", action="store_true")
        p.add_argument("--simplify-odd", action="store_true")
        p.set_defaults(spec=None)

    p = sub.add_parser("hilbert", help="Hilbert series of a spec file")
    p.add_argument("--spec", required=True, help="path to a spec in the gen DSL")
    p.add_argument("--cumulative", action="store_true")
    common(p, prime=False, degree=True)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("preset", help="Hilbert series of a named preset")
    p.add_argument("--name", required=True, choices=presets.PRESET_NAMES)
    preset_flags(p)
    p.add_argument("--cumulative", action="store_true")
    common(p, degree=True)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("torsion", help="stable torsion-exponent bound")
    p.add_argument("--n", type=int, required=True, help="stem degree")
    p.add_argument("--curve", default="linear",
                   help="vanishing curve: linear | sqrt | table:<path>")
    common(p)
    p.set_defaults(fn=_cmd_torsion)

    p = sub.add_parser("ehp", help="completely unadmissible sequences / A(n;t)")
    p.add_argument("--excess", type=int, required=True, help="excess n")
    # argparse counts an option as given only if its value is not the
    # default object, so --max-degree 40 would pass beside a default of 40
    listing = p.add_mutually_exclusive_group()
    listing.add_argument("--max-dim", type=int, default=None,
                         help="list sequences up to this dimension")
    listing.add_argument("--max-degree", type=int_or_power, default=None,
                         help="series truncation (default 40)")
    common(p)
    p.set_defaults(fn=_cmd_ehp)

    p = sub.add_parser("asymptotics",
                       help="growth constants, ratio profiles, bracketing checks")
    p.add_argument("--name", default=None,
                   help="preset for --points profiles, or a bracketing model")
    p.add_argument("--points", default=None,
                   help="sample points, e.g. 2^6..2^16 or 100,200,400")
    p.add_argument("--exponent", type=int, choices=(2, 3), default=None,
                   help="power of ln(n) in ratio profiles (default 3)")
    p.add_argument("--n", type=int, default=None, help="bracketing scale m")
    p.add_argument("--lower-ceiling", type=int, default=None,
                   help="force the exact lower check up to this rank budget")
    preset_flags(p)
    common(p)
    p.set_defaults(fn=_cmd_asymptotics)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (%s)" % ", ".join(sorted(verify.SUITES)))
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(fn=_cmd_verify)
    return parser


# One parser serves every `main` call in a process: building it costs more
# than a small request, and `parse_args` leaves it unchanged (each call makes
# a fresh Namespace; `_Parser.error` raises without keeping state).
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.fn(args)
    except series.ResourceLimitError as exc:
        print(f"stemsize: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:  # a backstop: the guards above should trip first
        print("stemsize: resource guard: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except OverflowError as exc:  # a backstop too: a size past any index
        print(f"stemsize: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"stemsize: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the per-request fixed cost of the CLI, cumulative rank series at
large truncations in three fold regimes, and the EHP series A(n;t) and P(A;t).

- cli: 300 in-process `stemsize.cli.main` calls of
  `torsion --p 3 --n 100` (one parser serves them all; the parser and the
  Python import are the fixed costs of a request), then the CPU time of a
  `verify` run of each suite the `cli_mix` benchmark workload runs (series,
  algebra, presets, torsion, ehp), best of 5 with stdout discarded, so the
  report shows where that workload's verify time goes.  The torsion suite's
  three counting-lemma scans (p = 2, 3, 5, on prebuilt valuation sieves)
  are also timed alone, best of 5.

`hilbert` folds each generator on the multiples of the gcd of the degrees
folded so far, largest degree first, so its cost depends on the degrees and
on the generator kinds:

- generic: the May E1 model (p = 2) at N = 2^18.  Its polynomial degrees
  have gcd 1 and form no chain, so nearly every generator folds over all
  N + 1 coefficients, by blocked or strided running sums.  This is the gate
  case (under five minutes in `tests/test_acceptance.py`); N = 2^20 is a
  stretch measurement, reported with --stretch but not gated.
- trunc: a DSL spec of exterior and truncated(3), truncated(5) families in
  degrees from 301 to 2296, all well above sqrt(N), at N = 2^16.  Every
  generator folds over all N + 1 coefficients through the exterior and
  truncated branches of the in-place kernel `series._fold`, run on the
  working list that `hilbert` keeps for the whole fold.
- chain: the may_model algebra (p = 2), whose degrees 2^n form a
  divisibility chain, so a generator of degree d folds on N // d + 1
  coefficients.  Measured at N = 2^18 - 1 (the m = 18 upper bracketing
  check) and at N = 1,490,853 = C(14, 2) (2^14 - 1) (the m = 14 lower check).
- ehp: A(1;t) at p = 2, N = 300 (3.0M sequences), counted by the
  prefix-sum census of `stemsize.ehp`, so the time grows with N, not with
  the counts; the enumerators it replaced took seconds here.  Then P(A;t)
  at p = 2, N = 4000, twice: by `admissible_series`, which folds the dual
  Steenrod algebra in `hilbert` (Milnor's theorem), and by the admissible
  census `ehp._admissible_counts` that the tests and `verify` check it
  against, whose O(N^2) rows took 1.1 s and a 310 MB RSS peak (2-vCPU VM,
  Python 3.11.7) against about 2 ms for `hilbert`.
"""

import argparse
import contextlib
import io
import time

from stemsize import cli, verify
from stemsize.algebra import AlgebraSpec, hilbert_cumulative, parse_spec
from stemsize.ehp import _admissible_counts, a_series, admissible_series
from stemsize.presets import preset

TRUNC_SPEC = """\
p = 3
gen ext deg = 301 + 7*i for i = 0..199
gen trunc(3) deg = 302 + 11*i for i = 0..149
gen trunc(5) deg = 1009 + 13*i for i = 0..99
"""


def measure(regime: str, label: str, spec: AlgebraSpec, trunc: int) -> None:
    start = time.monotonic()
    series = hilbert_cumulative(spec, trunc)
    elapsed = time.monotonic() - start
    top = series[trunc]
    print(
        f"{regime:8} {label}, N = {trunc}: {elapsed:.2f} s, "
        f"top coefficient {top.bit_length()} bits "
        f"(~10^{len(str(top)) - 1})"
    )


def measure_preset(regime: str, name: str, trunc: int, **kwargs) -> None:
    spec = preset(name, 2, **kwargs)
    measure(regime, spec.label, spec, trunc)


def measure_census(label: str, series_fn, *args) -> None:
    start = time.monotonic()
    series = series_fn(*args)
    elapsed = time.monotonic() - start
    print(f"{'ehp':8} {label}: {elapsed * 1000:.1f} ms, {sum(series)} counted")


VERIFY_SUITES = ("series", "algebra", "presets", "torsion", "ehp")


def best_cpu(fn, *args, repeats: int = 5):
    """The least process CPU time of `repeats` calls of fn(*args), and the
    last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        result = fn(*args)
        best = min(best, time.process_time() - start)
    return best, result


def measure_cli(calls: int = 300) -> None:
    argv = ["torsion", "--p", "3", "--n", "100"]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.monotonic()
        for _ in range(calls):
            cli.main(argv)
        per_call = (time.monotonic() - start) / calls
    print(f"{'cli':8} {' '.join(argv)}: {per_call * 1000:.3f} ms per call over {calls}")
    for suite in VERIFY_SUITES:
        with contextlib.redirect_stdout(io.StringIO()):
            elapsed, code = best_cpu(cli.main, ["verify", "--suite", suite])
        print(f"{'cli':8} verify --suite {suite}: {elapsed * 1000:.1f} ms CPU, exit {code}")
    for p in (2, 3, 5):
        elapsed, (ok, _) = best_cpu(verify._counting_scan, p, verify._valuation_sieve(p))
        print(f"{'cli':8} counting-lemma scan, p = {p}: {elapsed * 1000:.2f} ms CPU, ok {ok}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stretch", action="store_true",
                        help="also measure may_e1 at N = 2^20 (several minutes)")
    args = parser.parse_args()
    measure_cli()
    measure_preset("generic", "may_e1", 2**18, drop_q0=True)
    if args.stretch:
        measure_preset("generic", "may_e1", 2**20, drop_q0=True)
    measure("trunc", "ext/trunc(3)/trunc(5) families, p = 3", parse_spec(TRUNC_SPEC), 2**16)
    measure_preset("chain", "may_model", 2**18 - 1)
    measure_preset("chain", "may_model", 14 * 13 // 2 * (2**14 - 1))
    measure_census("A(1;t), p = 2, N = 300", a_series, 2, 1, 300)
    measure_census("P(A;t) by hilbert, p = 2, N = 4000", admissible_series, 2, 4000)
    measure_census("P(A;t) by census, p = 2, N = 4000", _admissible_counts, 2, 4000)


if __name__ == "__main__":
    main()

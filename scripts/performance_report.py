#!/usr/bin/env python3
"""Time the import and per-request fixed cost of the CLI, cumulative rank
series at large truncations in three fold regimes and on the gcd lattice,
and the EHP series A(n;t) and P(A;t).  Run with ``src`` on PYTHONPATH.

- import: `import stemsize.cli` in 15 fresh interpreters, by the thread
  time of the import, as median and quartiles; twice.  First with
  PYTHONDONTWRITEBYTECODE=1, so every interpreter compiles the package from
  source, as the benchmark's passes do when that variable is set.  Then
  with a warm bytecode cache under ``-X pycache_prefix`` in a temporary
  directory, so nothing is written into ``src``.  Last, each stemsize
  module's self time from one ``-X importtime`` run without a cache.
- cli: 300 in-process `stemsize.cli.main` calls of
  `torsion --p 3 --n 100` (one parser serves them all; the parser and the
  Python import are the fixed costs of a request).  The torsion suite's
  three counting-lemma scans (p = 2, 3, 5, on prebuilt valuation sieves)
  are also timed alone, best of 5.
- verify: each check of each suite the `cli_mix` benchmark workload runs
  (series, algebra, presets, torsion, ehp), at the default seed, by the CPU
  time the suite's generator runs before it yields the check (drawing its
  inputs included), best of 5, and each suite's total, so the report shows
  where that workload's verify time goes.  The torsion suite builds its
  g(n), log_p(n) and window-sum tables once per process, so a best of 5
  shows its warm runs only; the whole suite is also timed on empty table
  caches (each builder's `cache_clear()` before every run) and on warm
  ones, best of 5 each, as two lines.  Then both exact oracles on the
  60 (spec, truncation) pairs that `hilbert_vs_oracle` draws (the
  log-derivative recurrence the check runs, and the monomial walk
  `oracle_hilbert`), and the recurrence against `hilbert` on may_e1 at
  p = 2, N = 2048, where the recurrence's O(N^2) products cost about 35
  times the fold (0.21 s against 6 ms, 2-vCPU VM, Python 3.11.7).

`hilbert` folds each generator on the multiples of the gcd of the degrees
folded so far, largest degree first, so its cost depends on the degrees and
on the generator kinds.  Each regime's line ends with totals read from the
`Plan` that `algebra._plan` returns: generators folded on the sparse start
and the support terms planned for them, generators packed, unit passes, power
steps and the estimated list coefficient additions.

- generic: the May E1 model (p = 2) at N = 2^18.  Its polynomial degrees
  have gcd 1 and form no chain, so nearly every generator folds over all
  N + 1 coefficients, by blocked or strided running sums.  This is the gate
  case (under five minutes in `tests/test_acceptance.py`); N = 2^20 is a
  stretch measurement, reported with --stretch but not gated.
- trunc: a DSL spec of exterior and truncated(3), truncated(5) families in
  degrees from 301 to 2296, all well above sqrt(N), at N = 2^16.  The 52
  of lowest degree fill the 64-bit slots of the packed start (see
  nilpotent); each of the other 398 folds over all N + 1 coefficients
  through the exterior and truncated branches of the in-place kernel
  `series._fold`, run on the working list that `hilbert` keeps for the
  whole fold.
- nilpotent: `hilbert` on two specs with many exterior and truncated
  generators, best of 5 CPU times: NILPOTENT_SPEC, a spec of the shape of
  the `generic_fold` benchmark workload's DSL requests with an exterior
  and a truncated(3) family, at N = 4096, and may_e1 at p = 3,
  N = 3^9, whose h_ij are exterior.  `hilbert` starts from the product of
  the nilpotent generators the plan packs into one int of 64-bit slots.
- sparse: `hilbert_cumulative` of the p = 2 presets whose largest degrees
  are nearly coprime, such as 2^14 - 3 and 2^14 - 5, at N = 2^14, best of
  5 CPU times: mrs_e2_model (h = 2), dual_steenrod, y_h_lifted (h = 2
  and 3) and may_e1.  Past two such generators the gcd is 1 while the
  series has a few nonzero terms, so the plan folds the largest
  generators on the dict of those terms before the list.
- starts: `hilbert` on eight specs between N = 300 and 2^14 (NILPOTENT_SPEC,
  may_e1, dual_steenrod and mrs_e2_model at p = 3, TRUNC_SPEC) and two
  DSL specs of the `generic_fold` pool at N = 4096: the start the plan
  takes (packed, sparse or plain) with its predicted cost, then the best of
  5 CPU times with each start forced in turn, by patching
  `algebra._PACK_OVERHEAD` and `algebra._SPARSE_START`.
- chain: the may_model algebra (p = 2), whose degrees 2^n form a
  divisibility chain, so a generator of degree d folds on N // d + 1
  coefficients.  Measured at N = 2^18 - 1 (the m = 18 upper bracketing
  check) and at N = 1,490,853 = C(14, 2) (2^14 - 1) (the m = 14 lower check).
- lattice: cumulative ranks of p-power chains, best of 5 CPU times.
  `hilbert_cumulative` sums the fold's coefficients on the multiples of
  the gcd g of the degrees and holds each sum over its block of g degrees;
  `max_over_h` walks the runs on which each cumulative rank is constant.
  Timed: `max_over_h` of r_h_einf at p = 2, N = 2^12 - 1 (the m = 12
  bracketing check), and `hilbert_cumulative` of may_model at
  N = 18396 = C(9, 2) (2^9 - 1) (the m = 9 lower check) and of s_k, k = 1,
  at N = 2^13, each with its g.
- ehp: A(1;t) at p = 2, N = 300 (3.0M sequences) and N = 20000, by the
  fold of `stemsize.ehp`, which adds the partial products of the dual
  Steenrod fold, shifted, so the time grows as N log N, not with the
  counts; best of 3 CPU times of the uncached fold, and the peak RSS of
  `stemsize ehp --p 2 --excess 1 --max-degree N` in a child interpreter,
  read as in output below.  The O(N^2) chain census the fold replaced
  took 0.64 s and peaked at 173 MB at N = 3000, and ran out of a 2 GB
  address space at N = 20000; the fold takes 0.12 s and 16 MB there,
  and 0.20 s and 19 MB at N = 20000, as whole CLI requests (2-vCPU VM,
  Python 3.11.7).  Then P(A;t) at p = 2, N = 4000, twice: by
  `admissible_series`, which folds the dual Steenrod algebra in `hilbert`
  (Milnor's theorem), and by the admissible census
  `ehp._admissible_counts` that the tests and `verify` check it against,
  whose O(N^2) rows took 1.1 s and a 310 MB RSS peak (2-vCPU VM,
  Python 3.11.7) against about 2 ms for `hilbert`.
- presets: building every name of `PRESET_NAMES` at p = 2 and 3 with
  h = 2, k = 1 and drop_q0, best of 5 CPU times, once on an empty cache
  (each preset's DSL text parsed) and once warm (each text parsed once per
  process, so only the checks, the label and the cache lookup remain).
- listing: `enumerate_I`, the oracle of `a_series` and the engine of
  `stemsize ehp --max-dim`, best of 3 CPU times, with the number of
  sequences listed or "exit 3" where the 100,000-sequence guard trips:
  I(1) at p = 2, cap 120 (42,326 sequences), at p = 3, cap 200 (3,708), and
  at p = 2, cap 200, which trips the guard.
- output: the peak RSS of a CLI request in a child interpreter, which
  reads its own high-water mark (VmHWM in /proc/self/status; its
  ``ru_maxrss`` would also count this script's peak, which Linux carries
  over exec) after `import stemsize.cli` and after the request:
  `preset --name may_e1 --p 2 --max-degree 16384 --drop-q0` as JSON on
  stdout, and `hilbert` of one polynomial generator in degree 1 with
  multiplicity 10^8 at N = 2000 (coefficients of up to 10,265 digits) as
  JSON and as CSV to a file.  Series text goes out in pieces of about 2^16
  bits of digits, so the last two peak about 8.5 MB above the import
  (2-vCPU VM, Python 3.11.7), near the size of the series itself, against
  29 and 34 MB when the text was built whole.
"""

import argparse
import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from unittest import mock

from stemsize import algebra, cli, ehp, presets, verify
from stemsize.algebra import AlgebraSpec, hilbert_cumulative, parse_spec
from stemsize.ehp import _admissible_counts, admissible_series, enumerate_I
from stemsize.presets import max_over_h, preset
from stemsize.series import ResourceLimitError

TRUNC_SPEC = """\
p = 3
gen ext deg = 301 + 7*i for i = 0..199
gen trunc(3) deg = 302 + 11*i for i = 0..149
gen trunc(5) deg = 1009 + 13*i for i = 0..99
"""

NILPOTENT_SPEC = """\
p = 3
gen poly deg = 2*i^2 + 3*i + 5 for i = 1..inf
gen poly deg = 5^i + 2 for i = 0..inf
gen ext deg = 13*j + 4 for j = 0..29
gen trunc(3) deg = 17*j + 9 for j = 0..19
gen poly deg = 11 mult = 2
"""


def plan_totals(spec: AlgebraSpec, trunc: int) -> str:
    """The totals of `hilbert`'s fold plan, from its steps' kernels and
    work: generators folded on the sparse start and the support terms
    planned for them, generators packed, unit passes, power steps and the
    estimated list coefficient additions."""
    gens = algebra.instantiate(spec, trunc)
    plan = algebra._plan(gens, trunc)
    sparse = [step.work for step in plan.steps if step.kernel == "sparse"]
    units = sum(step.mult for step in plan.steps if step.kernel == "unit")
    powers = sum(step.kernel == "power" for step in plan.steps)
    return (f"{len(sparse)} of {len(gens)} generators fold sparse on {sum(sparse)} support "
            f"terms; {len(plan.picked)} of {len(gens)} generators packed, {units} unit passes, "
            f"{powers} power steps, {plan.cost} coefficient additions")


def measure(regime: str, label: str, spec: AlgebraSpec, trunc: int) -> None:
    start = time.monotonic()
    series = hilbert_cumulative(spec, trunc)
    elapsed = time.monotonic() - start
    top = series[trunc]
    print(
        f"{regime:8} {label}, N = {trunc}: {elapsed:.2f} s, "
        f"top coefficient {top.bit_length()} bits "
        f"(~10^{len(str(top)) - 1}); {plan_totals(spec, trunc)}"
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

IMPORT_RUNS = 15
IMPORT_CODE = (
    "import time; start = time.thread_time(); import stemsize.cli; "
    "print(time.thread_time() - start)"
)


def import_cpu(env: dict, args: list[str]) -> list[float]:
    """Thread time of `import stemsize.cli` in IMPORT_RUNS fresh interpreters."""
    return [
        float(subprocess.run([sys.executable, *args, "-c", IMPORT_CODE], env=env,
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_RUNS)
    ]


def measure_import() -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cold = dict(env, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cache:
        warm = ["-X", f"pycache_prefix={cache}"]
        import_cpu(env, warm)  # fills the cache
        regimes = {"PYTHONDONTWRITEBYTECODE=1": import_cpu(cold, []),
                   "warm bytecode cache": import_cpu(env, warm)}
    for label, times in regimes.items():
        q1, median, q3 = statistics.quantiles(times, n=4)
        print(f"{'import':8} import stemsize.cli, {label}: median {median * 1000:.1f} ms, "
              f"quartiles {q1 * 1000:.1f}-{q3 * 1000:.1f} ms thread time "
              f"over {IMPORT_RUNS} interpreters")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stemsize.cli"],
                          env=cold, capture_output=True, text=True, check=True)
    for line in proc.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <module>"
        self_us, _, module = line.partition(":")[2].split("|")
        if module.strip().startswith("stemsize"):
            print(f"{'import':8} self time of {module.strip()}: {int(self_us) / 1000:.1f} ms")


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
    for p in (2, 3, 5):
        elapsed, (ok, _) = best_cpu(verify._counting_scan, p, verify._valuation_sieve(p))
        print(f"{'cli':8} counting-lemma scan, p = {p}: {elapsed * 1000:.2f} ms CPU, ok {ok}")


def check_times(suite: str) -> list[tuple[str, float]]:
    """(check name, CPU time) for each check of a verify suite at the
    default seed: the time its generator runs before yielding the check."""
    times = []
    start = time.process_time()
    for name, _, _ in verify.SUITES[suite](random.Random(verify.DEFAULT_SEED)):
        now = time.process_time()
        times.append((name, now - start))
        start = now
    return times


def measure_verify(suites: tuple[str, ...] = VERIFY_SUITES, repeats: int = 5) -> None:
    for suite in suites:
        runs = [check_times(suite) for _ in range(repeats)]
        best = [min(times) for times in zip(*([t for _, t in run] for run in runs))]
        for (name, _), elapsed in zip(runs[0], best):
            print(f"{'verify':8} {suite}.{name}: {elapsed * 1000:.2f} ms CPU")
        print(f"{'verify':8} {suite} suite: {sum(best) * 1000:.1f} ms CPU, "
              f"best of {repeats} per check")


TORSION_TABLES = (verify._log_table, verify._curve_table, verify._window_sums)


def torsion_suite(cold: bool) -> int:
    """Run the torsion suite at the default seed, on empty table caches if
    cold; the number of checks it yields."""
    if cold:
        for builder in TORSION_TABLES:
            builder.cache_clear()
    return sum(1 for _ in verify.SUITES["torsion"](random.Random(verify.DEFAULT_SEED)))


def measure_torsion_tables(repeats: int = 5) -> None:
    torsion_suite(cold=False)  # fills the caches
    for state, cold in (("empty table caches", True), ("warm table caches", False)):
        elapsed, checks = best_cpu(torsion_suite, cold, repeats=repeats)
        print(f"{'verify':8} torsion suite, {state}: {elapsed * 1000:.1f} ms CPU "
              f"for {checks} checks, best of {repeats}")


def algebra_draws(seed: int = verify.DEFAULT_SEED) -> list[tuple[AlgebraSpec, int]]:
    """The 60 (spec, truncation) pairs that the algebra suite's
    hilbert_vs_oracle draws first from seed."""
    rng = random.Random(seed)
    return [(verify.random_spec(rng), rng.randint(0, 24)) for _ in range(60)]


def measure_oracles() -> None:
    draws = algebra_draws()
    for name, oracle in (("log-derivative recurrence", algebra._log_derivative_hilbert),
                         ("monomial walk", algebra.oracle_hilbert)):
        elapsed, _ = best_cpu(lambda: [oracle(s, n) for s, n in draws])
        print(f"{'verify':8} algebra oracle, {name}: {elapsed * 1000:.2f} ms CPU")
    spec = preset("may_e1", 2, drop_q0=True)
    for name, fn in (("recurrence", algebra._log_derivative_hilbert), ("hilbert", algebra.hilbert)):
        elapsed, _ = best_cpu(fn, spec, 2048, repeats=3)
        print(f"{'verify':8} may_e1, p = 2, N = 2048 by {name}: {elapsed * 1000:.1f} ms CPU")


def measure_nilpotent(dsl_trunc: int = 4096, may_trunc: int = 3**9) -> None:
    cases = (("generic_fold-shaped DSL spec", parse_spec(NILPOTENT_SPEC), dsl_trunc),
             ("may_e1, p = 3", preset("may_e1", 3, drop_q0=True), may_trunc))
    for label, spec, trunc in cases:
        elapsed, _ = best_cpu(algebra.hilbert, spec, trunc)
        print(f"{'nilpotent':8} {label}, N = {trunc}: {elapsed * 1000:.1f} ms CPU; "
              f"{plan_totals(spec, trunc)}")


# Two DSL specs of the generic_fold benchmark pool (generic_dsl-031 and
# generic_dsl-011), one with an exterior family and one with a truncated(3)
# family.
GENERIC_SPECS = (
    "p = 2\ngen poly deg = 3*i^2 + 5*i + 2 for i = 1..inf\ngen poly deg = 7^i + 6 for i = 0..inf\n"
    "gen ext deg = 9*j + 2 for j = 0..17\ngen poly deg = 2 mult = 1\n",
    "p = 3\ngen poly deg = 3*i^2 + 3*i + 1 for i = 1..inf\ngen poly deg = 5^i + 2 for i = 0..inf\n"
    "gen trunc(3) deg = 27*j + 4 for j = 0..19\ngen poly deg = 24 mult = 1\n",
)

# Each start forced by the plan's constants: a cost of -FORCE for a start
# takes it wherever it exists, of FORCE rules it out.
FORCE = 10**18
STARTS = (("packed", -FORCE, FORCE), ("sparse", FORCE, -FORCE), ("plain", FORCE, FORCE))


def start_of(plan: algebra.Plan) -> str:
    if plan.picked:
        return "packed"
    return "sparse" if any(step.kernel == "sparse" for step in plan.steps) else "plain"


def starts_cases() -> list[tuple[str, AlgebraSpec, int]]:
    nilpotent = parse_spec(NILPOTENT_SPEC)
    may_e1 = preset("may_e1", 3, drop_q0=True)
    return [
        ("NILPOTENT_SPEC", nilpotent, 300), ("NILPOTENT_SPEC", nilpotent, 1024),
        ("NILPOTENT_SPEC", nilpotent, 4096), ("may_e1, p = 3", may_e1, 3**6),
        ("may_e1, p = 3", may_e1, 3**9), ("dual_steenrod, p = 3", preset("dual_steenrod", 3), 4096),
        ("TRUNC_SPEC", parse_spec(TRUNC_SPEC), 2**14),
        ("mrs_e2_model, p = 3, h = 2", preset("mrs_e2_model", 3, h=2), 3**8),
        *((f"generic_fold DSL spec {i}", parse_spec(text), 4096)
          for i, text in enumerate(GENERIC_SPECS, start=1)),
    ]


def measure_starts(trunc: int | None = None, repeats: int = 5) -> None:
    """For each case: the start `algebra._plan` takes and its predicted
    cost, then `hilbert`'s best CPU time with each start forced, or n/a
    where that start does not exist."""
    for label, spec, n in starts_cases():
        n = n if trunc is None else trunc
        plan = algebra._plan(algebra.instantiate(spec, n), n)
        times = []
        for name, pack, sparse in STARTS:
            with mock.patch.object(algebra, "_PACK_OVERHEAD", pack), \
                    mock.patch.object(algebra, "_SPARSE_START", sparse):
                if start_of(algebra._plan(algebra.instantiate(spec, n), n)) != name:
                    times.append(f"{name} n/a")
                    continue
                elapsed, _ = best_cpu(algebra.hilbert, spec, n, repeats=repeats)
            times.append(f"{name} {elapsed * 1000:.2f} ms")
        print(f"{'starts':8} {label}, N = {n}: plan starts {start_of(plan)}, "
              f"{plan.cost} coefficient additions; {', '.join(times)} CPU")


SPARSE_PRESETS = (("mrs_e2_model", {"h": 2}), ("dual_steenrod", {}), ("y_h_lifted", {"h": 2}),
                  ("y_h_lifted", {"h": 3}), ("may_e1", {"drop_q0": True}))


def measure_sparse(trunc: int = 2**14, repeats: int = 5) -> None:
    for name, kwargs in SPARSE_PRESETS:
        spec = preset(name, 2, **kwargs)
        elapsed, _ = best_cpu(hilbert_cumulative, spec, trunc, repeats=repeats)
        print(f"{'sparse':8} {spec.label}, N = {trunc}: {elapsed * 1000:.1f} ms CPU; "
              f"{plan_totals(spec, trunc)}")


BIG_MULT_SPEC = "p = 2\ngen poly deg = 1 mult = 100000000\n"
OUTPUT_CODE = """\
import resource, sys
import stemsize.cli

def peak_kb():
    # VmHWM, the high-water mark of this process's own pages: on Linux
    # ru_maxrss also counts the peak of the process that spawned it, which
    # the kernel carries over exec
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

base = peak_kb()
rc = stemsize.cli.main(sys.argv[1:])
print(rc, base, peak_kb(), file=sys.stderr)
"""


def output_peak(argv: list[str]) -> tuple[int, float, float, int]:
    """Run `stemsize` argv in a child interpreter: its exit code, its own
    peak RSS in MB after the import and after the request, and the bytes it
    wrote to stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", OUTPUT_CODE, *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, check=True)
    rc, base, peak = map(int, proc.stderr.split()[-3:])
    return rc, base / 1024, peak / 1024, len(proc.stdout)


def measure_output(trunc: int = 2**14, big_trunc: int = 2000) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.txt")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(BIG_MULT_SPEC)
        cases = [(f"preset may_e1, p = 2, N = {trunc}, JSON to stdout", None,
                  ["preset", "--name", "may_e1", "--p", "2", "--max-degree", str(trunc),
                   "--drop-q0", "--format", "json"])]
        for fmt in ("json", "csv"):
            out = os.path.join(tmp, f"out.{fmt}")
            cases.append((f"hilbert of mult 10^8 in degree 1, N = {big_trunc}, "
                          f"{fmt.upper()} to a file", out,
                          ["hilbert", "--spec", spec, "--max-degree", str(big_trunc),
                           "--format", fmt, "--out", out]))
        for label, out, argv in cases:
            rc, base, peak, written = output_peak(argv)
            if out is not None and rc == 0:
                written = os.path.getsize(out)
            print(f"{'output':8} {label}: peak RSS {peak:.1f} MB, {peak - base:.1f} MB "
                  f"above import, {written} bytes, exit {rc}")


def measure_lattice(max_trunc: int = 2**12 - 1, may_trunc: int = 18396,
                    s_trunc: int = 2**13, repeats: int = 5) -> None:
    elapsed, _ = best_cpu(max_over_h, "r_h_einf", 2, max_trunc, repeats=repeats)
    print(f"{'lattice':8} max_over_h r_h_einf, p = 2, N = {max_trunc}: "
          f"{elapsed * 1000:.2f} ms CPU")
    for spec, trunc in ((preset("may_model", 2), may_trunc), (preset("s_k", 2, k=1), s_trunc)):
        elapsed, _ = best_cpu(hilbert_cumulative, spec, trunc, repeats=repeats)
        _, g = algebra._lattice_fold(spec, trunc)
        print(f"{'lattice':8} hilbert_cumulative {spec.label}, N = {trunc}: "
              f"{elapsed * 1000:.2f} ms CPU, g = {g}")


def measure_ehp(truncs=(300, 20000), repeats: int = 3) -> None:
    for trunc in truncs:
        # `_a_counts` is cached: time the fold beneath the cache
        elapsed, counts = best_cpu(ehp._a_counts.__wrapped__, 2, 1, trunc, repeats=repeats)
        rc, _, peak, _ = output_peak(["ehp", "--p", "2", "--excess", "1",
                                      "--max-degree", str(trunc)])
        print(f"{'ehp':8} A(1;t) by the fold, p = 2, N = {trunc}: {elapsed * 1000:.1f} ms "
              f"CPU, {sum(counts)} counted; stemsize ehp peak RSS {peak:.1f} MB, exit {rc}")


def build_catalog(primes: tuple[int, ...], cold: bool) -> int:
    """Build every preset at each prime, on an empty parse cache if cold."""
    if cold:
        presets._parse.cache_clear()
    specs = [preset(name, p, h=2, k=1, drop_q0=True)
             for p in primes for name in presets.PRESET_NAMES]
    return len(specs)


def measure_presets(primes: tuple[int, ...] = (2, 3), repeats: int = 5) -> None:
    for state, cold in (("empty cache", True), ("warm cache", False)):
        elapsed, built = best_cpu(build_catalog, primes, cold, repeats=repeats)
        print(f"{'presets':8} {built} presets, every name at p = "
              f"{', '.join(map(str, primes))}, {state}: {elapsed * 1000:.3f} ms CPU")


LISTING_CASES = ((2, 1, 120), (3, 1, 200), (2, 1, 200))


def listing_size(p: int, n: int, cap: int) -> str:
    try:
        return f"{len(enumerate_I(p, n, cap))} sequences"
    except ResourceLimitError:
        return "exit 3"


def measure_listing(cases=LISTING_CASES, repeats: int = 3) -> None:
    for p, n, cap in cases:
        elapsed, size = best_cpu(listing_size, p, n, cap, repeats=repeats)
        print(f"{'listing':8} I({n}), p = {p}, cap {cap}: {elapsed * 1000:.1f} ms CPU, {size}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stretch", action="store_true",
                        help="also measure may_e1 at N = 2^20 (several minutes)")
    args = parser.parse_args()
    measure_import()
    measure_cli()
    measure_verify()
    measure_torsion_tables()
    measure_oracles()
    measure_preset("generic", "may_e1", 2**18, drop_q0=True)
    if args.stretch:
        measure_preset("generic", "may_e1", 2**20, drop_q0=True)
    measure("trunc", "ext/trunc(3)/trunc(5) families, p = 3", parse_spec(TRUNC_SPEC), 2**16)
    measure_nilpotent()
    measure_sparse()
    measure_starts()
    measure_preset("chain", "may_model", 2**18 - 1)
    measure_preset("chain", "may_model", 14 * 13 // 2 * (2**14 - 1))
    measure_lattice()
    measure_presets()
    measure_ehp()
    measure_census("P(A;t) by hilbert, p = 2, N = 4000", admissible_series, 2, 4000)
    measure_census("P(A;t) by census, p = 2, N = 4000", _admissible_counts, 2, 4000)
    measure_listing()
    measure_output()


if __name__ == "__main__":
    main()

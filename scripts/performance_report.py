#!/usr/bin/env python3
"""Time the import and per-request fixed cost of the CLI, the verify suites,
the fold in two tables (cumulative rank series at large truncations, and
each start of the fold plan forced in turn), and the EHP series A(n;t) and
P(A;t).  Every in-process time is the least CPU time of a few runs.  Run
with ``src`` on PYTHONPATH.

- import: `import stemsize.cli` in 15 fresh interpreters, by the thread
  time of the import, as median and quartiles; twice.  First with
  PYTHONDONTWRITEBYTECODE=1, so every interpreter compiles the package from
  source, as the benchmark's passes do when that variable is set.  Then
  with a warm bytecode cache under ``-X pycache_prefix`` in a temporary
  directory, so nothing is written into ``src``.  Last, each stemsize
  module's self time from one ``-X importtime`` run without a cache.
- cli: 300 in-process `stemsize.cli.main` calls of `torsion --p 3 --n 100`,
  best of 3, per call (one parser serves them all; the parser and the
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
on the generator kinds.  Two tables time it.

FOLD_CASES: `hilbert_cumulative` of each (regime, label, spec, N, repeats),
best of `repeats` CPU times, with the top coefficient's bits and the totals
of the `Plan` that `algebra._plan` returns: the lattice gcd g the fold ends
on, generators folded on the sparse start and their planned support terms,
generators packed, unit passes, power steps, and list coefficient additions.

- generic: the May E1 model (p = 2) at N = 2^18, and at 2^20 with
  --stretch.  Its degrees have gcd 1 and form no chain, so nearly every
  generator folds over all N + 1 coefficients.  The gate case (under five
  minutes in `tests/test_acceptance.py`); 2^20 is not gated.
- trunc: TRUNC_SPEC at N = 2^16, 450 exterior, truncated(3) and
  truncated(5) generators in degrees from 301 to 2296, well above sqrt(N).
  Those the packed start leaves fold over all N + 1 coefficients through
  the exterior and truncated branches of the in-place kernel `series._fold`.
- chain: may_model (p = 2), whose degrees 2^n form a divisibility chain, so
  a generator of degree d folds on N // d + 1 coefficients, at
  N = 2^18 - 1 and 1,490,853 = C(14, 2) (2^14 - 1), the m = 18 upper and
  m = 14 lower bracketing checks.
- lattice: `hilbert_cumulative` sums the fold on the multiples of g and
  holds each sum over its block of g degrees: may_model at
  N = 18396 = C(9, 2) (2^9 - 1) (the m = 9 lower check), s_k (k = 1) at 2^13.

`starts_cases()`: `hilbert` on each (label, spec, N), the start the plan
takes (packed, sparse or plain) and its predicted cost, then the best of 5
CPU times with each start forced in turn by patching `algebra._PACK_OVERHEAD`
and `algebra._SPARSE_START`, or n/a where that start does not exist.  The
cases: NILPOTENT_SPEC, shaped like the `generic_fold` workload's DSL
requests, at N = 300, 1024 and 4096; may_e1 at p = 3 (its h_ij are
exterior) at 3^6 and 3^9; dual_steenrod and mrs_e2_model (h = 2) at p = 3;
TRUNC_SPEC at 2^14; two DSL specs of the `generic_fold` pool; and at 2^14
the p = 2 presets whose largest degrees, such as 2^14 - 3 and 2^14 - 5, are
nearly coprime, so that the gcd is 1 while the series has a few nonzero
terms: mrs_e2_model (h = 2), dual_steenrod, y_h_lifted (h = 2, 3), may_e1.

- lattice: `max_over_h` of r_h_einf at p = 2, N = 2^12 - 1 (the m = 12
  bracketing check), best of 5 CPU times.  It walks the runs on which each
  cumulative rank is constant.
- ehp: A(1;t) at p = 2, N = 300 (3.0M sequences) and N = 20000, by the
  fold of `stemsize.ehp`, which adds the partial products of the dual
  Steenrod fold, shifted, so the time grows as N log N, not with the
  counts; best of 3 CPU times of the uncached fold, and the peak RSS of
  `stemsize ehp --p 2 --excess 1 --max-degree N` in a child interpreter,
  read as in output below.  Then P(A;t) at p = 2, N = 4000, twice, best
  of 3 CPU times: by `admissible_series`, which folds the dual Steenrod
  algebra in `hilbert` (Milnor's theorem), and by the admissible census
  `ehp._admissible_counts` that the tests and `verify` check it against,
  whose O(N^2) rows take 0.72 s against 0.9 ms for `hilbert` (2-vCPU VM).
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
import math
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


MAY_E1 = preset("may_e1", 2, drop_q0=True)
MAY_MODEL = preset("may_model", 2)

# (regime, label, spec, N, repeats) of each `hilbert_cumulative` timed
FOLD_CASES = (
    ("generic", MAY_E1.label, MAY_E1, 2**18, 3),
    ("trunc", "TRUNC_SPEC", parse_spec(TRUNC_SPEC), 2**16, 3),
    ("chain", MAY_MODEL.label, MAY_MODEL, 2**18 - 1, 5),
    ("chain", MAY_MODEL.label, MAY_MODEL, 14 * 13 // 2 * (2**14 - 1), 3),
    ("lattice", MAY_MODEL.label, MAY_MODEL, 9 * 8 // 2 * (2**9 - 1), 5),
    ("lattice", "s_k(p=2, k=1)", preset("s_k", 2, k=1), 2**13, 5),
)
STRETCH_CASE = ("generic", MAY_E1.label, MAY_E1, 2**20, 1)


def measure_folds(cases=FOLD_CASES, trunc: int | None = None, repeats: int | None = None) -> None:
    """Each case's best CPU time, its top coefficient's bits and its plan's
    totals; trunc and repeats, where given, replace every case's own."""
    for regime, label, spec, n, reps in cases:
        n = n if trunc is None else trunc
        reps = reps if repeats is None else repeats
        elapsed, series = best_cpu(hilbert_cumulative, spec, n, repeats=reps)
        gens = algebra.instantiate(spec, n)
        plan = algebra._plan(gens, n)
        sparse = [step.work for step in plan.steps if step.kernel == "sparse"]
        units = sum(step.mult for step in plan.steps if step.kernel == "unit")
        powers = sum(step.kernel == "power" for step in plan.steps)
        g = plan.g // math.prod(step.spread for step in plan.steps)
        print(f"{regime:8} {label}, N = {n}: {elapsed * 1000:.1f} ms CPU, best of {reps}; "
              f"top coefficient {series[n].bit_length()} bits; g = {g}; {len(sparse)} of "
              f"{len(gens)} generators fold sparse on {sum(sparse)} support terms; "
              f"{len(plan.picked)} of {len(gens)} generators packed, {units} unit passes, "
              f"{powers} power steps, {plan.cost} coefficient additions")


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
        result = None  # so that two results are never held at once
        start = time.process_time()
        result = fn(*args)
        best = min(best, time.process_time() - start)
    return best, result


def measure_cli(calls: int = 300) -> None:
    argv = ["torsion", "--p", "3", "--n", "100"]
    with contextlib.redirect_stdout(io.StringIO()):
        elapsed, _ = best_cpu(lambda: [cli.main(argv) for _ in range(calls)], repeats=3)
    print(f"{'cli':8} {' '.join(argv)}: {elapsed / calls * 1000:.3f} ms CPU per call "
          f"over {calls}, best of 3")
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
    dual, mrs = preset("dual_steenrod", 3), preset("mrs_e2_model", 3, h=2)
    nearly_coprime = (preset("mrs_e2_model", 2, h=2), preset("dual_steenrod", 2),
                      preset("y_h_lifted", 2, h=2), preset("y_h_lifted", 2, h=3), MAY_E1)
    return [
        *(("NILPOTENT_SPEC", nilpotent, n) for n in (300, 1024, 4096)),
        (may_e1.label, may_e1, 3**6), (may_e1.label, may_e1, 3**9), (dual.label, dual, 4096),
        ("TRUNC_SPEC", parse_spec(TRUNC_SPEC), 2**14), (mrs.label, mrs, 3**8),
        *((f"generic_fold DSL spec {i}", parse_spec(text), 4096)
          for i, text in enumerate(GENERIC_SPECS, start=1)),
        *((spec.label, spec, 2**14) for spec in nearly_coprime),
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


def measure_lattice(trunc: int = 2**12 - 1, repeats: int = 5) -> None:
    elapsed, _ = best_cpu(max_over_h, "r_h_einf", 2, trunc, repeats=repeats)
    print(f"{'lattice':8} max_over_h r_h_einf, p = 2, N = {trunc}: {elapsed * 1000:.2f} ms CPU")


def measure_ehp(truncs=(300, 20000), repeats: int = 3) -> None:
    for trunc in truncs:
        # `_a_counts` is cached: time the fold beneath the cache
        elapsed, counts = best_cpu(ehp._a_counts.__wrapped__, 2, 1, trunc, repeats=repeats)
        rc, _, peak, _ = output_peak(["ehp", "--p", "2", "--excess", "1",
                                      "--max-degree", str(trunc)])
        print(f"{'ehp':8} A(1;t) by the fold, p = 2, N = {trunc}: {elapsed * 1000:.1f} ms "
              f"CPU, {sum(counts)} counted; stemsize ehp peak RSS {peak:.1f} MB, exit {rc}")


def measure_census(label: str, series_fn, *args) -> None:
    elapsed, series = best_cpu(series_fn, *args, repeats=3)
    print(f"{'ehp':8} {label}: {elapsed * 1000:.1f} ms CPU, {sum(series)} counted")


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
    measure_folds((*FOLD_CASES, STRETCH_CASE) if args.stretch else FOLD_CASES)
    measure_starts()
    measure_lattice()
    measure_presets()
    measure_ehp()
    measure_census("P(A;t) by hilbert, p = 2, N = 4000", admissible_series, 2, 4000)
    measure_census("P(A;t) by census, p = 2, N = 4000", _admissible_counts, 2, 4000)
    measure_listing()
    measure_output()


if __name__ == "__main__":
    main()

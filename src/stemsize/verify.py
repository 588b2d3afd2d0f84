"""Named verification suites behind `stemsize verify`.

Each suite is a generator that runs a batch of exhaustive or randomized
checks and yields one (check name, ok, detail) triple per check, in report
order; `run_suite` names the suite and makes each triple a deterministic
PASS/FAIL line.  A check over many trials combines them with `all`, or
with `next` where its detail names the failing input, so it stops at the
first failure.  Randomized checks draw from a seeded RNG (default seed
DEFAULT_SEED) so any failure reproduces from the report header alone.

The algebra suite checks `hilbert` against the log-derivative recurrence
`algebra._log_derivative_hilbert` on its random specs; the presets suite
keeps the monomial walk `oracle_hilbert` on three presets.  `random_spec`
builds specs without the parser, which `dsl_round_trip` checks instead.

The torsion suite decides its exhaustive grids from exact tables.  Each
run builds a valuation sieve per p, and from it Legendre prefix sums.
The counting-lemma scan over all pairs up to 10^4 settles each b by one
integer comparison against a running threshold, the largest k with
p^k <= b^(p-1), which is raised by exact powers of p only at a b whose
slack exceeds it.  The stable-bound scan to 10^4 runs on the exact window
sums E(n), read off the prefix of the column exponents.  Those tables,
with g(n) per vanishing curve and log_p(n) per p, depend on nothing a run
decides, so they are built once per process (`functools.cache`, listed in
`_TABLES`; the prefix once per p, whatever the curve) and kept as
read-only views of compact arrays; a curve's 1 <= g(n) <= n check runs at
that first build.  Every run still reads the closed form's coefficients
and computes all of its margins.  The Goodwillie scan (s <= 8, n <= 2000)
uses that its exact sum is constant on each block of n with the same
(n - 1) // s while the linear envelope rises, so the first n of a block
decides the block.  Each scan still cross-checks its tables against
direct calls of the formula it covers.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from itertools import accumulate, pairwise, repeat
from operator import truediv
from typing import Iterator, Sequence

from . import algebra, asymptotics, ehp, presets, series, torsion
from ._frozen import Frozen
from .dsl import BinOp, Lit, Var

__all__ = ["DEFAULT_SEED", "SUITES", "CheckResult", "run_suite", "run", "format_report"]

DEFAULT_SEED = 1729
SCAN_LIMIT = 10**4
GOODWILLIE_S = 8  # grid of the Goodwillie envelope check: s <= 8, n <= 2000
GOODWILLIE_N = 2000

Checks = Iterator[tuple[str, bool, str]]


class CheckResult(Frozen):
    __slots__ = ("suite", "name", "ok", "detail")

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.suite}.{self.name}: {self.detail}"


def _raises(error: type[Exception], fn, *args) -> bool:
    """Whether fn(*args) raises `error`."""
    try:
        fn(*args)
    except error:
        return True
    return False


# -- random spec generation (shared with the test suite) ---------------------


def random_spec(rng: random.Random, max_families: int = 5) -> algebra.AlgebraSpec:
    """A small random algebra over p in {2, 3, 5}: bounded and unbounded
    families of every generator kind, with degrees in [1, 12] at the low
    indices.

    Each family is built as the tree that `parse_spec` makes of the DSL line
    in its branch's comment, without the parser; `dsl_round_trip` checks
    the parser on specs from here."""
    p = rng.choice((2, 3, 5))
    families = []
    for _ in range(rng.randint(1, max_families)):
        # k is drawn before the choice, whichever kind it picks: the draws
        # fix each seed's specs, and so the reports pinned per seed
        trunc_kind = series.GeneratorKind.truncated(rng.randint(2, 5))
        kind = rng.choice([series.POLYNOMIAL, series.EXTERIOR, trunc_kind])
        form = rng.randint(0, 3)
        if form == 0:  # deg = d
            family = algebra.GeneratorFamily(kind, Lit(rng.randint(1, 12)))
        elif form == 1:  # deg = d*i + c for i = 0..hi
            d = rng.randint(1, 6)
            c = rng.randint(1, 7)
            hi = rng.randint(0, 3)
            degree = BinOp("+", BinOp("*", Lit(d), Var("i")), Lit(c))
            family = algebra.GeneratorFamily(kind, degree, ranges=(("i", 0, hi),))
        elif form == 2:  # deg = base^i + c for i = 1..inf
            base = rng.randint(2, 3)
            c = rng.randint(0, 2)
            degree = BinOp("+", BinOp("^", Lit(base), Var("i")), Lit(c))
            family = algebra.GeneratorFamily(kind, degree, ranges=(("i", 1, None),))
        else:  # deg = d mult = m
            d = rng.randint(1, 12)
            m = rng.randint(1, 3)
            family = algebra.GeneratorFamily(kind, Lit(d), Lit(m))
        families.append(family)
    return algebra.AlgebraSpec(p, tuple(families))


def random_series(rng: random.Random, trunc: int) -> series.TruncatedSeries:
    return series.TruncatedSeries([rng.randint(0, 9) for _ in range(trunc + 1)])




# -- suite: series -----------------------------------------------------------


def _suite_series(rng: random.Random) -> Checks:
    n_trials = 50

    def factor_matches() -> bool:
        trunc = rng.randint(4, 24)
        kind = rng.choice([series.POLYNOMIAL, series.EXTERIOR,
                           series.GeneratorKind.truncated(rng.randint(2, 6))])
        d = rng.randint(1, trunc)
        s = random_series(rng, trunc)
        return s.mul_factor(kind, d) == s.mul(series.factor_series(kind, d, trunc))

    yield ("mul_factor_vs_explicit", all(factor_matches() for _ in range(n_trials)),
           f"{n_trials} random (kind, degree) factors against full convolution")

    def mul_laws() -> bool:
        trunc = rng.randint(2, 16)
        a, b, c = (random_series(rng, trunc) for _ in range(3))
        return a.mul(b) == b.mul(a) and a.mul(b).mul(c) == a.mul(b.mul(c))

    yield ("mul_commutative_associative", all(mul_laws() for _ in range(n_trials)),
           f"{n_trials} random triples")

    drawn = (random_series(rng, rng.randint(0, 16)) for _ in range(n_trials))
    yield ("json_round_trip",
           all(series.TruncatedSeries.from_json(s.to_json()) == s for s in drawn),
           f"{n_trials} random series")

    worst = max(abs(series.TruncatedSeries([1 << k]).coeff_log(0) - k * math.log(2.0))
                for k in range(1, 400))
    yield ("coeff_log_accuracy", worst < 1e-9,
           f"ln(2^k) for k < 400, worst abs error {worst:.3e}")

    def cumulative_matches(s: series.TruncatedSeries) -> bool:
        cum = s.cumulative()
        return s.leq(cum) and cum == s.mul_factor(series.POLYNOMIAL, 1)

    drawn = (random_series(rng, rng.randint(0, 16)) for _ in range(n_trials))
    yield ("cumulative_is_geometric_unit", all(map(cumulative_matches, drawn)),
           f"{n_trials} random series: cumulative == 1/(1-t) product and dominates")


# -- suite: algebra ----------------------------------------------------------


def _suite_algebra(rng: random.Random) -> Checks:
    n_specs = 60
    oracle = algebra._log_derivative_hilbert
    drawn = ((random_spec(rng), rng.randint(0, 24)) for _ in range(n_specs))
    bad = next((spec for spec, trunc in drawn
                if algebra.hilbert(spec, trunc) != oracle(spec, trunc)), None)
    failing = "" if bad is None else f" (failing spec: {algebra.spec_to_text(bad)!r})"
    yield ("hilbert_vs_oracle", bad is None,
           f"{n_specs} random specs, truncation <= 24{failing}")

    texts = (algebra.spec_to_text(random_spec(rng)) for _ in range(n_specs))
    yield ("dsl_round_trip",
           all(algebra.spec_to_text(algebra.parse_spec(text)) == text for text in texts),
           f"{n_specs} random specs reprinted")

    def split_contained() -> bool:
        k = rng.randint(1, 3)
        specs = [random_spec(rng, max_families=2) for _ in range(k)]
        p = specs[0].p
        specs = [algebra.AlgebraSpec(p, s.families, s.label) for s in specs]
        budgets = [rng.randint(1, 16) for _ in specs]
        return algebra.tensor_bracket(specs, budgets).ok

    yield ("tensor_bracket_containment", all(split_contained() for _ in range(20)),
           "20 random tensor splits")

    def degrees_sorted() -> bool:
        spec = random_spec(rng)
        degrees = [g.degree for g in algebra.instantiate(spec, rng.randint(4, 30))]
        return degrees == sorted(degrees)

    yield ("instantiate_sorted", all(degrees_sorted() for _ in range(n_specs)),
           f"{n_specs} random specs")


# -- suite: presets ----------------------------------------------------------


def _suite_presets(rng: random.Random) -> Checks:
    h = algebra.hilbert(presets.preset("dual_steenrod", 2), 7)
    yield ("dual_steenrod_2_spot", h.coeffs == (1, 1, 1, 2, 2, 2, 3, 4),
           f"N = 7 coefficients {list(h.coeffs)}")

    def simplified_dominates(p: int) -> bool:
        plain = algebra.hilbert_cumulative(presets.preset("may_e1", p, drop_q0=True), 40)
        simple = algebra.hilbert_cumulative(
            presets.preset("may_e1", p, drop_q0=True, simplify_odd=True), 40)
        return plain.leq(simple)

    yield ("simplify_odd_dominates_cumulatively",
           all(simplified_dominates(p) for p in (3, 5)),
           "p in {3, 5}, N = 40, cumulative comparison")

    yield ("degree_zero_generator_rejected",
           _raises(presets.PresetError, presets.preset, "may_e1", 2),
           "may_e1 without drop_q0 raises")

    a = presets.max_over_h("r_h_e2", 2, 64)
    b = presets.max_over_h("r_h_e2", 2, 64)
    yield ("max_over_h_deterministic", a == b and a.series[64] >= 1,
           f"argmax h = {a.argmax[64]} at N = 64")

    specs = (presets.preset(name, p, **({"drop_q0": True} if name == "q_poly" else {}))
             for name in ("may_model", "dual_steenrod", "q_poly") for p in (2, 3))
    yield ("presets_vs_oracle",
           all(algebra.hilbert(s, 20) == algebra.oracle_hilbert(s, 20) for s in specs),
           "may_model/dual_steenrod/q_poly at p in {2, 3}, N = 20")


# -- suite: torsion ----------------------------------------------------------


def _span(p: int) -> int:
    """Column width 2p - 2 of the stable window."""
    return 2 * p - 2


def _top_column(p: int) -> int:
    """Top column of the stable-scan prefix, one past the last column that a
    window at n <= SCAN_LIMIT reaches."""
    return 2 * SCAN_LIMIT // _span(p) + 1


def _valuation_sieve(p: int) -> list[int]:
    """vals[x] = |x|_p for 1 <= x <= max(SCAN_LIMIT, _top_column(p)), and
    vals[0] = 0: each power p^k overwrites its multiples with k, so the last
    write to x is its valuation."""
    n = max(SCAN_LIMIT, _top_column(p))
    vals = [0] * (n + 1)
    k, power = 1, p
    while power <= n:
        vals[power::power] = [k] * (n // power)
        k, power = k + 1, power * p
    return vals


def _column_prefix(p: int, vals: list[int], top: int) -> list[int]:
    """prefix[k] = sum of the column exponents 1 + |i|_p, plus 1 for even i
    at p = 2, over 1 <= i <= k <= top; vals is a valuation sieve to top."""
    cols = vals[1 : top + 1]
    if p == 2:  # i is even exactly when |i|_2 > 0
        return list(accumulate((2 + v if v else 1 for v in cols), initial=0))
    return list(accumulate((1 + v for v in cols), initial=0))


def _readonly(typecode: str, values) -> memoryview:
    """values in an `array` of typecode behind a read-only view: a cached
    table is shared by every later run, so no caller may write to it."""
    from array import array  # loaded by the first torsion run, not by import

    return memoryview(array(typecode, values)).toreadonly()


@functools.cache
def _log_table(p: int) -> memoryview:
    """log_p(n) at index n - 1 for 1 <= n <= SCAN_LIMIT, computed as
    `stable_torsion_bound` computes it; built once per process."""
    ns = range(1, SCAN_LIMIT + 1)
    if p == 2:
        return _readonly("d", map(math.log2, ns))
    # math.log(n, p) is this quotient of the same floats
    return _readonly("d", map(truediv, map(math.log, ns), repeat(math.log(p))))


@functools.cache
def _curve_table(curve: torsion.VanishingCurve) -> memoryview:
    """g(n) at index n - 1 for 1 <= n <= SCAN_LIMIT; built once per
    process, so the curve's 1 <= g(n) <= n check runs at that build."""
    return _readonly("i", map(curve, range(1, SCAN_LIMIT + 1)))


@functools.cache
def _stable_prefix(p: int) -> memoryview:
    """The column prefix of p to `_top_column(p)`, which every curve's
    window sums read; built once per process."""
    return _readonly("i", _column_prefix(p, _valuation_sieve(p), _top_column(p)))


@functools.cache
def _window_sums(p: int, curve: torsion.VanishingCurve) -> memoryview:
    """The exact sum E(n) of `stable_torsion_bound` at index n - 1 for
    1 <= n <= SCAN_LIMIT, as prefix[(n + g(n)) // span] - prefix[n // span]
    on the column prefix of p (g >= 1, so the window is at worst empty);
    built once per process."""
    span = _span(p)
    prefix = _stable_prefix(p).tolist()  # a list indexes about twice as fast
    pairs = zip(range(1, SCAN_LIMIT + 1), _curve_table(curve))
    return _readonly("i", [prefix[(n + g) // span] - prefix[n // span] for n, g in pairs])


# Every cached table builder of the torsion suite.
_TABLES = (_log_table, _curve_table, _stable_prefix, _window_sums)


def _counting_scan(p: int, vals: list[int]) -> tuple[bool, str]:
    """exact <= bound for every 0 <= a < b <= SCAN_LIMIT, settled exactly.

    With T(x) = x + sum of valuations and c = p/(p-1), the claim over all a
    reduces to g(b) - min_{a<b} g(a) <= (p-1) log_p(b) for the integer
    g(x) = (p-1) T(x) - p x, that is to p^q <= b^(p-1) for the slack q of b.
    A running top, the largest k with p^k <= b^(p-1), only grows with b, so
    it is raised only at a b whose q exceeds it, and that b is a violation
    exactly when q still exceeds it.  One pass over b keeps the least g(a)
    so far and the first b of largest slack, at which `counting_lemma` is
    called directly as a cross-check.  vals is the run's valuation sieve
    for p.
    """
    n = SCAN_LIMIT
    step = p - 1  # g(x) - g(x-1) = (p-1)(1 + |x|_p) - p = step * |x|_p - 1
    g = low = a_low = 0  # g(b), and the least g(a) over a < b at its first a
    worst_q, a_star, b_star = step * vals[1] - 1, 0, 1  # the first largest slack
    top, power = 0, p  # power = p^(top+1), at most p * b^(p-1)
    for b, v in enumerate(vals[1 : n + 1], 1):
        g += step * v - 1
        qb = g - low
        if qb > top:
            reach = b ** (p - 1)
            while power <= reach:
                top, power = top + 1, power * p
            if qb > top:
                return False, f"violation at p={p}, b={b}"
        if qb > worst_q:
            worst_q, a_star, b_star = qb, a_low, b
        if g < low:
            low, a_low = g, b
    # cross-check the closed-form function itself on the extremal b
    exact, bound = torsion.counting_lemma(p, a_star, b_star)
    if exact > bound:
        return False, f"direct call violation at p={p}, a={a_star}, b={b_star}"
    return True, f"p={p}: all pairs <= {n}, tightest slack q = {worst_q}"


def _goodwillie_scan(p: int, vals: list[int]) -> tuple[int, int] | None:
    """The first (s, n), s <= GOODWILLIE_S and n <= GOODWILLIE_N in that
    order, at which the m = 1 Goodwillie bound read off the table breaks its
    linear envelope 2n/s; failing none, the first s at which
    `goodwillie_bound(s, 1, GOODWILLIE_N, p)` differs from the table, as
    (s, GOODWILLIE_N); else None.

    With legendre[k] the sum of |i|_p over 1 <= i <= k, read off the run's
    valuation sieve vals for p, the exact sum top + legendre[top],
    top = (n - 1) // s, is constant on the block s*top < n <= s*(top + 1)
    for fixed s while 2n/s rises across it, so the block's first n decides
    the block; top = 0 sums to 0.  The verdict is taken in integers, as
    s * sum > 2n.
    """
    n_max = GOODWILLIE_N
    legendre = list(accumulate(vals[1 : n_max + 1], initial=0))
    for s in range(1, GOODWILLIE_S + 1):
        for top in range(1, (n_max - 1) // s + 1):
            if s * (top + legendre[top]) > 2 * (s * top + 1):
                return s, s * top + 1
    for s in range(1, GOODWILLIE_S + 1):
        top = (n_max - 1) // s
        if torsion.goodwillie_bound(s, 1, n_max, p) != (
            top + legendre[top], 2 * n_max / s
        ):
            return s, n_max
    return None


def _stable_scan(
    p: int,
    curve: torsion.VanishingCurve,
    gs: Sequence[int],
    logs: Sequence[float],
    sums: Sequence[int],
) -> tuple[bool, str]:
    """exact_sum <= closed_form for all 1 <= n <= SCAN_LIMIT on the exact
    window sums, cross-checked against direct calls.

    gs, logs and sums hold g(n), log_p(n) and E(n) at index n - 1, as the
    tables `_curve_table(curve)`, `_log_table(p)` and `_window_sums(p, curve)`
    do.  The tables are data; each call reads the closed form's coefficients
    and computes every margin, so no verdict outlives its run.
    """
    n_max = SCAN_LIMIT
    slope, const = torsion._closed_form_coefficients(p)

    def closed(n: int) -> float:  # added in stable_torsion_bound's order
        return slope * gs[n - 1] + logs[n - 1] + const

    # margins[n - 1] = closed(n) - E(n), inlined for speed
    margins = [slope * g + lg + const - e for g, lg, e in zip(gs, logs, sums)]
    least = min(margins)
    if least < 0:  # exact > closed + 1e-9 needs a negative margin
        for n in range(1, n_max + 1):
            if sums[n - 1] > closed(n) + 1e-9:
                return False, f"violation at p={p}, n={n}"
    # near-ties and a sample settled by the direct function
    sample = {i + 1 for i in heapq.nsmallest(5, range(n_max), key=margins.__getitem__)}
    sample.update((1, 2, 3, n_max))
    for n in sorted(sample):
        rep = torsion.stable_torsion_bound(p, n, curve)
        if rep.exact_sum != sums[n - 1] or rep.exact_sum > rep.closed_form:
            return False, f"direct call mismatch at p={p}, n={n}"
    return True, f"p={p}: all n <= {n_max}, min margin {least:.4f}"


def _suite_torsion(rng: random.Random) -> Checks:
    # every run builds its sieves, shared by the counting-lemma and Goodwillie scans
    sieves = {p: _valuation_sieve(p) for p in (2, 3, 5)}
    for p in (2, 3, 5):
        yield (f"counting_lemma_exhaustive_p{p}", *_counting_scan(p, sieves[p]))
    curves = (("linear", torsion.LinearCurve()),
              ("sqrt", torsion.PowerLawCurve(0.5, 1.0)))
    for p in (2, 3, 5):
        for label, curve in curves:
            yield (f"stable_bound_exhaustive_p{p}_{label}",
                   *_stable_scan(p, curve, _curve_table(curve), _log_table(p),
                                 _window_sums(p, curve)))

    yield ("goodwillie_linear_envelope",
           all(_goodwillie_scan(p, sieves[p]) is None for p in (2, 3, 5)),
           f"s <= {GOODWILLIE_S}, n <= {GOODWILLIE_N}, p in {{2, 3, 5}}, m = 1")

    zeros = sum(1 for u in range(1, SCAN_LIMIT + 1) if torsion.an_e2_exponent(3, u) == 0)
    frac = zeros / SCAN_LIMIT
    yield ("an_e2_zero_fraction_p3", abs(frac - 0.5) < 0.01,
           f"fraction {frac:.4f} of u <= {SCAN_LIMIT} give exponent 0 "
           f"(expected (p-2)/(p-1) = 0.5)")

    rising = all(a <= b for s in range(1, 6) for a, b in
                 pairwise(torsion.barratt_bound(s, 2, n) for n in range(1, 200)))
    falling = all(a >= b for n in (17, 64, 150) for a, b in
                  pairwise(torsion.barratt_bound(s, 2, n) for s in range(1, 12)))
    yield ("barratt_monotonicity", rising and falling,
           "nondecreasing in n (s <= 5), nonincreasing in s (grid)")

    def local_growth(p: int, n: int) -> bool:
        span = 2 * p - 2
        a = torsion.stable_torsion_bound(p, n, torsion.LinearCurve()).exact_sum
        b = torsion.stable_torsion_bound(p, n + span, torsion.LinearCurve()).exact_sum
        hi = (2 * (n + span)) // span
        # the largest valuation in 1..hi is the largest k with p^k <= hi
        top = max(k for k in range(hi.bit_length()) if p**k <= hi)
        return a <= b + 1 + top + (1 if p == 2 else 0)

    yield ("stable_bound_local_growth",
           all(local_growth(p, n)
               for p in (2, 3) for n in rng.sample(range(1, 5000), 50)),
           "exact(n) <= exact(n + 2p-2) + (1 + max window valuation), sampled")


# -- suite: ehp --------------------------------------------------------------


def _shifted_set(n: int, top: int) -> dict[tuple[int, ...], int]:
    """{(j_1, ..., j_k): sum} over the sequences with j_k >= n - 1,
    j_s > 2 j_{s+1} + 1 and sum <= top, built from the last entry up
    without `ehp`."""
    found = {(): 0}

    def grow(suffix: tuple[int, ...], total: int) -> None:
        found[suffix] = total
        for j in range(2 * suffix[0] + 2, top - total + 1):
            grow((j,) + suffix, total + j)

    for j in range(n - 1, top + 1):
        grow((j,), j)
    return found


def _suite_ehp(rng: random.Random) -> Checks:
    yield ("ehp_recurrence",
           all(ehp.verify_ehp_recurrence(p, n, 60) for p in (2, 3) for n in range(1, 9)),
           "p in {2, 3}, n <= 8, N = 60")

    for p, lo in ((2, 2), (3, 3)):
        pa = ehp.admissible_series(p, 60)
        excess: set[int] = set()
        for n in range(lo, 9):
            a = ehp.a_series(p, n, 60)
            excess.update(d for d in range(61) if a[d] > pa[d])
        detail = f"A(n;t) <= P(A;t) for {lo} <= n <= 8, N = 60"
        if excess:
            detail += (f"; excess coefficients at degrees {sorted(excess)} "
                       f"(one singleton sequence each, in degrees with no "
                       f"admissible monomial)")
        yield f"a_series_below_admissible_p{p}", not excess, detail

    yield ("a_series_monotone_in_excess",
           all(ehp.a_series(p, n, 40).leq(ehp.a_series(p, n - 1, 40))
               for p in (2, 3) for n in range(2, 8)),
           "I(n) within I(n-1): A(n;t) <= A(n-1;t), n <= 7, N = 40")

    yield ("shift_bijection",
           all({tuple(i - 1 for i in J.entries): J.dim for J in ehp.enumerate_I(2, n, 30)}
               == _shifted_set(n, 30) for n in range(1, 7)),
           "I(n) matches the shifted set (j_k >= n-1, j_s > 2 j_{s+1} + 1), "
           "n <= 6, dim <= 30")

    def census_matches(p: int, n: int) -> bool:
        seqs = ehp.enumerate_I(p, n, 30)
        counts = [0] * 31
        for J in seqs:
            counts[J.dim] += 1
        entries = [J.entries for J in seqs]
        return (series.TruncatedSeries(counts) == ehp.a_series(p, n, 30)
                and entries == sorted(entries) and len(set(entries)) == len(seqs))

    yield ("enumeration_matches_series",
           all(census_matches(p, n) for p in (2, 3) for n in (1, 2, 5)),
           "dim census == A(n;t), lexicographic, duplicate-free (n in {1,2,5})")

    yield ("admissible_vs_dual_steenrod",
           all(ehp._admissible_counts(p, 40)
               == algebra.hilbert(presets.preset("dual_steenrod", p), 40).coeffs
               for p in (2, 3)),
           "basis count equals Hilbert series, p in {2, 3}, N = 40")

    varpi = ehp.default_varpi_a(2, 30)
    point = series.TruncatedSeries.unit(30)
    lhs = ehp.unstable_rank_bound(2, point, varpi, 30)
    rhs = ehp.unstable_ext_bound(2, point, varpi, 30).scale(2)
    guarded = _raises(series.SeriesError, ehp.unstable_rank_bound,
                      2, series.TruncatedSeries([0, 1]), varpi, 1)
    yield ("unstable_bounds_consistent", lhs == rhs and guarded,
           "doubling identity and connectedness guard")


# -- suite: asymptotics ------------------------------------------------------


def _suite_asymptotics(rng: random.Random) -> Checks:
    yield ("constants_ordering",
           all(c.k1 < c.k2 < c.k3 for c in map(asymptotics.constants, (2, 3, 5, 7))),
           "K1 < K2 < K3, p in {2,3,5,7}")

    cases = [(p, m, model) for p, m in ((2, 6), (3, 4))
             for model in asymptotics.BRACKET_MODELS]
    yield ("bracketing_small_scales",
           all(asymptotics.bracketing_check(p, m, model).ok for p, m, model in cases),
           "; ".join(f"{model}(p={p}, m={m})" for p, m, model in cases))

    prof = asymptotics.ratio_profile(
        presets.preset("may_model", 2), 3, [2**m for m in range(8, 15)])
    ratios = [r.ratio for r in prof.rows]
    k3 = asymptotics.constants(2).k3
    nondec = all(a <= b for a, b in pairwise(ratios))
    yield ("may_model_ratio_profile", all(r < k3 for r in ratios),
           f"ratios below K3 = {k3:.5f}; nondecreasing over 2^8..2^14: {nondec} "
           f"(recorded, not asserted)")


# -- driver ------------------------------------------------------------------


SUITES = {
    "series": _suite_series,
    "algebra": _suite_algebra,
    "presets": _suite_presets,
    "torsion": _suite_torsion,
    "ehp": _suite_ehp,
    "asymptotics": _suite_asymptotics,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of "
                         f"{sorted(SUITES)} or 'all'")
    return [CheckResult(name, check, bool(ok), detail)
            for check, ok, detail in SUITES[name](random.Random(seed))]


def run(suite: str = "all", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if suite == "all":
        return [result for name in SUITES for result in run_suite(name, seed)]
    return run_suite(suite, seed)


def format_report(results: list[CheckResult], suite: str, seed: int) -> str:
    lines = [f"verify suite={suite} seed={seed}"]
    lines.extend(r.line() for r in results)
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"

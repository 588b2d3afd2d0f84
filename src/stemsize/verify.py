"""Named verification suites behind `stemsize verify`.

Each suite runs a batch of exhaustive or randomized checks and returns
deterministic PASS/FAIL lines.  Randomized checks draw from a seeded RNG
(default seed DEFAULT_SEED) so any failure reproduces from the report
header alone.

The algebra suite checks `hilbert` against the log-derivative recurrence
`algebra._log_derivative_hilbert` on its random specs; the presets suite
keeps the monomial walk `oracle_hilbert` on three presets.  `random_spec`
builds specs without the parser, which `dsl_round_trip` checks instead.

The torsion suite decides its exhaustive grids from exact tables that each
run builds once: a valuation sieve per p, and from it Legendre prefix sums.
The counting-lemma scan over all pairs up to 10^4 settles each b by one
integer comparison against a running threshold, the largest k with
p^k <= b^(p-1), which is raised by exact powers of p only at a b whose
slack exceeds it.  The stable-bound scan to 10^4 runs on prefix sums of
the column exponents.  The Goodwillie scan (s <= 8, n <= 2000) uses that
its exact sum is constant on each block of n with the same (n - 1) // s
while the linear envelope rises, so the first n of a block decides the
block.  Each scan still cross-checks its tables against direct calls of
the formula it covers.
"""

from __future__ import annotations

import heapq
import math
import random
from itertools import accumulate

from . import algebra, asymptotics, ehp, presets, series, torsion
from ._frozen import Frozen, set_field
from .dsl import BinOp, Lit, Var

__all__ = ["DEFAULT_SEED", "SUITES", "CheckResult", "run_suite", "run", "format_report"]

DEFAULT_SEED = 1729
SCAN_LIMIT = 10**4
GOODWILLIE_S = 8  # grid of the Goodwillie envelope check: s <= 8, n <= 2000
GOODWILLIE_N = 2000


class CheckResult(Frozen):
    __slots__ = ("suite", "name", "ok", "detail")

    def __init__(self, suite: str, name: str, ok: bool, detail: str) -> None:
        set_field(self, "suite", suite)
        set_field(self, "name", name)
        set_field(self, "ok", ok)
        set_field(self, "detail", detail)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.suite}.{self.name}: {self.detail}"


def _result(suite: str, name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(suite, name, bool(ok), detail)


# ---------------------------------------------------------------------------
# random spec generation (shared with the test suite)
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# suite: series
# ---------------------------------------------------------------------------


def _suite_series(rng: random.Random) -> list[CheckResult]:
    out = []
    n_trials = 50
    ok = True
    for _ in range(n_trials):
        trunc = rng.randint(4, 24)
        kind = rng.choice(
            [
                series.POLYNOMIAL,
                series.EXTERIOR,
                series.GeneratorKind.truncated(rng.randint(2, 6)),
            ]
        )
        d = rng.randint(1, trunc)
        s = random_series(rng, trunc)
        if s.mul_factor(kind, d) != s.mul(series.factor_series(kind, d, trunc)):
            ok = False
            break
    out.append(
        _result(
            "series",
            "mul_factor_vs_explicit",
            ok,
            f"{n_trials} random (kind, degree) factors against full convolution",
        )
    )

    ok = True
    for _ in range(n_trials):
        trunc = rng.randint(2, 16)
        a, b, c = (random_series(rng, trunc) for _ in range(3))
        if a.mul(b) != b.mul(a) or a.mul(b).mul(c) != a.mul(b.mul(c)):
            ok = False
            break
    out.append(
        _result(
            "series",
            "mul_commutative_associative",
            ok,
            f"{n_trials} random triples",
        )
    )

    ok = True
    for _ in range(n_trials):
        s = random_series(rng, rng.randint(0, 16))
        if series.TruncatedSeries.from_json(s.to_json()) != s:
            ok = False
            break
    out.append(_result("series", "json_round_trip", ok, f"{n_trials} random series"))

    worst = 0.0
    for k in range(1, 400):
        s = series.TruncatedSeries([1 << k])
        worst = max(worst, abs(s.coeff_log(0) - k * math.log(2.0)))
    out.append(
        _result(
            "series",
            "coeff_log_accuracy",
            worst < 1e-9,
            f"ln(2^k) for k < 400, worst abs error {worst:.3e}",
        )
    )

    ok = True
    for _ in range(n_trials):
        s = random_series(rng, rng.randint(0, 16))
        cum = s.cumulative()
        if not s.leq(cum) or cum != s.mul_factor(
            series.POLYNOMIAL, 1
        ):
            ok = False
            break
    out.append(
        _result(
            "series",
            "cumulative_is_geometric_unit",
            ok,
            f"{n_trials} random series: cumulative == 1/(1-t) product and dominates",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: algebra
# ---------------------------------------------------------------------------


def _suite_algebra(rng: random.Random) -> list[CheckResult]:
    out = []
    n_specs = 60
    ok = True
    bad = ""
    for _ in range(n_specs):
        spec = random_spec(rng)
        trunc = rng.randint(0, 24)
        if algebra.hilbert(spec, trunc) != algebra._log_derivative_hilbert(spec, trunc):
            ok, bad = False, f" (failing spec: {algebra.spec_to_text(spec)!r})"
            break
    out.append(
        _result(
            "algebra",
            "hilbert_vs_oracle",
            ok,
            f"{n_specs} random specs, truncation <= 24{bad}",
        )
    )

    ok = True
    for _ in range(n_specs):
        spec = random_spec(rng)
        text = algebra.spec_to_text(spec)
        if algebra.spec_to_text(algebra.parse_spec(text)) != text:
            ok = False
            break
    out.append(
        _result("algebra", "dsl_round_trip", ok, f"{n_specs} random specs reprinted")
    )

    ok = True
    for _ in range(20):
        k = rng.randint(1, 3)
        specs = [random_spec(rng, max_families=2) for _ in range(k)]
        p = specs[0].p
        specs = [algebra.AlgebraSpec(p, s.families, s.label) for s in specs]
        budgets = [rng.randint(1, 16) for _ in specs]
        if not algebra.tensor_bracket(specs, budgets).ok:
            ok = False
            break
    out.append(
        _result("algebra", "tensor_bracket_containment", ok, "20 random tensor splits")
    )

    ok = True
    for _ in range(n_specs):
        spec = random_spec(rng)
        trunc = rng.randint(4, 30)
        degrees = [g.degree for g in algebra.instantiate(spec, trunc)]
        if degrees != sorted(degrees):
            ok = False
            break
    out.append(
        _result("algebra", "instantiate_sorted", ok, f"{n_specs} random specs")
    )
    return out


# ---------------------------------------------------------------------------
# suite: presets
# ---------------------------------------------------------------------------


def _suite_presets(rng: random.Random) -> list[CheckResult]:
    out = []
    h = algebra.hilbert(presets.preset("dual_steenrod", 2), 7)
    out.append(
        _result(
            "presets",
            "dual_steenrod_2_spot",
            h.coeffs == (1, 1, 1, 2, 2, 2, 3, 4),
            f"N = 7 coefficients {list(h.coeffs)}",
        )
    )

    ok = True
    for p in (3, 5):
        plain = algebra.hilbert_cumulative(presets.preset("may_e1", p, drop_q0=True), 40)
        simple = algebra.hilbert_cumulative(
            presets.preset("may_e1", p, drop_q0=True, simplify_odd=True), 40
        )
        if not plain.leq(simple):
            ok = False
    out.append(
        _result(
            "presets",
            "simplify_odd_dominates_cumulatively",
            ok,
            "p in {3, 5}, N = 40, cumulative comparison",
        )
    )

    try:
        presets.preset("may_e1", 2)
        ok = False
    except presets.PresetError:
        ok = True
    out.append(
        _result(
            "presets",
            "degree_zero_generator_rejected",
            ok,
            "may_e1 without drop_q0 raises",
        )
    )

    a = presets.max_over_h("r_h_e2", 2, 64)
    b = presets.max_over_h("r_h_e2", 2, 64)
    out.append(
        _result(
            "presets",
            "max_over_h_deterministic",
            a == b and a.series[64] >= 1,
            f"argmax h = {a.argmax[64]} at N = 64",
        )
    )

    ok = True
    for name in ("may_model", "dual_steenrod", "q_poly"):
        for p in (2, 3):
            kwargs = {"drop_q0": True} if name == "q_poly" else {}
            spec = presets.preset(name, p, **kwargs)
            if algebra.hilbert(spec, 20) != algebra.oracle_hilbert(spec, 20):
                ok = False
    out.append(
        _result(
            "presets",
            "presets_vs_oracle",
            ok,
            "may_model/dual_steenrod/q_poly at p in {2, 3}, N = 20",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: torsion
# ---------------------------------------------------------------------------


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


def _log_table(p: int) -> list[float]:
    """log_p(n) for 1 <= n <= SCAN_LIMIT, computed as `stable_torsion_bound`
    computes it."""
    if p == 2:
        return [math.log2(n) for n in range(1, SCAN_LIMIT + 1)]
    log_p = math.log(p)  # math.log(n, p) is this quotient of the same floats
    return [math.log(n) / log_p for n in range(1, SCAN_LIMIT + 1)]


def _curve_table(curve: torsion.VanishingCurve) -> list[int]:
    """g(n) for 1 <= n <= SCAN_LIMIT; each call checks 1 <= g(n) <= n."""
    return [curve(n) for n in range(1, SCAN_LIMIT + 1)]


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
    the block; top = 0 sums to 0.
    """
    n_max = GOODWILLIE_N
    legendre = list(accumulate(vals[1 : n_max + 1], initial=0))
    for s in range(1, GOODWILLIE_S + 1):
        for top in range(1, (n_max - 1) // s + 1):
            if top + legendre[top] > 2 * (s * top + 1) / s:
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
    prefix: list[int],
    logs: list[float],
    gs: list[int],
) -> tuple[bool, str]:
    """exact_sum <= closed_form for all 1 <= n <= SCAN_LIMIT via prefix sums
    of the per-column term, cross-checked against direct calls.

    prefix and logs are the run's column prefix and log_p table of p, gs
    its g(n) table of the curve.
    """
    n_max = SCAN_LIMIT
    span = _span(p)
    slope, const = torsion._closed_form_coefficients(p)

    def exact(n: int) -> int:  # g >= 1, so hi >= lo - 1
        return prefix[(n + gs[n - 1]) // span] - prefix[n // span]

    def closed(n: int) -> float:  # added in stable_torsion_bound's order
        return slope * gs[n - 1] + logs[n - 1] + const

    # margins[n - 1] = closed(n) - exact(n), inlined for speed
    margins = [
        slope * g + lg + const - (prefix[(n + g) // span] - prefix[n // span])
        for n, g, lg in zip(range(1, n_max + 1), gs, logs)
    ]
    least = min(margins)
    if least < 0:  # exact > closed + 1e-9 needs a negative margin
        for n in range(1, n_max + 1):
            if exact(n) > closed(n) + 1e-9:
                return False, f"violation at p={p}, n={n}"
    # near-ties and a sample settled by the direct function
    sample = {i + 1 for i in heapq.nsmallest(5, range(n_max), key=margins.__getitem__)}
    sample.update((1, 2, 3, n_max))
    for n in sorted(sample):
        rep = torsion.stable_torsion_bound(p, n, curve)
        if rep.exact_sum != exact(n) or rep.exact_sum > rep.closed_form:
            return False, f"direct call mismatch at p={p}, n={n}"
    return True, f"p={p}: all n <= {n_max}, min margin {least:.4f}"


def _suite_torsion(rng: random.Random) -> list[CheckResult]:
    out = []
    # each table is built once in this run and shared by the scans using it
    sieves = {p: _valuation_sieve(p) for p in (2, 3, 5)}
    for p in (2, 3, 5):
        ok, detail = _counting_scan(p, sieves[p])
        out.append(_result("torsion", f"counting_lemma_exhaustive_p{p}", ok, detail))
    curves = (
        ("linear", torsion.LinearCurve()),
        ("sqrt", torsion.PowerLawCurve(0.5, 1.0)),
    )
    g_tables = {label: _curve_table(curve) for label, curve in curves}
    for p in (2, 3, 5):
        prefix = _column_prefix(p, sieves[p], _top_column(p))
        logs = _log_table(p)
        for label, curve in curves:
            ok, detail = _stable_scan(p, curve, prefix, logs, g_tables[label])
            out.append(
                _result("torsion", f"stable_bound_exhaustive_p{p}_{label}", ok, detail)
            )

    ok = all(_goodwillie_scan(p, sieves[p]) is None for p in (2, 3, 5))
    out.append(
        _result(
            "torsion",
            "goodwillie_linear_envelope",
            ok,
            f"s <= {GOODWILLIE_S}, n <= {GOODWILLIE_N}, p in {{2, 3, 5}}, m = 1",
        )
    )

    zeros = sum(1 for u in range(1, SCAN_LIMIT + 1) if torsion.an_e2_exponent(3, u) == 0)
    frac = zeros / SCAN_LIMIT
    out.append(
        _result(
            "torsion",
            "an_e2_zero_fraction_p3",
            abs(frac - 0.5) < 0.01,
            f"fraction {frac:.4f} of u <= {SCAN_LIMIT} give exponent 0 "
            f"(expected (p-2)/(p-1) = 0.5)",
        )
    )

    ok = True
    for s in range(1, 6):
        prev = None
        for n in range(1, 200):
            b = torsion.barratt_bound(s, 2, n)
            if prev is not None and b < prev:
                ok = False
            prev = b
    for n in (17, 64, 150):
        prev = None
        for s in range(1, 12):
            b = torsion.barratt_bound(s, 2, n)
            if prev is not None and b > prev:
                ok = False
            prev = b
    out.append(
        _result(
            "torsion",
            "barratt_monotonicity",
            ok,
            "nondecreasing in n (s <= 5), nonincreasing in s (grid)",
        )
    )

    ok = True
    for p in (2, 3):
        span = 2 * p - 2
        for n in rng.sample(range(1, 5000), 50):
            a = torsion.stable_torsion_bound(p, n, torsion.LinearCurve()).exact_sum
            b = torsion.stable_torsion_bound(p, n + span, torsion.LinearCurve()).exact_sum
            hi = (2 * (n + span)) // span
            # the largest valuation in 1..hi is the largest k with p^k <= hi
            top = max(k for k in range(hi.bit_length()) if p**k <= hi)
            if a > b + 1 + top + (1 if p == 2 else 0):
                ok = False
    out.append(
        _result(
            "torsion",
            "stable_bound_local_growth",
            ok,
            "exact(n) <= exact(n + 2p-2) + (1 + max window valuation), sampled",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: ehp
# ---------------------------------------------------------------------------


def _suite_ehp(rng: random.Random) -> list[CheckResult]:
    out = []
    ok = all(
        ehp.verify_ehp_recurrence(p, n, 60) for p in (2, 3) for n in range(1, 9)
    )
    out.append(
        _result("ehp", "ehp_recurrence", ok, "p in {2, 3}, n <= 8, N = 60")
    )

    for p, lo in ((2, 2), (3, 3)):
        pa = ehp.admissible_series(p, 60)
        bad: dict[int, list[int]] = {}
        for n in range(lo, 9):
            a = ehp.a_series(p, n, 60)
            degs = [d for d in range(61) if a[d] > pa[d]]
            if degs:
                bad[n] = degs
        detail = f"A(n;t) <= P(A;t) for {lo} <= n <= 8, N = 60"
        if bad:
            degs = sorted({d for ds in bad.values() for d in ds})
            detail += (
                f"; excess coefficients at degrees {degs} "
                f"(one singleton sequence each, in degrees with no "
                f"admissible monomial)"
            )
        out.append(_result("ehp", f"a_series_below_admissible_p{p}", not bad, detail))

    ok = True
    for p in (2, 3):
        for n in range(2, 8):
            if not ehp.a_series(p, n, 40).leq(ehp.a_series(p, n - 1, 40)):
                ok = False
    out.append(
        _result(
            "ehp",
            "a_series_monotone_in_excess",
            ok,
            "I(n) within I(n-1): A(n;t) <= A(n-1;t), n <= 7, N = 40",
        )
    )

    ok = True
    for n in range(1, 7):
        lhs = {}
        for J in ehp.enumerate_I(2, n, 30):
            lhs[J.entries] = J.dim
        # independent enumeration of the shifted set: j_k >= n-1, j_s > 2 j_{s+1} + 1
        def grow(suffix, total):
            rhs[suffix] = total
            j = 2 * suffix[0] + 2
            while total + j <= 30:
                grow((j,) + suffix, total + j)
                j += 1

        rhs = {(): 0}
        j = n - 1
        while j <= 30:
            grow((j,), j)
            j += 1
        lhs_shift = {
            tuple(i - 1 for i in k): v for k, v in lhs.items()
        }
        if lhs_shift != rhs:
            ok = False
    out.append(
        _result(
            "ehp",
            "shift_bijection",
            ok,
            "I(n) matches the shifted set (j_k >= n-1, j_s > 2 j_{s+1} + 1), "
            "n <= 6, dim <= 30",
        )
    )

    ok = True
    for p in (2, 3):
        for n in (1, 2, 5):
            seqs = ehp.enumerate_I(p, n, 30)
            counts = [0] * 31
            for J in seqs:
                counts[J.dim] += 1
            if (
                series.TruncatedSeries(counts) != ehp.a_series(p, n, 30)
                or [J.entries for J in seqs]
                != sorted(J.entries for J in seqs)
                or len({J.entries for J in seqs}) != len(seqs)
            ):
                ok = False
    out.append(
        _result(
            "ehp",
            "enumeration_matches_series",
            ok,
            "dim census == A(n;t), lexicographic, duplicate-free (n in {1,2,5})",
        )
    )

    ok = True
    for p, n in ((2, 40), (3, 40)):
        if ehp._admissible_counts(p, n) != algebra.hilbert(
            presets.preset("dual_steenrod", p), n
        ).coeffs:
            ok = False
    out.append(
        _result(
            "ehp",
            "admissible_vs_dual_steenrod",
            ok,
            "basis count equals Hilbert series, p in {2, 3}, N = 40",
        )
    )

    ok = True
    varpi = ehp.default_varpi_a(2, 30)
    point = series.TruncatedSeries.unit(30)
    lhs = ehp.unstable_rank_bound(2, point, varpi, 30)
    rhs = ehp.unstable_ext_bound(2, point, varpi, 30).scale(2)
    if lhs != rhs:
        ok = False
    try:
        ehp.unstable_rank_bound(2, series.TruncatedSeries([0, 1]), varpi, 1)
        ok = False
    except series.SeriesError:
        pass
    out.append(
        _result(
            "ehp",
            "unstable_bounds_consistent",
            ok,
            "doubling identity and connectedness guard",
        )
    )
    return out


# ---------------------------------------------------------------------------
# suite: asymptotics
# ---------------------------------------------------------------------------


def _suite_asymptotics(rng: random.Random) -> list[CheckResult]:
    out = []
    ok = True
    for p in (2, 3, 5, 7):
        c = asymptotics.constants(p)
        if not c.k1 < c.k2 < c.k3:
            ok = False
    out.append(
        _result("asymptotics", "constants_ordering", ok, "K1 < K2 < K3, p in {2,3,5,7}")
    )

    ok = True
    details = []
    for p, m in ((2, 6), (3, 4)):
        for model in asymptotics.BRACKET_MODELS:
            rep = asymptotics.bracketing_check(p, m, model)
            details.append(f"{model}(p={p}, m={m})")
            if not rep.ok:
                ok = False
    out.append(
        _result("asymptotics", "bracketing_small_scales", ok, "; ".join(details))
    )

    prof = asymptotics.ratio_profile(
        presets.preset("may_model", 2), 3, [2**m for m in range(8, 15)]
    )
    ratios = [r.ratio for r in prof.rows]
    k3 = asymptotics.constants(2).k3
    below = all(r < k3 for r in ratios)
    nondec = all(a <= b for a, b in zip(ratios, ratios[1:]))
    out.append(
        _result(
            "asymptotics",
            "may_model_ratio_profile",
            below,
            f"ratios below K3 = {k3:.5f}; nondecreasing over 2^8..2^14: {nondec} "
            f"(recorded, not asserted)",
        )
    )
    return out


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


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
    return SUITES[name](random.Random(seed))


def run(suite: str = "all", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if suite == "all":
        results = []
        for name in SUITES:
            results.extend(run_suite(name, seed))
        return results
    return run_suite(suite, seed)


def format_report(results: list[CheckResult], suite: str, seed: int) -> str:
    lines = [f"verify suite={suite} seed={seed}"]
    lines.extend(r.line() for r in results)
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"

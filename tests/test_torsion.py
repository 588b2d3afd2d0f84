import contextlib
import json
import math
import random
import signal
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemsize import torsion, verify
from stemsize.torsion import (
    LinearCurve,
    PowerLawCurve,
    TableCurve,
    TorsionError,
    an_e2_exponent,
    barratt_bound,
    counting_lemma,
    goodwillie_bound,
    im_j_lower,
    integral_log_bound,
    norm_torsion_order,
    stable_torsion_bound,
    sum_val_p,
    val_p,
)

primes = st.sampled_from([2, 3, 5, 7])

WINDOW_MAX_N = 3000
WINDOW_CURVES = {
    "linear": LinearCurve(),
    "sqrt": PowerLawCurve(0.5, 1.0),
    "pow0.3": PowerLawCurve(0.3),
    "table": TableCurve(
        tuple(min(n, math.isqrt(5 * n) + n // 50) for n in range(1, WINDOW_MAX_N + 1))
    ),
}


def _e2_term(p, i):
    """Column i's exponent: the reference kernel for the stable window sums
    and for the torsion suite's column prefix."""
    if p == 2:
        return 1 + val_p(2, i) + (1 if i % 2 == 0 else 0)
    return 1 + val_p(p, i)


@contextlib.contextmanager
def within(seconds):
    """Fail a call that runs longer than `seconds` instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestBaseBelowTwo:
    # each of these once looped forever or divided by zero at p < 2
    @pytest.mark.parametrize("call", [
        lambda p: val_p(p, 8),
        lambda p: sum_val_p(p, 9),
        lambda p: an_e2_exponent(p, 4),
        lambda p: counting_lemma(p, 0, 5),
        lambda p: goodwillie_bound(1, 1, 10, p),
        lambda p: norm_torsion_order(p, 1, 4),
    ], ids=["val_p", "sum_val_p", "an_e2_exponent", "counting_lemma",
            "goodwillie_bound", "norm_torsion_order"])
    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_valuations_refuse(self, call, p):
        with within(1.0), pytest.raises(TorsionError, match=rf"^p-adic valuation needs "
                                         rf"p >= 2, got {p}$"):
            call(p)

    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_double_suspension_refuses(self, p):
        with within(1.0), pytest.raises(TorsionError, match=rf"^double-suspension bound "
                                         rf"needs p >= 2, got {p}$"):
            barratt_bound(1, 1, 5, p=p, double_suspension=True)


class TestValuations:
    def test_val_p(self):
        assert val_p(2, 48) == 4
        assert val_p(3, 48) == 1
        assert val_p(5, 48) == 0

    def test_val_p_zero_rejected(self):
        with pytest.raises(TorsionError):
            val_p(2, 0)

    def test_sum_val_p_legendre(self):
        for p in (2, 3, 5):
            for b in range(1, 200):
                assert sum_val_p(p, b) == sum(val_p(p, i) for i in range(1, b + 1))

    def test_an_e2_exponent_table(self):
        assert an_e2_exponent(2, 1) == 1
        assert an_e2_exponent(2, 12) == 4
        assert an_e2_exponent(3, 5) == 0
        assert an_e2_exponent(3, 18) == 3
        assert an_e2_exponent(5, 0) is None


class TestCountingLemma:
    def test_examples(self):
        assert counting_lemma(2, 0, 4) == (7, 10.0)
        exact, bound = counting_lemma(3, 2, 3)
        assert exact == 2
        assert math.isclose(bound, 2.5)
        assert counting_lemma(2, 0, 1) == (1, 2.0)

    def test_bad_window_rejected(self):
        with pytest.raises(TorsionError):
            counting_lemma(2, 3, 3)
        with pytest.raises(TorsionError):
            counting_lemma(2, -1, 3)

    @given(primes, st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
    @settings(max_examples=200)
    def test_exact_below_bound(self, p, a, width):
        exact, bound = counting_lemma(p, a, a + width)
        assert exact <= bound

    @given(primes, st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=300))
    @settings(max_examples=100)
    def test_exact_is_telescoping(self, p, a, width):
        b = a + width
        exact, _ = counting_lemma(p, a, b)
        assert exact == sum(1 + val_p(p, i) for i in range(a + 1, b + 1))


class TestStableBound:
    def test_linear_example(self):
        rep = stable_torsion_bound(2, 16, LinearCurve())
        assert rep.exact_sum == 20
        assert math.isclose(rep.closed_form, 26.0)

    def test_odd_prime_example(self):
        rep = stable_torsion_bound(3, 48, LinearCurve())
        assert rep.exact_sum == 17
        assert math.isclose(
            rep.closed_form, 3 / 8 * 48 + math.log(48, 3) + 1
        )

    def test_json_round_trip(self):
        rep = stable_torsion_bound(2, 10, LinearCurve())
        obj = json.loads(rep.to_json())
        assert obj["p"] == 2 and obj["n"] == 10
        assert obj["exact_sum"] == rep.exact_sum

    def test_power_law_curve(self):
        curve = PowerLawCurve(exponent=0.5)
        assert curve(16) == 4
        assert curve(17) == 5
        rep = stable_torsion_bound(2, 100, curve)
        assert rep.exact_sum <= rep.closed_form

    def test_table_curve(self):
        curve = TableCurve((1, 2, 2, 3))
        assert curve(1) == 1
        assert curve(4) == 3
        with pytest.raises(TorsionError):
            curve(9)

    def test_degree_zero_rejected(self):
        with pytest.raises(TorsionError):
            stable_torsion_bound(2, 0, LinearCurve())

    @pytest.mark.parametrize("p", [-5, -1, 0, 1, 4, 6, 9])
    def test_non_prime_rejected(self, p):
        with pytest.raises(TorsionError, match=f"p = {p} is not prime"):
            stable_torsion_bound(p, 5, LinearCurve())

    @given(primes, st.integers(min_value=1, max_value=3000))
    @settings(max_examples=200)
    def test_exact_below_closed_form(self, p, n):
        rep = stable_torsion_bound(p, n, LinearCurve())
        assert rep.exact_sum <= rep.closed_form

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("curve", WINDOW_CURVES.values(), ids=WINDOW_CURVES.keys())
    def test_window_sum_matches_columns(self, p, curve):
        # the Legendre form against the window sum of per-column exponents
        span = 2 if p == 2 else 2 * p - 2
        top = 2 * WINDOW_MAX_N // span
        column = [0] + [_e2_term(p, i) for i in range(1, top + 1)]
        for n in range(1, WINDOW_MAX_N + 1):
            lo, hi = n // span + 1, (n + curve(n)) // span
            assert stable_torsion_bound(p, n, curve).exact_sum == sum(column[lo : hi + 1]), n


class TestScanTables:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_valuation_sieve(self, p):
        vals = verify._valuation_sieve(p)
        span = 2 if p == 2 else 2 * p - 2
        assert len(vals) == max(verify.SCAN_LIMIT, 2 * verify.SCAN_LIMIT // span + 1) + 1
        assert vals[0] == 0
        assert vals[1:] == [val_p(p, x) for x in range(1, len(vals))]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_column_prefix_matches_reference(self, p):
        top = 3000
        prefix = verify._column_prefix(p, verify._valuation_sieve(p), top)
        total = 0
        assert len(prefix) == top + 1 and prefix[0] == 0
        for hi in range(1, top + 1):
            total += _e2_term(p, hi)
            assert prefix[hi] == total, hi

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_log_table_is_two_argument_log(self, p):
        # stable_torsion_bound takes math.log(n, p); the table must be the
        # same float for every n, not merely a close one
        want = [math.log(n, p).hex() for n in range(1, verify.SCAN_LIMIT + 1)]
        assert [x.hex() for x in verify._log_table(p)] == want

    def test_stable_scan_reports_first_violation(self):
        # a log table pushed far down from n = 100 on makes the closed form
        # fall below the exact sum there and nowhere before
        logs = verify._log_table(3).tolist()
        logs[99:] = [-50.0] * (len(logs) - 99)
        tables = verify._curve_table(LinearCurve()), logs, verify._window_sums(3, LinearCurve())
        assert verify._stable_scan(3, LinearCurve(), *tables) == (
            False, "violation at p=3, n=100")


def _counting_oracle(p, vals):
    """The counting-lemma scan by its definition: one big-integer comparison
    p**q > b**(p-1) per b with a positive slack q, with no threshold kept
    from one b to the next."""
    n = verify.SCAN_LIMIT
    g = list(accumulate(((p - 1) * v - 1 for v in vals[1 : n + 1]), initial=0))
    prefix_min = list(accumulate(g, min))
    q = [gb - m for gb, m in zip(g[1:], prefix_min)]
    for b, qb in enumerate(q, 1):
        if qb > 0 and p**qb > b ** (p - 1):
            return False, f"violation at p={p}, b={b}"
    worst_q = max(q)
    b_star = q.index(worst_q) + 1
    a_star = g.index(prefix_min[b_star - 1])
    exact, bound = torsion.counting_lemma(p, a_star, b_star)
    if exact > bound:
        return False, f"direct call violation at p={p}, a={a_star}, b={b_star}"
    return True, f"p={p}: all pairs <= {n}, tightest slack q = {worst_q}"


def _goodwillie_oracle(p, bound=None):
    """The Goodwillie envelope check with one bound call per grid point, as
    the suite ran it before the block scan: the first (s, n) with
    exact > linear, or None.  bound defaults to torsion.goodwillie_bound as
    looked up at call time, so a monkeypatch reaches it."""
    bound = bound or torsion.goodwillie_bound
    for s in range(1, verify.GOODWILLIE_S + 1):
        for n in range(1, verify.GOODWILLIE_N + 1):
            exact, linear = bound(s, 1, n, p)
            if exact > linear:
                return s, n
    return None


def _legendre(vals):
    return list(accumulate(vals[1 : verify.GOODWILLIE_N + 1], initial=0))


def _table_bound(legendre):
    """goodwillie_bound read off a (possibly perturbed) Legendre list."""

    def bound(s, m, n, p):
        top = (n - 1) // s
        return (m * top + legendre[top] if top >= 1 else 0), (m + 1) * n / s

    return bound


class TestExactScans:
    """The table-driven scans against the per-point loops they replaced."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_counting_scan_matches_oracle(self, p):
        vals = verify._valuation_sieve(p)
        got = verify._counting_scan(p, vals)
        assert got == _counting_oracle(p, vals)
        assert got[0]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counting_scan_perturbed_sieve(self, p):
        rng = random.Random(p)
        fails = 0
        for _ in range(25):
            vals = verify._valuation_sieve(p)
            for _ in range(rng.randint(1, 3)):
                vals[rng.randint(1, verify.SCAN_LIMIT)] += rng.randint(-4, 30)
            got = verify._counting_scan(p, vals)
            assert got == _counting_oracle(p, vals)
            fails += not got[0]
        assert fails >= 5  # the perturbations do reach the FAIL branch

    def test_counting_scan_first_violation(self):
        vals = verify._valuation_sieve(2)
        vals[5000] += 20
        vals[7000] += 40
        assert verify._counting_scan(2, vals) == (False, "violation at p=2, b=5000")
        assert _counting_oracle(2, vals) == (False, "violation at p=2, b=5000")

    @pytest.mark.parametrize("b, worst_q", [(1024, 12), (8192, 13)])
    def test_counting_scan_tie_is_no_violation(self, b, worst_q):
        # one more valuation at b = 2^k lifts its slack to q = k, where
        # p^q == b^(p-1) exactly: a tie, which the claim allows
        vals = verify._valuation_sieve(2)
        vals[b] += 1
        want = (True, f"p=2: all pairs <= 10000, tightest slack q = {worst_q}")
        assert verify._counting_scan(2, vals) == _counting_oracle(2, vals) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counting_scan_all_slacks_negative(self, p, monkeypatch):
        # with no valuations every slack is -1, so the tightest is the one
        # at b = 1, against a = 0, where the direct call is made
        vals = [0] * (verify.SCAN_LIMIT + 1)
        want = (True, f"p={p}: all pairs <= 10000, tightest slack q = -1")
        assert verify._counting_scan(p, vals) == _counting_oracle(p, vals) == want
        monkeypatch.setattr(torsion, "counting_lemma", lambda p, a, b: (b + 1, 0.0))
        want = (False, f"direct call violation at p={p}, a=0, b=1")
        assert verify._counting_scan(p, vals) == _counting_oracle(p, vals) == want

    def test_counting_scan_direct_call_takes_first_minimum(self, monkeypatch):
        # g(1) = g(2) = -1 is the least g before b = 3, whose slack 1 is the
        # largest; the direct call is made at the first a of that minimum
        vals = [0] * (verify.SCAN_LIMIT + 1)
        vals[2], vals[3] = 1, 2
        want = (True, "p=2: all pairs <= 10000, tightest slack q = 1")
        assert verify._counting_scan(2, vals) == _counting_oracle(2, vals) == want
        monkeypatch.setattr(torsion, "counting_lemma", lambda p, a, b: (b + 1, 0.0))
        want = (False, "direct call violation at p=2, a=1, b=3")
        assert verify._counting_scan(2, vals) == _counting_oracle(2, vals) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counting_scan_huge_slack(self, p):
        # a slack of about 10^6 at b = 10 is a violation, settled without
        # building p^q: every product or power taken with p stays within one
        # factor p of b^(p-1)
        vals = verify._valuation_sieve(p)
        vals[10] += 10**6
        built = []

        class TracedPrime(int):
            def __mul__(self, other):
                built.append(int(self) * other)
                return built[-1]

            __rmul__ = __mul__

            def __pow__(self, other):
                built.append(int(self) ** other)
                return built[-1]

        want = (False, f"violation at p={p}, b=10")
        assert verify._counting_scan(TracedPrime(p), vals) == want
        assert built and max(built) <= p * 10 ** (p - 1)

    def test_counting_scan_monkeypatched_counting_lemma(self, monkeypatch):
        monkeypatch.setattr(torsion, "counting_lemma", lambda p, a, b: (b + 1, 0.0))
        for p in (2, 3, 5):
            vals = verify._valuation_sieve(p)
            got = verify._counting_scan(p, vals)
            assert got == _counting_oracle(p, vals)
            assert got[1].startswith(f"direct call violation at p={p}, a=")

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_goodwillie_scan_matches_oracle(self, p):
        assert verify._goodwillie_scan(p, verify._valuation_sieve(p)) is None
        assert _goodwillie_oracle(p) is None

    def test_goodwillie_table_matches_bound(self):
        for p in (2, 3, 5):
            bound = _table_bound(_legendre(verify._valuation_sieve(p)))
            for s in range(1, verify.GOODWILLIE_S + 1):
                for n in range(1, verify.GOODWILLIE_N + 1, 7):
                    assert bound(s, 1, n, p) == goodwillie_bound(s, 1, n, p)

    def test_goodwillie_verdict_in_integers_matches_the_float_form(self):
        # The scan decides s * exact > 2n, the envelope exact > 2n/s without
        # the division.  Besides each exact sum, compare the integers next to
        # 2n/s; at s in {1, 2} that is an integer and the sides can tie.
        ties = 0
        for p in (2, 3, 5):
            legendre = _legendre(verify._valuation_sieve(p))
            for s in range(1, verify.GOODWILLIE_S + 1):
                for n in range(1, verify.GOODWILLIE_N + 1):
                    top = (n - 1) // s
                    near = 2 * n // s
                    for value in (top + legendre[top], near - 1, near, near + 1):
                        assert (s * value > 2 * n) == (value > 2 * n / s), (p, s, n, value)
                        ties += s * value == 2 * n
        assert ties >= 2 * 3 * verify.GOODWILLIE_N  # every n at s = 1 and 2

    @pytest.mark.parametrize(
        "p, x, bump",
        [(2, 1000, 600), (3, 700, 500), (5, 1, 3), (5, 1500, 1200), (3, 1999, 2000),
         (2, 40, 50)],
    )
    def test_goodwillie_scan_perturbed_sieve(self, p, x, bump):
        # raising |x|_p by bump raises every Legendre prefix from x on
        vals = verify._valuation_sieve(p)
        vals[x] += bump
        got = verify._goodwillie_scan(p, vals)
        assert got is not None
        assert got == _goodwillie_oracle(p, _table_bound(_legendre(vals)))

    @pytest.mark.parametrize(
        "k, d, want",
        [
            # one wrong prefix entry below the envelope's reach is still
            # caught where it meets the direct call at n = GOODWILLIE_N
            (1999, 1, (1, 2000)),
            (300, 1000, (1, 301)),
            # legendre[666] = 330 + 337 = 667 makes exact = 2*666 + 1, within
            # 2n/s for s <= 2; it first breaks it at s = 3, in the last block
            (666, 337, (3, 1999)),
        ],
    )
    def test_goodwillie_scan_perturbed_legendre_entry(self, k, d, want):
        # only legendre[k] moves by d: |k|_p moves by d and |k + 1|_p by -d
        vals = verify._valuation_sieve(3)
        legendre = _legendre(vals)
        vals[k] += d
        vals[k + 1] -= d
        legendre[k] += d
        assert _legendre(vals) == legendre
        assert verify._goodwillie_scan(3, vals) == want
        oracle = _goodwillie_oracle(3, _table_bound(legendre))
        assert oracle == (None if want == (1, verify.GOODWILLIE_N) else want)

    def test_goodwillie_scan_monkeypatched_bound(self, monkeypatch):
        real = torsion.goodwillie_bound

        def wrong_at_top(s, m, n, p):
            exact, linear = real(s, m, n, p)
            if (s, n, p) == (5, verify.GOODWILLIE_N, 3):
                exact += 10**6
            return exact, linear

        monkeypatch.setattr(torsion, "goodwillie_bound", wrong_at_top)
        assert verify._goodwillie_scan(2, verify._valuation_sieve(2)) is None
        assert verify._goodwillie_scan(3, verify._valuation_sieve(3)) == (
            5, verify.GOODWILLIE_N)
        assert _goodwillie_oracle(3) == (5, verify.GOODWILLIE_N)

    def test_goodwillie_scan_monkeypatched_everywhere(self, monkeypatch):
        real = torsion.goodwillie_bound
        monkeypatch.setattr(
            torsion, "goodwillie_bound", lambda s, m, n, p: (real(s, m, n, p)[0] + 5, (m + 1) * n / s)
        )
        for p in (2, 3, 5):
            assert _goodwillie_oracle(p) == (1, 1)
            # the table scan meets the wrong function at its one direct call
            vals = verify._valuation_sieve(p)
            assert verify._goodwillie_scan(p, vals) == (1, verify.GOODWILLIE_N)

    def test_suite_lines_fail_on_perturbed_sieve(self, monkeypatch):
        real = verify._valuation_sieve

        def perturbed(p):
            vals = real(p)
            vals[900] += 2000
            return vals

        monkeypatch.setattr(verify, "_valuation_sieve", perturbed)
        lines = {r.name: r for r in verify.run_suite("torsion")}
        for p in (2, 3, 5):
            vals = perturbed(p)
            rep = lines[f"counting_lemma_exhaustive_p{p}"]
            assert (rep.ok, rep.detail) == _counting_oracle(p, vals)
            assert not rep.ok
        rep = lines["goodwillie_linear_envelope"]
        assert not rep.ok
        assert rep.detail == "s <= 8, n <= 2000, p in {2, 3, 5}, m = 1"

    def test_suite_line_fails_on_monkeypatched_bound(self, monkeypatch):
        real = torsion.goodwillie_bound
        monkeypatch.setattr(
            torsion, "goodwillie_bound",
            lambda s, m, n, p: (real(s, m, n, p)[0] + (n == 2000 and s == 8), (m + 1) * n / s),
        )
        rep = {r.name: r for r in verify.run_suite("torsion")}["goodwillie_linear_envelope"]
        assert rep.line() == (
            "FAIL torsion.goodwillie_linear_envelope: s <= 8, n <= 2000, p in {2, 3, 5}, m = 1"
        )


class TestImJ:
    def test_examples(self):
        assert im_j_lower(3, 3) == 1
        assert im_j_lower(3, 7) == 1
        assert im_j_lower(3, 35) == 3
        assert im_j_lower(3, 4) == 0
        assert im_j_lower(5, 39) == 2

    def test_p2_rejected(self):
        with pytest.raises(TorsionError):
            im_j_lower(2, 7)

    @given(st.sampled_from([3, 5, 7]), st.integers(min_value=1, max_value=2000))
    @settings(max_examples=200)
    def test_lower_at_most_stable_bound(self, p, n):
        rep = stable_torsion_bound(p, n, LinearCurve())
        assert im_j_lower(p, n) <= max(rep.exact_sum, 1)


class TestBarratt:
    def test_examples(self):
        assert barratt_bound(2, 1, 8) == 2
        assert barratt_bound(1, 1, 1) == 0
        assert barratt_bound(1, 2, 9, p=3, double_suspension=True) == 3

    def test_monotone_in_degree(self):
        vals = [barratt_bound(3, 2, n) for n in range(1, 100)]
        assert vals == sorted(vals)

    def test_invalid_rejected(self):
        with pytest.raises(TorsionError):
            barratt_bound(0, 1, 4)


class TestGoodwillie:
    def test_examples(self):
        assert goodwillie_bound(4, 1, 4, 2) == (0, 2.0)
        exact, linear = goodwillie_bound(1, 0, 9, 3)
        assert exact == 2
        assert math.isclose(linear, 9.0)

    def test_term_by_term(self):
        for s in range(1, 6):
            for n in range(1, 60):
                for p in (2, 3):
                    exact, linear = goodwillie_bound(s, 2, n, p)
                    direct = sum(
                        2 + val_p(p, k) for k in range(1, n) if s * k < n
                    )
                    assert exact == direct
                    assert exact <= linear

    def test_connectivity_guard(self):
        with pytest.raises(TorsionError):
            goodwillie_bound(0, 1, 4, 2)


class TestNormAndIntegral:
    def test_norm_examples(self):
        assert norm_torsion_order(2, 1, 2) == 2
        assert norm_torsion_order(3, 4, 7) == 4
        assert norm_torsion_order(2, 1, 8) == 4

    def test_integral_with_constant_model(self):
        n = 10
        got = integral_log_bound(n, rank_model=lambda p, m: 1)
        want = sum(math.log(p) * n for p in (2, 3, 5, 7))
        assert math.isclose(got, want)

    def test_integral_default_model_positive(self):
        assert integral_log_bound(6) > 0

    def test_degree_guard(self):
        with pytest.raises(TorsionError):
            integral_log_bound(0)

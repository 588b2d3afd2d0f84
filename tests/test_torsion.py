import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemsize import verify
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

    def test_stable_scan_reports_first_violation(self):
        # a log table pushed far down from n = 100 on makes the closed form
        # fall below the exact sum there and nowhere before
        logs = verify._log_table(3)
        logs[99:] = [-50.0] * (len(logs) - 99)
        assert verify._stable_scan(3, LinearCurve(), logs=logs) == (
            False, "violation at p=3, n=100")


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

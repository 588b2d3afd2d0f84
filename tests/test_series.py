import io
import json
import math
import sys
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stemsize import series
from stemsize.series import (
    EXTERIOR,
    POLYNOMIAL,
    GeneratorKind,
    ResourceLimitError,
    SeriesError,
    TruncatedSeries,
    _fold,
    factor_series,
)


def S(*coeffs):
    return TruncatedSeries(coeffs)


series_strategy = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=24
).map(TruncatedSeries)

KINDS = [POLYNOMIAL, EXTERIOR] + [GeneratorKind.truncated(k) for k in range(2, 7)]


class TestConstruction:
    def test_coeffs_and_trunc(self):
        s = S(1, 2, 3)
        assert s.trunc == 2
        assert s.coeffs == (1, 2, 3)
        assert s[1] == 2

    def test_negative_coefficient_rejected(self):
        with pytest.raises(SeriesError):
            TruncatedSeries([1, -1])

    def test_non_integer_rejected(self):
        with pytest.raises(SeriesError):
            TruncatedSeries([1.5])

    def test_empty_rejected(self):
        with pytest.raises(SeriesError):
            TruncatedSeries([])

    def test_bool_rejected(self):
        with pytest.raises(SeriesError):
            TruncatedSeries([1, True])

    @pytest.mark.parametrize("make", [TruncatedSeries.unit, TruncatedSeries.zero,
                                      TruncatedSeries.ones])
    def test_negative_truncation_rejected(self, make):
        with pytest.raises(SeriesError):
            make(-1)

    def test_json_negative_rejected(self):
        with pytest.raises(SeriesError):
            TruncatedSeries.from_json('{"trunc": 1, "coeffs": ["1", "-1"]}')

    @given(
        series_strategy,
        series_strategy,
        st.sampled_from(KINDS),
        st.integers(min_value=1, max_value=30),
    )
    def test_results_hold_exact_ints(self, a, b, kind, d):
        for result in (a.mul(b), a.mul_factor(kind, d)):
            assert all(type(c) is int for c in result)


class TestMul:
    def test_one_plus_t_squared(self):
        assert S(1, 1).mul(S(1, 1)) == S(1, 2)

    def test_unit_identity(self):
        one = S(1, 0, 0)
        a = S(3, 1, 4)
        assert one.mul(a) == a

    def test_direct_expansion(self):
        assert S(1, 1, 1).mul(S(1, 0, 1)) == S(1, 1, 2)

    def test_truncation_alignment(self):
        assert S(1, 1, 1, 1).mul(S(1, 1)).trunc == 1

    @given(series_strategy, series_strategy)
    def test_commutative(self, a, b):
        assert a.mul(b) == b.mul(a)

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=50)
    def test_associative(self, a, b, c):
        assert a.mul(b).mul(c) == a.mul(b.mul(c))

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=50)
    def test_distributes_over_add(self, a, b, c):
        n = min(a.trunc, b.trunc, c.trunc)
        lhs = a.mul(b.add(c))
        rhs = a.mul(b).add(a.mul(c))
        assert lhs.coeffs[: n + 1] == rhs.coeffs[: n + 1]


def naive_mul(a, b):
    """Reference convolution: every pair of coefficients, no lattice."""
    n = min(a.trunc, b.trunc)
    return TruncatedSeries(
        sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)
    )


@st.composite
def lattice_series(draw):
    """A series supported on the multiples of a drawn step >= 2."""
    step = draw(st.integers(min_value=2, max_value=7))
    trunc = draw(st.integers(min_value=0, max_value=40))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=trunc // step + 1,
            max_size=trunc // step + 1,
        )
    )
    out = [0] * (trunc + 1)
    out[::step] = values
    return TruncatedSeries(out)


constant_series = st.tuples(
    st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=30)
).map(lambda c: TruncatedSeries((c[0],) + (0,) * c[1]))

zero_series = st.integers(min_value=0, max_value=30).map(TruncatedSeries.zero)


class TestMulLattice:
    """`mul` convolves on the operands' common support lattice; these compare
    it with the plain convolution on operands of every support shape."""

    @given(lattice_series(), lattice_series())
    @example(S(1, 0, 2, 0, 3), S(4, 0, 0, 5))  # steps 2 and 3: the lattice is 1
    @example(S(1, 0, 0, 0, 2, 0, 0), S(3, 0, 0, 0, 0, 0, 4, 0))  # gcd 2
    @settings(max_examples=200)
    def test_lattice_operands(self, a, b):
        assert a.mul(b) == naive_mul(a, b)

    @given(
        constant_series,
        st.one_of(series_strategy, lattice_series(), constant_series),
    )
    @example(S(7), S(1, 2, 3))
    def test_constant_operand(self, a, b):
        assert a.mul(b) == naive_mul(a, b)
        assert b.mul(a) == naive_mul(b, a)

    @given(zero_series, st.one_of(series_strategy, lattice_series(), zero_series))
    def test_zero_operand(self, a, b):
        assert a.mul(b) == TruncatedSeries.zero(min(a.trunc, b.trunc))
        assert b.mul(a) == naive_mul(b, a)

    @given(
        st.one_of(series_strategy, lattice_series()),
        st.one_of(series_strategy, lattice_series()),
    )
    @settings(max_examples=200)
    def test_unequal_truncations(self, a, b):
        assert a.mul(b) == naive_mul(a, b)
        assert a.mul(b).trunc == min(a.trunc, b.trunc)


class TestMulFactor:
    def test_polynomial_factor(self):
        assert S(1, 0, 0, 0).mul_factor(POLYNOMIAL, 2) == S(1, 0, 1, 0)

    def test_exterior_factor(self):
        assert S(1, 0, 0, 0).mul_factor(EXTERIOR, 3) == S(1, 0, 0, 1)

    def test_truncated_factor(self):
        assert S(1, 1, 1, 1).mul_factor(GeneratorKind.truncated(2), 1) == S(1, 2, 2, 2)

    def test_zero_degree_rejected(self):
        with pytest.raises(SeriesError):
            S(1, 1).mul_factor(POLYNOMIAL, 0)

    @given(
        series_strategy,
        st.integers(min_value=1, max_value=10),
        st.sampled_from(["poly", "ext", "trunc"]),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=100)
    def test_matches_explicit_convolution(self, a, d, kind_name, order):
        if kind_name == "poly":
            kind = POLYNOMIAL
        elif kind_name == "ext":
            kind = EXTERIOR
        else:
            kind = GeneratorKind.truncated(order)
        assert a.mul_factor(kind, d) == a.mul(factor_series(kind, d, a.trunc))


def strided_poly_fold(coeffs, d):
    """Reference 1/(1-t^d) kernel: one running sum per residue class mod d."""
    out = list(coeffs)
    for r in range(min(d, len(out))):
        out[r::d] = accumulate(out[r::d])
    return TruncatedSeries(out)


def trunc_loop(coeffs, k, d):
    """Reference truncated(k) kernel, one coefficient at a time:
    out[n] = out[n-d] + c[n] - c[n-kd]."""
    c = list(coeffs)
    out = list(c)
    for n in range(d, len(c)):
        out[n] = out[n - d] + c[n] - (c[n - k * d] if n >= k * d else 0)
    return TruncatedSeries(out)


def big_series(trunc):
    return st.lists(
        st.integers(min_value=0, max_value=2**70),
        min_size=trunc + 1,
        max_size=trunc + 1,
    ).map(TruncatedSeries)


@st.composite
def poly_fold_cases(draw):
    """A series of truncation N <= 300 and a degree d around sqrt(N), at N,
    above N, or anywhere in between."""
    n = draw(st.integers(min_value=0, max_value=300))
    root = math.isqrt(n)
    ceil_root = root + (root * root < n)
    d = draw(
        st.one_of(
            st.sampled_from([max(root, 1), max(ceil_root, 1), root + 1, max(n, 1), n + 1]),
            st.integers(min_value=1, max_value=n + 5),
        )
    )
    return draw(big_series(n)), d


@st.composite
def trunc_fold_cases(draw):
    """k = 2..6 and a degree d with kd below, at or above the truncation."""
    k = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=1, max_value=300 // k))
    n = k * d + draw(
        st.one_of(
            st.sampled_from([-1, 0, 1]),
            st.integers(min_value=-k * d, max_value=300 - k * d),
        )
    )
    return draw(big_series(n)), k, d


class TestFoldKernels:
    """The blocked/strided `mul_factor` kernels against the plain strided
    fold and the per-coefficient truncated loop."""

    @given(poly_fold_cases())
    @example((S(1, 2, 3, 4, 5, 6, 7, 8, 9), 3))  # d^2 = N: strided
    @example((S(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 4))  # d^2 > N: blocked
    @example((S(5), 1))  # N = 0
    @example((S(1, 1, 1), 3))  # d = N + 1
    @settings(max_examples=300, deadline=None)
    def test_polynomial(self, case):
        a, d = case
        assert a.mul_factor(POLYNOMIAL, d) == strided_poly_fold(a.coeffs, d)

    @given(trunc_fold_cases())
    @example((S(*range(1, 13)), 3, 4))  # kd = N - 1
    @example((S(*range(1, 14)), 3, 4))  # kd = N
    @example((S(*range(1, 12)), 3, 4))  # kd = N + 1
    @example((S(2, 3, 5, 7, 11, 13, 17), 2, 4))  # d^2 > N, kd > N
    @settings(max_examples=300, deadline=None)
    def test_truncated(self, case):
        a, k, d = case
        kind = GeneratorKind.truncated(k)
        assert a.mul_factor(kind, d) == trunc_loop(a.coeffs, k, d)

    @given(poly_fold_cases())
    @settings(max_examples=100, deadline=None)
    def test_exterior_is_truncated_two(self, case):
        a, d = case
        assert a.mul_factor(EXTERIOR, d) == trunc_loop(a.coeffs, 2, d)

    @given(poly_fold_cases())
    @settings(max_examples=100, deadline=None)
    def test_truncated_two_folds_as_exterior(self, case):
        a, d = case
        assert a.mul_factor(GeneratorKind.truncated(2), d) == a.mul_factor(EXTERIOR, d)


@st.composite
def kernel_cases(draw):
    """A kind, a degree d and a series of truncation N near the kernel's
    branch points: d^2 against N (blocked or strided), kd against N for
    trunc(k), and d above N."""
    kind = draw(st.sampled_from(KINDS))
    d = draw(st.integers(min_value=1, max_value=15))
    k = kind.nilpotence or 1
    n = draw(
        st.one_of(
            st.sampled_from([d * d - 1, d * d, d * d + 1, k * d - 1, k * d, d - 1, d]),
            st.integers(min_value=0, max_value=250),
        )
    )
    return kind, d, draw(big_series(max(n, 0)))


class TestInPlaceKernel:
    """`_fold` multiplies a coefficient list in place by one generator's
    Hilbert factor; `mul` by the explicit `factor_series` is the reference."""

    @staticmethod
    def check(kind, d, a):
        out = list(a.coeffs)
        assert _fold(out, kind, d) is None
        assert len(out) == len(a)
        assert TruncatedSeries(out) == a.mul(factor_series(kind, d, a.trunc))

    @given(kernel_cases())
    @example((POLYNOMIAL, 3, S(*range(1, 11))))  # d^2 <= N: strided
    @example((POLYNOMIAL, 4, S(*range(1, 11))))  # d^2 > N: blocked
    @example((POLYNOMIAL, 5, S(1, 2, 3)))  # d > N
    @example((EXTERIOR, 2, S(*range(1, 8))))
    @example((EXTERIOR, 8, S(*range(1, 8))))  # d > N
    @example((GeneratorKind.truncated(3), 2, S(*range(1, 6))))  # d^2 <= N < kd
    @example((GeneratorKind.truncated(3), 2, S(*range(1, 9))))  # d^2, kd <= N
    @example((GeneratorKind.truncated(2), 5, S(*range(1, 12))))  # kd <= N < d^2
    @example((GeneratorKind.truncated(4), 3, S(*range(1, 8))))  # N < d^2, kd
    @example((GeneratorKind.truncated(4), 9, S(*range(1, 8))))  # d > N
    @settings(max_examples=300, deadline=None)
    def test_matches_factor_product(self, case):
        self.check(*case)

    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_every_branch_on_a_grid(self, kind):
        # every (d, N) with d <= 9 and N <= 40 puts each branch of the
        # kernel (d^2 <= N or > N, kd <= N or > N, d > N) on both sides
        for d in range(1, 10):
            for n in range(41):
                self.check(kind, d, TruncatedSeries(range(7, 7 + n + 1)))

    @given(series_strategy, st.sampled_from(KINDS), st.integers(min_value=1, max_value=30))
    def test_mul_factor_leaves_receiver_unchanged(self, a, kind, d):
        before = tuple(a)
        result = a.mul_factor(kind, d)
        assert tuple(a) == before
        assert result.coeffs is not a.coeffs
        assert type(result.coeffs) is tuple


def alternating_sum(k, m, j):
    """Coefficient of t^j in (1 + t + ... + t^(k-1))^m by inclusion-exclusion."""
    return sum(
        (-1) ** i * math.comb(m, i) * math.comb(m - 1 + j - i * k, j - i * k)
        for i in range(min(m, j // k) + 1)
    )


class TestFactorPower:
    """`factor_series(kind, d, trunc, m)` is the factor of m generators."""

    @pytest.mark.parametrize("kind", KINDS, ids=str)
    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_repeated_folding(self, kind, m):
        for d, trunc in ((1, 20), (3, 31), (7, 20), (9, 8)):
            folded = TruncatedSeries.unit(trunc)
            for _ in range(m):
                folded = folded.mul_factor(kind, d)
            assert factor_series(kind, d, trunc, m) == folded

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=0, max_value=40),
    )
    @example(2, 7, 40)
    @example(6, 1, 5)
    @settings(max_examples=100, deadline=None)
    def test_truncated_matches_alternating_sum(self, k, m, trunc):
        got = factor_series(GeneratorKind.truncated(k), 1, trunc, m)
        assert list(got) == [alternating_sum(k, m, j) for j in range(trunc + 1)]

    def test_polynomial_binomials(self):
        m = 10**8
        got = factor_series(POLYNOMIAL, 2, 10, m)
        want = [0] * 11
        want[::2] = [math.comb(m - 1 + j, j) for j in range(6)]
        assert list(got) == want

    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_bad_arguments_rejected(self, kind):
        for d, trunc, m in ((0, 5, 1), (2, -1, 1), (2, 5, -1)):
            with pytest.raises(SeriesError):
                factor_series(kind, d, trunc, m)

    def test_exterior_binomials(self):
        assert list(factor_series(EXTERIOR, 1, 9, 6)) == [
            math.comb(6, j) for j in range(10)
        ]


@st.composite
def shift_cases(draw):
    """A series and a shift k up to 2 * trunc + 3, past the truncation."""
    a = draw(series_strategy)
    return a, draw(st.integers(min_value=0, max_value=2 * a.trunc + 3))


class TestCumulativeShiftHadamard:
    def test_running_sum(self):
        assert S(1, 0, 2, 0).cumulative() == S(1, 1, 3, 3)

    def test_zero(self):
        assert S(0, 0, 0).cumulative() == S(0, 0, 0)

    @given(series_strategy)
    def test_cumulative_is_geometric_product(self, a):
        assert a.cumulative() == a.mul_factor(POLYNOMIAL, 1)

    @given(series_strategy)
    def test_cumulative_monotone(self, a):
        c = a.cumulative().coeffs
        assert all(x <= y for x, y in zip(c, c[1:]))

    def test_shift(self):
        assert S(1, 2, 3).shift(1) == S(0, 1, 2)

    @given(series_strategy)
    def test_shift_zero_identity(self, a):
        assert a.shift(0) == a

    @given(series_strategy)
    def test_shift_composes(self, a):
        assert a.shift(1).shift(1) == a.shift(2)

    def test_shift_past_truncation(self):
        assert S(1, 2, 3).shift(3) == S(0, 0, 0)
        assert S(1, 2, 3).shift(5) == S(0, 0, 0)

    @given(shift_cases())
    @example((S(1, 2, 3), 5))
    @example((S(4), 1))
    @example((S(4), 3))
    def test_shift_keeps_truncation(self, case):
        a, k = case
        shifted = a.shift(k)
        assert shifted.trunc == a.trunc
        assert list(shifted) == [a[i - k] if i >= k else 0 for i in range(a.trunc + 1)]

    @given(series_strategy, st.integers(min_value=0, max_value=30))
    def test_shift_suppresses_cumulative(self, a, k):
        c = a.cumulative()
        assert c.shift(k).leq(c)


@st.composite
def hold_cases(draw):
    """Lattice values, a step and a truncation whose lattice they fill:
    steps both at most and above sqrt(trunc), truncations on and off the
    multiples of the step."""
    step = draw(st.integers(min_value=1, max_value=12))
    trunc = draw(st.integers(min_value=0, max_value=150))
    values = st.integers(min_value=0, max_value=2**70)
    return draw(st.lists(values, min_size=trunc // step + 1, max_size=trunc // step + 1)), step, trunc


class TestHold:
    @given(hold_cases())
    @example(([7], 1, 0))
    @example(([7], 5, 0))
    @example(([7, 8], 4, 7))  # step^2 > trunc: blocks repeated
    @example(([7, 8, 9, 10, 11], 4, 17))  # step^2 <= trunc: residue slices
    @example(([7, 8, 9, 10, 11], 4, 16))
    def test_holds_each_value_over_its_block(self, case):
        coeffs, step, trunc = case
        held = list(series._hold(iter(coeffs), step, trunc))
        assert held == [coeffs[n // step] for n in range(trunc + 1)]


class TestLeq:
    def test_examples(self):
        assert S(1, 0).leq(S(1, 1))
        assert not S(2, 0).leq(S(1, 5))

    @given(series_strategy)
    def test_reflexive(self, a):
        assert a.leq(a)

    @given(series_strategy, series_strategy)
    def test_antisymmetric(self, a, b):
        n = min(a.trunc, b.trunc)
        if a.leq(b) and b.leq(a):
            assert a.coeffs[: n + 1] == b.coeffs[: n + 1]

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=50)
    def test_transitive(self, a, b, c):
        n = min(a.trunc, b.trunc, c.trunc)
        ta = TruncatedSeries(a.coeffs[: n + 1])
        tb = TruncatedSeries(b.coeffs[: n + 1])
        tc = TruncatedSeries(c.coeffs[: n + 1])
        if ta.leq(tb) and tb.leq(tc):
            assert ta.leq(tc)


class TestCoeffLog:
    def test_log_of_one(self):
        assert S(1).coeff_log(0) == 0.0

    def test_power_of_two(self):
        got = S(2**35).coeff_log(0)
        assert math.isclose(got, 35 * math.log(2), rel_tol=2**-50)

    def test_large_power_of_ten(self):
        got = S(10**100).coeff_log(0)
        assert math.isclose(got, 100 * math.log(10), rel_tol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(SeriesError):
            S(0, 1).coeff_log(0)


class TestSerialization:
    def test_json_shape(self):
        obj = json.loads(S(1, 10**30).to_json())
        assert obj["trunc"] == 1
        assert obj["coeffs"] == ["1", str(10**30)]

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=2**500, max_value=2**700),
            ),
            min_size=1,
            max_size=20,
        ).map(TruncatedSeries)
    )
    @example(S(0))
    @example(S(2**512))
    @example(S(1, 10**30))
    def test_json_text_matches_dumps(self, a):
        assert a.to_json() == json.dumps(a.to_json_obj())

    @given(series_strategy)
    def test_round_trip(self, a):
        assert TruncatedSeries.from_json(a.to_json()) == a

    def test_csv_rows(self):
        assert list(S(1, 5).csv_rows()) == [(0, "1"), (1, "5")]

    def test_digits_past_interpreter_limit(self):
        # 10^5000 has 5001 digits; Python 3.11 converts 4300 by default
        text = "1" + "0" * 5000
        a = S(1, 10**5000)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert a.to_json() == '{"trunc": 1, "coeffs": ["1", "%s"]}' % text
        assert a.to_json_obj() == {"trunc": 1, "coeffs": ["1", text]}
        assert list(a.csv_rows()) == [(0, "1"), (1, text)]
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_repr_past_interpreter_limit(self):
        text = "1" + "0" * 5000
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert repr(S(1, 10**5000)) == f"TruncatedSeries([1, {text}])"
        # past 12 coefficients only the first 10 are written
        big = S(10**5000, *range(1, 13))
        assert repr(big) == (
            f"TruncatedSeries([{text}, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...], trunc=12)"
        )
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit"
    )
    def test_from_json_keeps_digit_limit(self):
        with pytest.raises(ValueError, match="4300 digits"):
            TruncatedSeries.from_json(S(1, 10**5000).to_json())

    @pytest.mark.parametrize("emit", ["to_json", "to_json_obj", "csv_rows"])
    def test_decimal_budget_boundary(self, monkeypatch, emit):
        # bit lengths 10, 1, 2 cost 100 + 1 + 4 = 105, though the largest
        # coefficient alone would bound the cost by 3 * 10^2
        a = S(2**9, 1, 3)
        monkeypatch.setattr(series, "MAX_DECIMAL_COST", 105)
        assert list(getattr(a, emit)())
        monkeypatch.setattr(series, "MAX_DECIMAL_COST", 104)
        with pytest.raises(ResourceLimitError) as info:
            list(getattr(a, emit)())
        assert str(info.value) == (
            "writing the series in decimal costs 105 (sum of squared "
            "coefficient bit lengths), above the budget 104"
        )

    @pytest.mark.parametrize("emit", ["to_json", "to_json_obj", "csv_rows"])
    def test_over_budget_converts_nothing(self, monkeypatch, emit):
        converted = []
        monkeypatch.setattr(series, "str", converted.append, raising=False)
        monkeypatch.setattr(series, "MAX_DECIMAL_COST", 1)
        with pytest.raises(ResourceLimitError):
            list(getattr(S(1, 2), emit)())
        assert converted == []

    def test_digit_limit_restored_when_conversion_raises(self, monkeypatch):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()

        def broken(c):
            raise RuntimeError("conversion failed")

        monkeypatch.setattr(series, "str", broken, raising=False)
        with pytest.raises(RuntimeError, match="conversion failed"):
            S(1, 2).to_json()
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def whole_json(a):
    """The JSON text of `a` built in one piece, as `to_json` did before it
    wrote in pieces."""
    return json.dumps({"trunc": a.trunc, "coeffs": [str(c) for c in a]})


def digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def default_digit_limit():
    """The digit limit the interpreter started with (None before 3.11)."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return None
    configured = sys.flags.int_max_str_digits
    return sys.int_info.default_max_str_digits if configured == -1 else configured


class TestPieces:
    """Decimal output in pieces of `_PIECE_BITS // (top + 1)` coefficients,
    top the largest bit length, matches the text built whole."""

    @pytest.mark.parametrize("per_piece, length", [(1, 1), (1, 2), (3, 1), (3, 3), (3, 4)])
    def test_pieces_match_whole_text(self, monkeypatch, per_piece, length):
        a = TruncatedSeries(7**i * 10**20 + i for i in range(length))
        top = max(a).bit_length()
        monkeypatch.setattr(series, "_PIECE_BITS", per_piece * (top + 1))
        sizes = [len(piece) for piece in series._decimal(a.coeffs)]
        assert sizes == [per_piece] * (length // per_piece) + [length % per_piece] * (
            length % per_piece > 0)
        stream = io.StringIO()
        assert a.to_json(stream) is None
        assert stream.getvalue() == a.to_json() == whole_json(a)
        assert a.to_json_obj() == json.loads(whole_json(a))
        assert list(a.csv_rows()) == [(n, str(c)) for n, c in enumerate(a)]

    @pytest.mark.parametrize("bits, length, sizes", [
        (0, 2**16 + 1, [2**16, 1]),  # all zero: top = 0
        (10, 6000, [5957, 43]),  # 2^16 // 11 = 5957
        (2**16, 2, [1, 1]),  # 2^16 // (2^16 + 1) = 0: one per piece
    ])
    def test_piece_length(self, bits, length, sizes):
        a = TruncatedSeries([1 << bits >> 1] * length)
        assert max(a).bit_length() == bits
        assert [len(piece) for piece in series._decimal(a.coeffs)] == sizes

    @given(st.lists(st.integers(min_value=0, max_value=2**80), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=200))
    def test_any_piece_size(self, coeffs, piece_bits):
        a = TruncatedSeries(coeffs)
        old = series._PIECE_BITS
        series._PIECE_BITS = piece_bits
        try:
            stream = io.StringIO()
            a.to_json(stream)
            rows = list(a.csv_rows())
        finally:
            series._PIECE_BITS = old
        assert stream.getvalue() == whole_json(a)
        assert rows == [(n, str(c)) for n, c in enumerate(coeffs)]

    def test_over_budget_writes_nothing(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_DECIMAL_COST", 1)
        stream = io.StringIO()
        with pytest.raises(ResourceLimitError):
            S(1, 2).to_json(stream)
        assert stream.getvalue() == ""

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit"
    )
    def test_stream_sees_the_digit_limit(self, monkeypatch):
        # each piece is one coefficient, of 5001 digits: the limit is lifted
        # while a piece converts and back in place whenever the stream writes
        monkeypatch.setattr(series, "_PIECE_BITS", 1)
        a = S(10**5000, 1, 10**5000)
        limit = default_digit_limit()
        assert digit_limit() == limit
        seen = []

        class Checking(io.StringIO):
            def write(self, text):
                seen.append(digit_limit())
                return super().write(text)

        stream = Checking()
        a.to_json(stream)
        assert len(seen) == 5 and set(seen) == {limit}
        assert digit_limit() == limit
        assert stream.getvalue() == '{"trunc": 2, "coeffs": ["%s", "1", "%s"]}' % (
            ("1" + "0" * 5000,) * 2)

    def test_stream_error_restores_digit_limit(self):
        limit = default_digit_limit()
        assert digit_limit() == limit

        class Failing:
            def write(self, text):
                raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            S(1, 10**5000).to_json(Failing())
        assert digit_limit() == limit

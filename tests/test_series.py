import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stemsize.series import (
    EXTERIOR,
    POLYNOMIAL,
    GeneratorKind,
    SeriesError,
    TruncatedSeries,
    factor_series,
)


def S(*coeffs):
    return TruncatedSeries(coeffs)


series_strategy = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=24
).map(TruncatedSeries)


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

    @given(series_strategy, st.integers(min_value=0, max_value=30))
    def test_shift_suppresses_cumulative(self, a, k):
        c = a.cumulative()
        assert c.shift(k).leq(c)

    def test_hadamard(self):
        assert S(1, 2, 3).hadamard(S(1, 1, 0)) == S(1, 2, 0)

    @given(series_strategy)
    def test_hadamard_ones_identity(self, a):
        ones = TruncatedSeries.ones(a.trunc)
        assert a.hadamard(ones) == a

    @given(series_strategy, series_strategy)
    def test_hadamard_commutes(self, a, b):
        assert a.hadamard(b) == b.hadamard(a)


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

    @given(series_strategy)
    def test_round_trip(self, a):
        assert TruncatedSeries.from_json(a.to_json()) == a

    def test_csv_rows(self):
        assert list(S(1, 5).csv_rows()) == [(0, "1"), (1, "5")]

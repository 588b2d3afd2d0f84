import copy
import hashlib
import inspect
import json
import pickle
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unittest import mock

from stemsize import algebra
from stemsize._frozen import Frozen
from stemsize.algebra import (
    AlgebraError,
    AlgebraSpec,
    Generator,
    GeneratorFamily,
    Step,
    _log_derivative_hilbert,
    _require_prime,
    _plan,
    _steps,
    _support,
    hilbert,
    hilbert_cumulative,
    instantiate,
    is_prime,
    oracle_hilbert,
    parse_spec,
    spec_to_text,
    tensor_bracket,
)
from stemsize.asymptotics import (
    BracketCheck,
    BracketReport,
    Constants,
    RatioProfile,
    RatioRow,
    bracketing_check,
    constants,
)
from stemsize.dsl import (
    MAX_POWER_BITS,
    BinOp,
    DslError,
    Lit,
    Min,
    Tokenizer,
    Var,
    eval_expr,
    parse_expr,
)
from stemsize.ehp import CUSeq, a_series, admissible_series, enumerate_I
from stemsize.presets import PRESET_NAMES, MaxOverH, PresetError, max_over_h, preset
from stemsize.series import (
    EXTERIOR,
    POLYNOMIAL,
    GeneratorKind,
    ResourceLimitError,
    SeriesError,
    TruncatedSeries,
)
from stemsize.torsion import (
    LinearCurve,
    PowerLawCurve,
    TableCurve,
    TorsionError,
    TorsionReport,
    im_j_lower,
    stable_torsion_bound,
)
from stemsize.verify import CheckResult, random_spec

import math
import random


DUAL_STEENROD_2 = """\
p = 2
gen poly deg = 2^i - 1 for i = 1..inf
"""


class TestParsing:
    def test_non_prime_rejected(self):
        with pytest.raises((AlgebraError, DslError)):
            parse_spec("p = 4\ngen poly deg = 1\n")
        with pytest.raises(AlgebraError):
            AlgebraSpec(4, ())

    def test_missing_header_rejected(self):
        with pytest.raises((AlgebraError, DslError)):
            parse_spec("gen poly deg = 1\n")

    def test_truncated_order_below_two_rejected(self):
        with pytest.raises((AlgebraError, DslError)):
            parse_spec("p = 2\ngen trunc(1) deg = 3\n")

    def test_unknown_identifier_rejected(self):
        with pytest.raises((AlgebraError, DslError)):
            parse_spec("p = 2\ngen poly deg = 2^j for i = 1..inf\n")

    @pytest.mark.parametrize("degree", [
        "(" * 3000 + "1" + ")" * 3000,
        " + ".join(["1"] * 3000),
    ], ids=["parentheses", "sum"])
    def test_deep_expression_rejected(self, degree):
        with pytest.raises(DslError, match="too deeply nested or too long"):
            parse_spec(f"p = 2\ngen poly deg = {degree}\n")

    @pytest.mark.parametrize("gap", [" ", "\t\t", "   "])
    def test_bad_character_position_skips_blanks(self, gap):
        # the column names the bad character, not the blanks before it
        col = len("gen poly deg = 2") + len(gap) + 1
        with pytest.raises(DslError) as exc:
            parse_spec(f"p = 2\ngen poly deg = 2{gap}$ 3\n")
        assert str(exc.value) == f"line 2, col {col}: unexpected character '$'"
        assert (exc.value.line, exc.value.col) == (2, col)

    def test_bad_character_position_without_blanks(self):
        with pytest.raises(DslError, match=r"^line 2, col 15: unexpected character '\$'$"):
            parse_spec("p = 2\ngen poly deg =$ 3\n")

    @pytest.mark.parametrize("text, message", [
        ("p = 2\ngen poly deg =  \t",
         "line 2, col 18: expected expression, found 'end of line'"),
        ("p = 2\ngen poly deg = 1 for i = 0..  ",
         "line 2, col 31: expected integer or 'inf' as range upper bound"),
    ], ids=["expression", "range_bound"])
    def test_end_of_line_after_blanks(self, text, message):
        # a blank tail is the end of the line, placed just past its last character
        with pytest.raises(DslError) as exc:
            parse_spec(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ("p = 2\ngen ext deg = q + 1 for i = 1..3\n",
         "line 2: unknown identifier 'q'"),
        ("p = 2\ngen ext deg = i for i = 1..3, i = 1..2\n",
         "line 2: duplicate index variable in family ranges ['i', 'i']"),
        ("p = 2\ngen foo deg = 3\n",
         "line 2, col 5: unknown generator kind 'foo'"),
        ("p = 2\ngen trunc(1) deg = 3\n",
         "line 2, col 11: truncation order 1 < 2"),
        ("p = 2\n\ngen poly deg = 1\ngen poly deg = j for i = 1..inf\n",
         "line 4: unknown identifier 'j'"),
        ("p = 2\ngen poly deg = q\ngen poly deg = $\n",
         "line 2: unknown identifier 'q'"),
    ], ids=["identifier", "duplicate_index", "kind", "trunc_order", "later_line",
            "earlier_line_wins"])
    def test_family_errors_name_their_line(self, text, message):
        # a family's own checks report its line as it is parsed, and its
        # token's column when one token is at fault
        with pytest.raises(DslError) as exc:
            parse_spec(text)
        assert str(exc.value) == message

    def test_blank_lines_ignored(self):
        spec = parse_spec("p = 3\n\ngen ext deg = 1\n\n")
        assert spec.p == 3
        assert len(spec.families) == 1

    def test_round_trip_is_canonical(self):
        text = "p = 2\ngen poly deg = 2 ^ i - 1 for i = 1 .. inf\n"
        canon = spec_to_text(parse_spec(text))
        assert canon == spec_to_text(parse_spec(canon))

    def test_min_and_mult(self):
        spec = parse_spec(
            "p = 5\ngen trunc(5) deg = min(2*i, 10) mult = i for i = 1..4\n"
        )
        gens = instantiate(spec, 12)
        assert [(g.degree, g.multiplicity) for g in gens] == [
            (2, 1),
            (4, 2),
            (6, 3),
            (8, 4),
        ]


class TestInstantiate:
    def test_dual_steenrod_degrees(self):
        gens = instantiate(parse_spec(DUAL_STEENROD_2), 7)
        assert [g.degree for g in gens] == [1, 3, 7]
        assert all(str(g.kind) == "poly" for g in gens)

    def test_sorted_by_degree(self):
        spec = parse_spec("p = 2\ngen ext deg = 5\ngen poly deg = 2\n")
        assert [g.degree for g in instantiate(spec, 6)] == [2, 5]

    def test_never_increasing_budget_guard(self):
        spec = parse_spec("p = 2\ngen poly deg = min(3, i) for i = 1..inf\n")
        with pytest.raises(AlgebraError):
            instantiate(spec, 8)

    def test_empty_spec(self):
        assert instantiate(AlgebraSpec(2, ()), 10) == []

    @pytest.mark.parametrize("ranges", ["i = 0..inf, j = 0..inf", "j = 0..inf, i = 0..inf"])
    def test_nested_floor_is_exact(self, ranges):
        # at j = 0 the degree is i + 10, far above the least degree i + 1
        spec = parse_spec(f"p = 2\ngen poly deg = (j - 3)*(j - 3) + 1 + i for {ranges}\n")
        assert len(instantiate(spec, 5)) == 15
        assert list(hilbert(spec, 5)) == [1, 1, 4, 7, 16, 30]
        assert len(instantiate(spec, 30)) == 201

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.integers(0, 3),
        b=st.integers(0, 3),
        c=st.integers(0, 10),
        e=st.integers(0, 10),
        trunc=st.integers(0, 30),
    )
    @example(a=0, b=1, c=0, e=3, trunc=5)
    def test_two_unbounded_indices_match_bounded_walk(self, a, b, c, e, trunc):
        # deg > i + j, so no generator of degree <= trunc has an index above
        # trunc, and the bounded ranges are walked in full
        deg = f"{a}*(i - {c})*(i - {c}) + {b}*(j - {e})*(j - {e}) + i + j + 1"

        def gens(ranges):
            spec = parse_spec(f"p = 2\ngen poly deg = {deg} for {ranges}\n")
            return sorted((g.degree, g.multiplicity) for g in instantiate(spec, trunc))

        expected = gens(f"i = 0..{trunc}, j = 0..{trunc}")
        assert gens("i = 0..inf, j = 0..inf") == expected
        assert gens("j = 0..inf, i = 0..inf") == expected

    def test_deep_index_ranges_rejected(self):
        ranges = ", ".join(f"i{k} = 0..0" for k in range(1200))
        spec = parse_spec(f"p = 2\ngen poly deg = 1 for {ranges}\n")
        with pytest.raises(AlgebraError, match="family 1: .* nested too deeply"):
            instantiate(spec, 3)

    @pytest.mark.parametrize("trunc", [0, 1, 5])
    def test_unconfirmed_inner_index_rejected(self, trunc):
        # infinitely many generators of degree 2: j never raises the degree
        spec = parse_spec("p = 2\ngen poly deg = 2^i for i = 1..inf, j = 0..inf\n")
        with pytest.raises(AlgebraError, match="index 'j' is not eventually increasing"):
            instantiate(spec, trunc)


class TestPowerBudget:
    """`eval_expr` refuses a power of more than MAX_POWER_BITS bits before
    building it, bounding it by exponent * bit length of the base."""

    @staticmethod
    def value(text):
        return eval_expr(parse_expr(Tokenizer(text)), {})

    def test_budget_edge(self):
        assert MAX_POWER_BITS == 2**20
        assert self.value("2^(2^19)") == 1 << 2**19  # 2 * 2^19 bits: on the budget
        with pytest.raises(ResourceLimitError, match="budget of 1048576 bits"):
            self.value("2^(2^19 + 1)")
        with pytest.raises(ResourceLimitError):
            self.value("(0 - 3)^(2^19 + 1)")

    @pytest.mark.parametrize("base, want", [("0", 0), ("1", 1), ("(0 - 1)", 1)])
    def test_units_and_zero_take_any_exponent(self, base, want):
        assert self.value(f"{base}^(2^(2^19))") == want


class TestHilbert:
    def test_exterior_times_polynomial(self):
        spec = parse_spec("p = 2\ngen ext deg = 3\ngen poly deg = 2\n")
        assert hilbert(spec, 5) == TruncatedSeries([1, 0, 1, 1, 1, 1])

    def test_dual_steenrod_initial_segment(self):
        spec = parse_spec(DUAL_STEENROD_2)
        assert hilbert(spec, 7) == TruncatedSeries([1, 1, 1, 2, 2, 2, 3, 4])

    def test_dual_steenrod_cumulative(self):
        spec = parse_spec(DUAL_STEENROD_2)
        assert hilbert_cumulative(spec, 7) == TruncatedSeries([1, 2, 3, 5, 7, 9, 12, 16])

    def test_empty_spec_is_unit(self):
        assert hilbert(AlgebraSpec(3, ()), 4) == TruncatedSeries([1, 0, 0, 0, 0])

    def test_truncated_generator(self):
        spec = parse_spec("p = 2\ngen trunc(3) deg = 2\n")
        assert hilbert(spec, 6) == TruncatedSeries([1, 0, 1, 0, 1, 0, 0])

    def test_exterior_cumulative(self):
        spec = parse_spec("p = 2\ngen ext deg = 2\n")
        assert hilbert_cumulative(spec, 4) == TruncatedSeries([1, 1, 2, 2, 2])

    def test_multiplicity(self):
        spec = parse_spec("p = 2\ngen poly deg = 1 mult = 2\n")
        assert hilbert(spec, 3) == TruncatedSeries([1, 2, 3, 4])

    def test_calls_share_no_storage(self):
        # the lattice spreads twice (g = 6 -> 2 -> 1) and the trunc(3)
        # generator takes the F^m product path, besides unit folds
        spec = parse_spec(
            "p = 2\ngen poly deg = 4\ngen ext deg = 6\n"
            "gen trunc(3) deg = 3 mult = 40\ngen poly deg = 1\n"
        )
        first, second = hilbert(spec, 12), hilbert(spec, 12)
        assert first == second == ascending_fold(spec, 12)
        assert type(first.coeffs) is tuple and type(second.coeffs) is tuple
        assert first.coeffs is not second.coeffs

    def test_huge_multiplicity(self):
        m = 10**8
        spec = parse_spec(f"p = 2\ngen poly deg = 1 mult = {m}\n")
        assert list(hilbert(spec, 5)) == [math.comb(m - 1 + j, j) for j in range(6)]


def ascending_fold(spec, trunc):
    """Reference engine: fold every generator over all trunc + 1
    coefficients, smallest degree first."""
    series = TruncatedSeries.unit(trunc)
    for kind, deg, mult in instantiate(spec, trunc):
        for _ in range(mult):
            series = series.mul_factor(kind, deg)
    return series


KIND_WORDS = ("poly", "ext", "trunc(2)", "trunc(3)", "trunc(5)")


@st.composite
def lattice_spec_texts(draw):
    """DSL text whose degrees share a factor c >= 2, form a chain of powers
    of p, or are unrelated; kinds and multiplicities are mixed, and degrees
    may exceed the truncation."""
    p = draw(st.sampled_from([2, 3, 5]))
    shape = draw(st.sampled_from(["scaled", "chain", "plain"]))
    if shape == "chain":
        exponents = st.lists(st.integers(min_value=0, max_value=4), max_size=6)
        degrees = [p**e for e in draw(exponents)]
    else:
        scale = draw(st.integers(min_value=2, max_value=6)) if shape == "scaled" else 1
        bases = st.lists(st.integers(min_value=1, max_value=12), max_size=6)
        degrees = [scale * d for d in draw(bases)]
    lines = [f"p = {p}"]
    for deg in degrees:
        kind = draw(st.sampled_from(KIND_WORDS))
        mult = draw(st.integers(min_value=1, max_value=7))
        lines.append(f"gen {kind} deg = {deg} mult = {mult}")
    return "\n".join(lines) + "\n"


class TestLatticeFold:
    """`hilbert` folds largest degree first on the gcd lattice; the plain
    ascending fold over every coefficient is the reference."""

    @given(lattice_spec_texts(), st.integers(min_value=0, max_value=90))
    @example("p = 2\n", 0)
    @example("p = 2\n", 7)
    @example("p = 3\ngen poly deg = 6 mult = 2\ngen ext deg = 9\n", 0)
    @example("p = 3\ngen trunc(3) deg = 4\ngen poly deg = 6 mult = 2\n", 40)
    @example("p = 2\ngen poly deg = 50\n", 30)
    @example("p = 2\ngen poly deg = 5 mult = 7\ngen trunc(3) deg = 9 mult = 5\n", 14)
    @example("p = 5\ngen ext deg = 7 mult = 7\ngen poly deg = 3 mult = 2\n", 20)
    @settings(max_examples=200, deadline=None)
    def test_matches_ascending_fold(self, text, trunc):
        spec = parse_spec(text)
        assert hilbert(spec, trunc) == ascending_fold(spec, trunc)

    @given(lattice_spec_texts(), st.integers(min_value=0, max_value=90))
    @settings(max_examples=50, deadline=None)
    def test_coefficients_are_exact_ints(self, text, trunc):
        assert all(type(c) is int for c in hilbert(parse_spec(text), trunc))


CHAIN_PRESETS = (("may_model", {}), ("s_k", {"k": 0}), ("s_k", {"k": 1}), ("s_k", {"k": 2}),
                 ("r_h_e2", {"h": 1}), ("r_h_e2", {"h": 2}), ("r_h_einf", {"h": 2}),
                 ("r_h_einf", {"h": 3}))


class TestCumulativeOnLattice:
    """`hilbert_cumulative` sums on the gcd lattice and holds each sum over
    its block of degrees; the running sum of `hilbert` is the reference."""

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=300))
    @example(0, 0)
    @settings(max_examples=60, deadline=None)
    def test_random_specs(self, seed, trunc):
        spec = random_spec(random.Random(seed))
        assert hilbert_cumulative(spec, trunc) == hilbert(spec, trunc).cumulative()

    @given(lattice_spec_texts(), st.integers(min_value=0, max_value=300))
    @example("p = 2\ngen poly deg = 50\n", 30)  # N < g
    @example("p = 3\ngen ext deg = 6 mult = 2\ngen poly deg = 9\n", 100)  # g = 3, 3^2 <= N
    @settings(max_examples=60, deadline=None)
    def test_lattice_specs(self, text, trunc):
        spec = parse_spec(text)
        assert hilbert_cumulative(spec, trunc) == hilbert(spec, trunc).cumulative()

    @given(st.sampled_from(CHAIN_PRESETS), st.sampled_from([2, 3, 5]),
           st.integers(min_value=0, max_value=300))
    @example(("s_k", {"k": 2}), 2, 0)  # N = 0
    @example(("s_k", {"k": 2}), 2, 3)  # N < g = 4
    @example(("s_k", {"k": 2}), 2, 15)  # g^2 > N, N not a multiple of g
    @example(("s_k", {"k": 2}), 2, 17)  # g^2 <= N, N not a multiple of g
    @example(("s_k", {"k": 1}), 5, 300)  # g = 5, N a multiple of g
    @example(("r_h_einf", {"h": 2}), 3, 299)  # g = 27
    @example(("r_h_einf", {"h": 3}), 5, 299)  # no generator below N
    @settings(max_examples=80, deadline=None)
    def test_chain_presets(self, named, p, trunc):
        name, kwargs = named
        spec = preset(name, p, **kwargs)
        assert hilbert_cumulative(spec, trunc) == hilbert(spec, trunc).cumulative()


PACKED_CASES = [
    # (text, trunc, generators packed, oracle_hilbert affordable)
    ("p = 2\ngen ext deg = 1 mult = 63\n", 200, 1, False),  # B = 2^63: packed
    ("p = 2\ngen ext deg = 1 mult = 64\n", 200, 0, False),  # B = 2^64: past the cap
    ("p = 3\ngen trunc(3) deg = 2 mult = 40\ngen ext deg = 3\n", 60, 1, False),
    # g = 6 packed; the polynomial degrees 9 and 4 spread it to 3, then 1
    ("p = 2\ngen ext deg = 6 mult = 30\ngen trunc(3) deg = 12 mult = 10\n"
     "gen poly deg = 4 mult = 2\ngen poly deg = 9\n", 200, 2, False),
    ("p = 2\ngen ext deg = 1 mult = 63\n", 0, 0, True),  # N = 0: no generator
    ("p = 5\ngen ext deg = 2 mult = 8\ngen trunc(4) deg = 3 mult = 2\n", 60, 2, True),
    # trunc(1000) in degree 50 is trunc(3) below degree 120, but its 60
    # rounds on the lattice 1 cost more than its power step on the lattice 50
    ("p = 2\ngen trunc(1000) deg = 50 mult = 30\ngen ext deg = 1 mult = 10\n", 120, 0, False),
    # trunc(1000) in degree 40 is trunc(4) below degree 120: packed
    ("p = 2\ngen trunc(1000) deg = 40 mult = 5\ngen ext deg = 1 mult = 10\n", 120, 2, False),
    ("p = 2\ngen trunc(100) deg = 1\ngen poly deg = 5\n", 200, 0, False),  # k' > 64
    # packing would move every polynomial of the chain onto the lattice 1
    ("p = 2\ngen poly deg = 2^n for n = 0..inf\ngen ext deg = 3\n", 4096, 0, False),
    # a polynomial generator above N/2 is truncated(2) below N: packed
    ("p = 2\ngen ext deg = 3 mult = 20\ngen ext deg = 7 mult = 10\ngen poly deg = 150\n",
     200, 3, False),
    ("p = 2\ngen poly deg = 3\ngen ext deg = 1 mult = 20\n", 200, 1, False),  # poly k' = 67
    ("p = 3\ngen poly deg = 120 mult = 64\ngen ext deg = 2 mult = 20\n", 200, 1, False),
    # only polynomial generators, each truncated(2) below N
    ("p = 2\ngen poly deg = 101\ngen poly deg = 103\ngen poly deg = 107\n"
     "gen poly deg = 150 mult = 3\n", 200, 4, False),
    ("p = 2\ngen trunc(100) deg = 1 mult = 11\n", 63, 0, False),  # 64^11 >= 2^64 alone
]


class TestPackedStart:
    """`hilbert` starts from the product of the nilpotent generators built
    in one int of 64-bit slots, where that fits and pays."""

    @pytest.mark.parametrize("text, trunc, packed, walk", PACKED_CASES)
    def test_matches_references(self, text, trunc, packed, walk):
        spec = parse_spec(text)
        gens = instantiate(spec, trunc)
        assert len(_plan(gens, trunc).picked) == packed
        series = hilbert(spec, trunc)
        assert all(type(c) is int for c in series)
        assert series == ascending_fold(spec, trunc) == _log_derivative_hilbert(spec, trunc)
        if walk:
            assert series == oracle_hilbert(spec, trunc)

    def test_exterior_cap_is_binomial(self):
        spec = parse_spec("p = 2\ngen ext deg = 1 mult = 63\n")
        assert list(hilbert(spec, 70)) == [math.comb(63, j) for j in range(71)]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(KIND_WORDS),
                st.integers(min_value=1, max_value=40),
                st.integers(min_value=1, max_value=30),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=40, max_value=250),
    )
    @example([("poly", 30, 1), ("ext", 2, 10), ("poly", 25, 2)], 40)  # packs both polys
    @settings(max_examples=60, deadline=None)
    def test_matches_log_derivative(self, families, trunc):
        text = "p = 3\n" + "".join(
            f"gen {kind} deg = {deg} mult = {mult}\n" for kind, deg, mult in families
        )
        spec = parse_spec(text)
        assert hilbert(spec, trunc) == _log_derivative_hilbert(spec, trunc)


def sparse_steps(spec, trunc):
    """How many steps of `hilbert`'s plan fold on the sparse start."""
    return sum(step.kernel == "sparse" for step in _plan(instantiate(spec, trunc), trunc).steps)


@st.composite
def sparse_start_cases(draw):
    """(DSL text, N): two coprime degrees above N/2, maybe a third, beside
    smaller polynomial, exterior and truncated generators."""
    trunc = draw(st.integers(min_value=3, max_value=300))
    tops = st.integers(min_value=trunc // 2 + 1, max_value=trunc)
    a, b = draw(tops), draw(tops)
    assume(math.gcd(a, b) == 1)
    lines = [f"p = {draw(st.sampled_from([2, 3, 5]))}", f"gen poly deg = {a}",
             f"gen poly deg = {b}"]
    small = st.tuples(st.sampled_from(KIND_WORDS), st.integers(min_value=1, max_value=trunc),
                      st.integers(min_value=1, max_value=3))
    for kind, deg, mult in draw(st.lists(small, max_size=5)):
        lines.append(f"gen {kind} deg = {deg} mult = {mult}")
    return "\n".join(lines) + "\n", trunc


# every generator folds on the sparse start once _SPARSE_START is 0, which
# then costs less than packing all three, each truncated(2) below N
EVERY_GENERATOR_SPARSE = "p = 2\ngen poly deg = 199\ngen poly deg = 197\ngen ext deg = 160\n"
# the two largest, of multiplicity 3 and 2, fold on the sparse start
MULT_SPARSE = "p = 3\ngen poly deg = 101 mult = 3\ngen poly deg = 100 mult = 2\ngen poly deg = 7\n"


class TestSparseStart:
    """`hilbert` may fold its largest generators on the dict of the nonzero
    terms first; the plain fold and the log-derivative recurrence, which
    share none of it, are the references."""

    @pytest.mark.parametrize("start", [0, algebra._SPARSE_START])
    @given(sparse_start_cases())
    @example(("p = 2\ngen poly deg = 7\ngen poly deg = 5\n", 0))  # N = 0
    @example((EVERY_GENERATOR_SPARSE, 290))
    @example((MULT_SPARSE, 200))
    @settings(max_examples=80, deadline=None)
    def test_matches_references(self, start, case):
        text, trunc = case
        spec = parse_spec(text)
        with mock.patch.object(algebra, "_SPARSE_START", start):
            series = hilbert(spec, trunc)
            assert series == ascending_fold(spec, trunc) == _log_derivative_hilbert(spec, trunc)
            assert hilbert_cumulative(spec, trunc) == series.cumulative()

    def test_examples_take_the_sparse_start(self):
        with mock.patch.object(algebra, "_SPARSE_START", 0):
            assert sparse_steps(parse_spec(EVERY_GENERATOR_SPARSE), 290) == 3
            assert sparse_steps(parse_spec(MULT_SPARSE), 200) == 2

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_support_counts_the_nonzero_terms(self, seed, trunc):
        rng = random.Random(seed)
        spec = random_spec(rng)
        spec = AlgebraSpec(rng.choice([2, 3]), spec.families)
        bits, series = 1, TruncatedSeries.unit(trunc)
        for gen in reversed(instantiate(spec, trunc)):
            bits = _support(bits, gen, trunc)
            for _ in range(gen.multiplicity):
                series = series.mul_factor(gen.kind, gen.degree)
            assert bits.bit_count() == sum(c > 0 for c in series)
            assert bits == sum(1 << e for e, c in enumerate(series) if c)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_small_presets_and_chains_keep_the_plain_start(self, p):
        for name in PRESET_NAMES:
            for h in (1, 2, 3):
                gens = instantiate(preset(name, p, h=h, k=h, drop_q0=True), 200)
                for trunc in range(201):
                    below = [gen for gen in gens if gen.degree <= trunc]
                    assert all(step.kernel != "sparse" for step in _plan(below, trunc).steps)
        for name, kwargs in CHAIN_PRESETS:
            for trunc in (200, 2**13, 3**8, 5**5, 18396):
                assert sparse_steps(preset(name, p, **kwargs), trunc) == 0

    @pytest.mark.parametrize("name, h", [("mrs_e2_model", 2), ("dual_steenrod", None),
                                         ("y_h_lifted", 2), ("y_h_lifted", 3)])
    def test_large_p2_presets_take_the_sparse_start(self, name, h):
        assert sparse_steps(preset(name, 2, h=h), 2**14) > 0


class TestPowerStep:
    """A generator of degree d and multiplicity m folds in m unit passes up
    to m = 2 (N // d + 1), and in one power step past it."""

    @pytest.mark.parametrize("kind", ["poly", "ext", "trunc(3)"])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_boundary(self, kind, extra):
        trunc, deg = 100, 3
        cap = 2 * (trunc // deg + 1)  # 68: too many copies to pack
        for mult in (cap, cap + 1):
            spec = parse_spec(
                f"p = 3\ngen {kind} deg = {deg} mult = {mult}\n" + "gen poly deg = 2\n" * extra
            )
            plan = _plan(instantiate(spec, trunc), trunc)
            assert (plan.g, plan.picked) == (deg, [])
            step = plan.steps[0]
            assert (step.spread, step.kind, step.d, step.mult, step.kernel == "power") == (
                1, spec.families[0].kind, 1, mult, mult > cap)
            series = hilbert(spec, trunc)
            assert series == _log_derivative_hilbert(spec, trunc) == ascending_fold(spec, trunc)


class TestStepCost:
    """`_steps` counts a unit pass as trunc // g + 1 additions, and two
    passes for truncated(k), k >= 3, whose fold also subtracts a shifted
    list."""

    @pytest.mark.parametrize("kind, passes", [
        (POLYNOMIAL, 1),
        (EXTERIOR, 1),
        (GeneratorKind.truncated(2), 1),
        (GeneratorKind.truncated(3), 2),
        (GeneratorKind.truncated(5), 2),
    ])
    def test_unit_passes(self, kind, passes):
        plan = _steps([Generator(kind, 4, 3)], 100, 4)
        assert plan.steps == [Step("unit", 1, kind, 1, 3, passes * 3 * (100 // 4 + 1))]
        assert plan.cost == passes * 3 * (100 // 4 + 1)

    def test_power_step_cost_is_kind_free(self):
        cap = 2 * (100 // 4 + 1)
        for kind in (POLYNOMIAL, GeneratorKind.truncated(3)):
            plan = _steps([Generator(kind, 4, cap + 1)], 100, 4)
            assert plan.steps == [Step("power", 1, kind, 1, cap + 1, cap * (100 // 4 + 1))]
            assert plan.cost == cap * (100 // 4 + 1)


PLAN_TRUNCS = (0, 100, 1000, 2**12, 2**14)
SPARSE_EXAMPLES = ((EVERY_GENERATOR_SPARSE, 290), (MULT_SPARSE, 200))
# The SHA-256 of `plan_decisions` over `plan_cases`, then over the sparse
# examples with _SPARSE_START = 0 (469 plans).  Pinned when polynomial
# generators joined the packed start, whose rounds the plan prices.
PLAN_DIGEST = "069df85083420e17ad6ff99dcc69193c879da96861c024f781d5c6993f7675b5"


def plan_cases():
    """Every preset at p in {2, 3, 5}, h = k in {1, 2, 3} and N in
    PLAN_TRUNCS, then the sparse examples and PACKED_CASES."""
    for name in PRESET_NAMES:
        for p in (2, 3, 5):
            for h in (1, 2, 3):
                spec = preset(name, p, h=h, k=h, drop_q0=True)
                for trunc in PLAN_TRUNCS:
                    yield spec, trunc
    for text, trunc in (*SPARSE_EXAMPLES, *((text, trunc) for text, trunc, _, _ in PACKED_CASES)):
        yield parse_spec(text), trunc


def plan_decisions(spec, trunc):
    """(cost, g, picked) and (kernel, spread, kind, d, mult) per step, as
    one line of JSON."""
    cost, g, picked, steps = _plan(instantiate(spec, trunc), trunc)
    rows = [[step.kernel, step.spread, str(step.kind), step.d, step.mult] for step in steps]
    return json.dumps([cost, g, [list(row) for row in picked], rows]).encode() + b"\n"


def test_plan_decisions_are_pinned():
    digest = hashlib.sha256()
    for spec, trunc in plan_cases():
        digest.update(plan_decisions(spec, trunc))
    with mock.patch.object(algebra, "_SPARSE_START", 0):
        for text, trunc in SPARSE_EXAMPLES:
            digest.update(plan_decisions(parse_spec(text), trunc))
    assert digest.hexdigest() == PLAN_DIGEST


NILPOTENT_PRODUCT = algebra._nilpotent_product
SHIFTED_ADDITIONS = frozenset(
    start + offset
    for lines, start in [inspect.getsourcelines(NILPOTENT_PRODUCT)]
    for offset, line in enumerate(lines) if "<<" in line and "& mask" in line
)


def count_shifted_additions(*args):
    """`_nilpotent_product(*args)`, and the shifted additions it ran: the
    lines that shift and mask, counted as they execute under `sys.settrace`."""
    code, count = NILPOTENT_PRODUCT.__code__, [0]

    def lines(frame, event, arg):
        if event == "line" and frame.f_lineno in SHIFTED_ADDITIONS:
            count[0] += 1
        return lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: lines if frame.f_code is code else None)
    try:
        out = NILPOTENT_PRODUCT(*args)
    finally:
        sys.settrace(previous)
    return out, count[0]


def run_kernels(spec, trunc):
    """`hilbert(spec, trunc)` with its kernels wrapped: the list length
    times the passes of each `_fold` call, the size of each dict that
    `_fold_terms` returns, the arguments of each `factor_series` call, and
    the arguments and shifted additions of each `_nilpotent_product` call."""
    fold, fold_terms, factor = algebra._fold, algebra._fold_terms, algebra.factor_series
    folds, sizes, factors, packs = [], [], [], []

    def count_fold(out, kind, d):
        folds.append(len(out) * (2 if kind.name == "trunc" and kind.order > 2 else 1))
        fold(out, kind, d)

    def count_terms(*args):
        terms = fold_terms(*args)
        sizes.append(len(terms))
        return terms

    def count_factor(*args):
        factors.append(args)
        return factor(*args)

    def count_pack(*args):
        out, rounds = count_shifted_additions(*args)
        packs.append((*args, rounds))
        return out

    with mock.patch.object(algebra, "_fold", side_effect=count_fold), \
            mock.patch.object(algebra, "_fold_terms", side_effect=count_terms), \
            mock.patch.object(algebra, "factor_series", side_effect=count_factor), \
            mock.patch.object(algebra, "_nilpotent_product", side_effect=count_pack):
        hilbert(spec, trunc)
    return folds, sizes, factors, packs


class TestPlanPredictsWhatRuns:
    """Each kernel runs as often, and on as much, as the plan's steps say,
    and the plan's cost is the sum of what it priced."""

    def check(self, spec, trunc):
        plan = _plan(instantiate(spec, trunc), trunc)
        folds, sizes, factors, packs = run_kernels(spec, trunc)
        unit = [step for step in plan.steps if step.kernel == "unit"]
        assert len(folds) == sum(step.mult for step in unit)
        assert sum(folds) == sum(step.work for step in unit)
        g, planned = plan.g, []
        for step in plan.steps:
            g //= step.spread
            if step.kernel == "power":
                planned.append((step.kind, step.d, trunc // g, step.mult))
        assert factors == planned
        sparse = [step for step in plan.steps if step.kernel == "sparse"]
        assert len(sizes) == sum(step.mult for step in sparse)
        passes = iter(sizes)
        for step in sparse:
            last = [next(passes) for _ in range(step.mult)][-1]
            assert last == step.work // step.mult
        list_work = sum(step.work for step in plan.steps if step.kernel != "sparse")
        if plan.picked:
            assert packs == [(plan.picked, plan.g, trunc, algebra._pack_rounds(plan.picked))]
            rounds = packs[0][-1]
            assert plan.cost == (list_work + algebra._PACK_OVERHEAD
                                 + rounds * (trunc // plan.g + 1) // algebra._PACK_ROUND)
            return {"packed"} | {step.kernel for step in plan.steps}
        assert packs == []
        if sparse:
            assert plan.cost == (list_work + algebra._SPARSE_START
                                 + algebra._SPARSE_TERM * sum(step.work for step in sparse))
        else:
            assert plan.cost == list_work
        return {step.kernel for step in plan.steps}

    @pytest.mark.parametrize("p", [2, 3])
    def test_presets(self, p):
        for name in PRESET_NAMES:
            for h in (1, 2):
                for trunc in (0, 200, 2048):
                    self.check(preset(name, p, h=h, k=h, drop_q0=True), trunc)

    @pytest.mark.parametrize("name, kwargs", [
        ("may_e1", {"drop_q0": True}), ("mrs_e2_model", {"h": 2}), ("dual_steenrod", {}),
        ("y_h_lifted", {"h": 2}), ("y_h_lifted", {"h": 3}),
    ])
    def test_sparse_presets(self, name, kwargs):
        assert "sparse" in self.check(preset(name, 2, **kwargs), 2**14)

    def test_sparse_examples(self):
        with mock.patch.object(algebra, "_SPARSE_START", 0):
            for text, trunc in SPARSE_EXAMPLES:
                assert "sparse" in self.check(parse_spec(text), trunc)

    @pytest.mark.parametrize("text, trunc, packed, walk", PACKED_CASES)
    def test_packed_cases(self, text, trunc, packed, walk):
        assert ("packed" in self.check(parse_spec(text), trunc)) == (packed > 0)

    @pytest.mark.parametrize("kind", ["poly", "ext", "trunc(3)"])
    @pytest.mark.parametrize("mult, kernels", [(68, {"unit"}), (69, {"power", "unit"})])
    def test_unit_and_power_steps(self, kind, mult, kernels):
        """At N = 100 a generator in degree 3 takes a power step once mult
        exceeds 2 * (100 // 3 + 1) = 68."""
        spec = parse_spec(f"p = 3\ngen {kind} deg = 3 mult = {mult}\ngen poly deg = 2\n")
        assert self.check(spec, 100) == kernels


def _trial_division(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class TestIsPrime:
    """`is_prime` divides by the primes up to 37, then runs Miller-Rabin to
    those 12 bases, exact below 2^64; larger n are refused."""

    def test_matches_trial_division(self):
        limit = 200_000
        assert [n for n in range(-3, limit) if is_prime(n) != _trial_division(n)] == []

    @pytest.mark.parametrize("n, prime", [
        (561, False),  # Carmichael numbers
        (41041, False),
        (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5, 7
        (3825123056546413051, False),  # strong pseudoprime to the primes up to 23
        (2**61 - 1, True),
        (10**18 + 3, True),
        (2**64 - 59, True),  # the largest prime below 2^64
        (2**64 - 1, False),
    ])
    def test_known_cases(self, n, prime):
        assert is_prime(n) is prime

    @pytest.mark.parametrize("n", [2**64, 2**64 + 13, 10**40])
    def test_refuses_2_to_the_64(self, n):
        with pytest.raises(AlgebraError, match=r"below 2\^64"):
            is_prime(n)

    def test_dsl_prime_line_refused(self):
        with pytest.raises(AlgebraError, match=r"below 2\^64"):
            parse_spec(f"p = {2**64 + 13}\ngen poly deg = 1\n")


# every public entry that takes p, with the error it raises for a p that is
# not prime
NON_PRIME_ENTRIES = {
    "AlgebraSpec": (lambda p: AlgebraSpec(p, ()), AlgebraError),
    "preset": (lambda p: preset("dual_steenrod", p), PresetError),
    "max_over_h": (lambda p: max_over_h("r_h_e2", p, 10), PresetError),
    "enumerate_I": (lambda p: enumerate_I(p, 1, 10), AlgebraError),
    "a_series": (lambda p: a_series(p, 1, 10), AlgebraError),
    "admissible_series": (lambda p: admissible_series(p, 10), PresetError),
    "stable_torsion_bound": (lambda p: stable_torsion_bound(p, 5, LinearCurve()),
                             TorsionError),
    "im_j_lower": (lambda p: im_j_lower(p, 5), TorsionError),
    "constants": (lambda p: constants(p), AlgebraError),
    "bracketing_check": (lambda p: bracketing_check(p, 4, "may_model"), AlgebraError),
}


class TestNonPrimeRefusal:
    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("entry", NON_PRIME_ENTRIES)
    def test_type_message_and_origin(self, entry, p):
        call, error = NON_PRIME_ENTRIES[entry]
        with pytest.raises(ValueError) as info:
            call(p)
        assert type(info.value) is error
        assert str(info.value) == f"p = {p} is not prime"
        # one function raises it for every entry
        assert info.traceback[-1].frame.code.raw is _require_prime.__code__


class TestOracle:
    def test_matches_engine_on_dual_steenrod(self):
        spec = parse_spec(DUAL_STEENROD_2)
        assert oracle_hilbert(spec, 20) == hilbert(spec, 20)

    def test_trunc_guard(self):
        with pytest.raises(AlgebraError):
            oracle_hilbert(parse_spec(DUAL_STEENROD_2), 61)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_engine_on_random_specs(self, seed):
        spec = random_spec(random.Random(seed))
        trunc = 18
        while hilbert_cumulative(spec, trunc)[trunc] > 10**5:
            trunc -= 2
        assert oracle_hilbert(spec, trunc) == hilbert(spec, trunc)


def text_random_spec(rng, max_families=5):
    """`random_spec` by way of the DSL: the same draws in the same order,
    written as DSL lines and parsed.  The reference for the spec that
    `random_spec` builds directly."""
    p = rng.choice((2, 3, 5))
    lines = [f"p = {p}"]
    for _ in range(rng.randint(1, max_families)):
        kind = rng.choice(["poly", "ext", f"trunc({rng.randint(2, 5)})"])
        form = rng.randint(0, 3)
        if form == 0:  # fixed degree
            lines.append(f"gen {kind} deg = {rng.randint(1, 12)}")
        elif form == 1:  # bounded arithmetic family
            d = rng.randint(1, 6)
            c = rng.randint(1, 7)
            hi = rng.randint(0, 3)
            lines.append(f"gen {kind} deg = {d}*i + {c} for i = 0..{hi}")
        elif form == 2:  # unbounded geometric family
            base = rng.randint(2, 3)
            c = rng.randint(0, 2)
            lines.append(f"gen {kind} deg = {base}^i + {c} for i = 1..inf")
        else:  # fixed degree with multiplicity
            d = rng.randint(1, 12)
            m = rng.randint(1, 3)
            lines.append(f"gen {kind} deg = {d} mult = {m}")
    return parse_spec("\n".join(lines) + "\n")


class TestRandomSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"max_families": 2}],
        ids=["default", "max_families_2"],
    )
    def test_equals_parsed_text(self, kwargs):
        for seed in range(2000):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_spec(rng, **kwargs) == text_random_spec(ref, **kwargs), seed
            assert rng.random() == ref.random(), seed  # the same draws consumed


class TestLogDerivativeOracle:
    """`_log_derivative_hilbert` against the monomial walk that defines the
    Hilbert series, and against `hilbert` where the walk cannot reach."""

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_monomial_walk(self, seed, trunc):
        spec = random_spec(random.Random(seed))
        while hilbert_cumulative(spec, trunc)[trunc] > 10**5:  # the walk's cost
            trunc -= 1
        assert _log_derivative_hilbert(spec, trunc) == oracle_hilbert(spec, trunc)

    @pytest.mark.parametrize(
        "text, trunc, coeffs",
        [
            ("p = 3\ngen ext deg = 2 mult = 3\n", 8, [1, 0, 3, 0, 3, 0, 1, 0, 0]),
            ("p = 2\ngen trunc(3) deg = 1 mult = 2\n", 6, [1, 2, 3, 2, 1, 0, 0]),
            ("p = 5\ngen trunc(4) deg = 2\ngen ext deg = 3\n", 9,
             [1, 0, 1, 1, 1, 1, 1, 1, 0, 1]),
            ("p = 2\ngen poly deg = 1 mult = 0\ngen ext deg = 3\n", 5, [1, 0, 0, 1, 0, 0]),
            ("p = 5\ngen poly deg = i mult = i - 1 for i = 1..3\n", 8,
             [1, 0, 1, 2, 1, 2, 4, 2, 4]),
        ],
        ids=["exterior", "truncated", "truncated_and_exterior", "mult_zero", "mult_zero_in_family"],
    )
    def test_explicit_cases(self, text, trunc, coeffs):
        spec = parse_spec(text)
        assert list(_log_derivative_hilbert(spec, trunc)) == coeffs
        assert oracle_hilbert(spec, trunc) == hilbert(spec, trunc) == TruncatedSeries(coeffs)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_match_hilbert(self, name):
        for p in (2, 3, 5):
            spec = preset(name, p, h=2, k=1, drop_q0=True)
            assert _log_derivative_hilbert(spec, 1024) == hilbert(spec, 1024), p

    def test_huge_multiplicities(self):
        text = (
            "p = 2\n"
            "gen poly deg = 3 mult = 100000000\n"
            "gen trunc(3) deg = 5 mult = 7000\n"
            "gen ext deg = 2 mult = 100000\n"
            "gen poly deg = 2^i - 1 for i = 1..inf\n"
        )
        spec = parse_spec(text)
        assert _log_derivative_hilbert(spec, 300) == hilbert(spec, 300)
        alone = _log_derivative_hilbert(parse_spec("p = 2\ngen poly deg = 3 mult = 100000000\n"), 300)
        m = 10**8
        assert list(alone) == [
            math.comb(m - 1 + n // 3, n // 3) if n % 3 == 0 else 0 for n in range(301)
        ]

    def test_negative_truncation_rejected(self):
        with pytest.raises(AlgebraError, match="^truncation must be nonnegative$"):
            _log_derivative_hilbert(parse_spec(DUAL_STEENROD_2), -1)


class TestTensorBracket:
    def test_two_polynomial_lines(self):
        factor = parse_spec("p = 2\ngen poly deg = 1\n")
        rep = tensor_bracket([factor, factor], [2, 2])
        assert (rep.lower, rep.middle, rep.upper) == (9, 6, 9)
        assert rep.ok

    def test_middle_between_bounds(self):
        a = parse_spec("p = 3\ngen poly deg = 1\ngen ext deg = 3\n")
        b = parse_spec("p = 3\ngen trunc(3) deg = 2\n")
        rep = tensor_bracket([a, b], [5, 4])
        assert rep.middle <= rep.upper
        assert rep.ok

    def test_prime_mismatch_rejected(self):
        a = parse_spec("p = 2\ngen poly deg = 1\n")
        b = parse_spec("p = 3\ngen poly deg = 1\n")
        with pytest.raises(AlgebraError):
            tensor_bracket([a, b], [2, 2])

    def test_budget_length_mismatch_rejected(self):
        a = parse_spec("p = 2\ngen poly deg = 1\n")
        with pytest.raises(AlgebraError):
            tensor_bracket([a, a], [2])

    @pytest.mark.parametrize("budgets", [[5, 5, -1], [5, -1], [-1], [-3, 0, 2]])
    def test_negative_budget_rejected_before_any_fold(self, budgets):
        """A negative budget is not an index from the end of a series."""
        a = parse_spec("p = 2\ngen poly deg = 1\n")
        b = parse_spec("p = 2\ngen ext deg = 2\n")
        factors = [a, a, b][:len(budgets)]
        with mock.patch.object(algebra, "_lattice_fold") as fold:
            with pytest.raises(AlgebraError, match="is negative"):
                tensor_bracket(factors, budgets)
        assert not fold.called

    def test_zero_budget_allowed(self):
        a = parse_spec("p = 2\ngen poly deg = 1\n")
        assert tensor_bracket([a, a], [0, 3]) == (4, 10, 16, True)


# ---------------------------------------------------------------------------
# the package's immutable value classes
# ---------------------------------------------------------------------------

_ROW = RatioRow(8, 1.5, 2.5, 0.6)
_CHECK = BracketCheck("upper", True, "fine")

# class: (its fields in constructor order, the field values of one instance,
# the index of a field to change and the value to change it to)
VALUE_CLASSES = {
    GeneratorKind: (("name", "order"), ("trunc", 3), (1, 4)),
    Lit: (("value",), (1,), (0, 2)),
    Var: (("name",), ("i",), (0, "j")),
    BinOp: (("op", "left", "right"), ("+", Lit(1), Var("i")), (0, "*")),
    Min: (("left", "right"), (Var("i"), Lit(2)), (1, Lit(3))),
    GeneratorFamily: (
        ("kind", "degree", "multiplicity", "ranges"),
        (POLYNOMIAL, BinOp("*", Lit(2), Var("i")), Lit(3), (("i", 1, None),)),
        (2, Lit(4)),
    ),
    AlgebraSpec: (
        ("p", "families", "label"),
        (3, (GeneratorFamily(EXTERIOR, Lit(5)),), "demo"),
        (2, "other"),
    ),
    LinearCurve: ((), (), None),
    PowerLawCurve: (("exponent", "coefficient"), (0.5, 2.0), (1, 3.0)),
    TableCurve: (("values",), ((1, 2, 2),), (0, (1, 1))),
    TorsionReport: (
        ("p", "n", "exact_sum", "closed_form", "curve"),
        (2, 10, 7, 1.5, LinearCurve()),
        (2, 8),
    ),
    Constants: (("p", "k1", "k2", "k3"), (2, 0.25, 0.5, 0.75), (3, 1.0)),
    RatioRow: (("n", "log_rank", "log_n_pow", "ratio"), (8, 1.5, 2.5, 0.6), (0, 9)),
    RatioProfile: (("p", "label", "exponent", "rows"), (2, "s_k", 3, (_ROW,)), (3, ())),
    BracketCheck: (("name", "ok", "detail"), ("upper", True, "fine"), (1, False)),
    BracketReport: (("p", "m", "model", "checks"), (2, 4, "may_model", (_CHECK,)), (1, 5)),
    CUSeq: (("p", "n", "entries"), (2, 1, (3, 1)), (2, (3,))),
    MaxOverH: (("series", "argmax"), (TruncatedSeries([1, 2]), (1, 1)), (1, (1, 2))),
    CheckResult: (("suite", "name", "ok", "detail"), ("series", "x", True, "d"), (3, "e")),
}
_CLASSES = list(VALUE_CLASSES)
# how many trailing fields have defaults (see test_defaults)
_DEFAULTED = {GeneratorKind: 1, GeneratorFamily: 2, AlgebraSpec: 1, PowerLawCurve: 1,
              RatioProfile: 1}
_IDS = [cls.__name__ for cls in _CLASSES]


def _instance(cls):
    return cls(*VALUE_CLASSES[cls][1])


class TestValueClasses:
    @pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
    def test_equality_by_type_and_fields(self, cls):
        fields, values, change = VALUE_CLASSES[cls]
        a, b = _instance(cls), _instance(cls)
        assert a is not b
        assert a == b and not a != b
        assert a != values  # the tuple of its fields
        other = _CLASSES[(_CLASSES.index(cls) + 1) % len(_CLASSES)]
        assert a != _instance(other)
        if change is not None:
            index, value = change
            changed = list(values)
            changed[index] = value
            assert a != cls(*changed)

    @pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
    def test_equal_values_hash_equally(self, cls):
        a, b = _instance(cls), _instance(cls)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
    def test_assignment_and_deletion_raise(self, cls):
        a = _instance(cls)
        for name in (*VALUE_CLASSES[cls][0], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == _instance(cls)

    @pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
    def test_keyword_construction(self, cls):
        fields, values, _ = VALUE_CLASSES[cls]
        a = cls(**dict(zip(fields, values)))
        assert a == _instance(cls)
        assert tuple(getattr(a, name) for name in fields) == tuple(values)

    @pytest.mark.parametrize("make, field, default", [
        (lambda: GeneratorKind("poly"), "order", None),
        (lambda: GeneratorFamily(POLYNOMIAL, Lit(2)), "multiplicity", Lit(1)),
        (lambda: GeneratorFamily(POLYNOMIAL, Lit(2)), "ranges", ()),
        (lambda: AlgebraSpec(2, ()), "label", ""),
        (lambda: PowerLawCurve(0.5), "coefficient", 1.0),
        (lambda: RatioProfile(2, "s_k", 3), "rows", ()),
    ], ids=["GeneratorKind.order", "GeneratorFamily.multiplicity",
            "GeneratorFamily.ranges", "AlgebraSpec.label",
            "PowerLawCurve.coefficient", "RatioProfile.rows"])
    def test_defaults(self, make, field, default):
        value = getattr(make(), field)
        assert value == default and type(value) is type(default)

    @pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
    def test_wrong_arguments_raise_type_error(self, cls):
        fields, values, _ = VALUE_CLASSES[cls]
        calls = {
            "too many": lambda: cls(*values, 0),
            "unknown keyword": lambda: cls(*values, extra=0),
        }
        required = len(fields) - _DEFAULTED.get(cls, 0)
        if required:
            calls["too few"] = lambda: cls(*values[:required - 1])
            calls["repeated"] = lambda: cls(*values, **{fields[0]: values[0]})
        for what, call in calls.items():
            with pytest.raises(TypeError) as info:
                call()
            prefix = f"{cls.__name__}.__init__() " if fields else f"{cls.__name__}() "
            assert str(info.value).startswith(prefix), what

    def test_every_class_with_fields_takes_the_derived_constructor(self):
        # a validating class states its checks in _check; a hand-written
        # __init__ would be compiled from its module's file, the derived one
        # is compiled from a string
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        with_fields = {cls for cls in subclasses(Frozen) if cls.__slots__}
        assert with_fields == {cls for cls in _CLASSES if VALUE_CLASSES[cls][0]}
        for cls in with_fields:
            assert cls.__init__.__code__.co_filename == "<string>", cls.__name__

    @pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
    def test_constructor_belongs_to_the_class_module(self, cls):
        if VALUE_CLASSES[cls][0]:
            assert cls.__init__.__module__ == cls.__module__
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"

    @pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
    def test_repr(self, cls):
        fields, values, _ = VALUE_CLASSES[cls]
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(_instance(cls)) == f"{cls.__name__}({body})"

    def test_repr_nests(self):
        assert repr(Lit(1)) == "Lit(value=1)"
        assert repr(BinOp("+", Lit(1), Var("i"))) == (
            "BinOp(op='+', left=Lit(value=1), right=Var(name='i'))"
        )
        assert repr(LinearCurve()) == "LinearCurve()"

    @pytest.mark.parametrize("cls", _CLASSES, ids=_IDS)
    def test_pickle_and_copy_round_trip(self, cls):
        a = _instance(cls)
        copies = [pickle.loads(pickle.dumps(a, protocol))
                  for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(a), copy.deepcopy(a)]
        for b in copies:
            assert type(b) is cls
            assert b == a

    @pytest.mark.parametrize("make, error, message", [
        (lambda: GeneratorKind("foo"), SeriesError, "unknown generator kind 'foo'"),
        (lambda: GeneratorKind("trunc"), SeriesError,
         "truncated generator needs order k >= 2"),
        (lambda: GeneratorKind("trunc", 1), SeriesError,
         "truncated generator needs order k >= 2"),
        (lambda: GeneratorKind("ext", 2), SeriesError, "kind 'ext' takes no order"),
        (lambda: GeneratorFamily(POLYNOMIAL, Var("i"),
                                 ranges=(("i", 0, 3), ("i", 1, None))),
         AlgebraError, "duplicate index variable in family ranges ['i', 'i']"),
        (lambda: GeneratorFamily(POLYNOMIAL, Lit(1), Var("j")),
         AlgebraError, "unknown identifier 'j'"),
        (lambda: AlgebraSpec(4, ()), AlgebraError, "p = 4 is not prime"),
        (lambda: PowerLawCurve(0.0), TorsionError,
         "power-law exponent must lie in (0, 1]"),
        (lambda: PowerLawCurve(1.5, -1.0), TorsionError,
         "power-law exponent must lie in (0, 1]"),
        (lambda: PowerLawCurve(0.5, 0.0), TorsionError,
         "power-law coefficient must be positive"),
        (lambda: TableCurve((1, 3, 2)), TorsionError,
         "table curve must be nondecreasing"),
    ], ids=["kind-unknown", "trunc-no-order", "trunc-order-1", "ext-order",
            "family-duplicate", "family-unknown", "spec-not-prime",
            "power-exponent-0", "power-exponent-1.5", "power-coefficient",
            "table-decreasing"])
    def test_validation_messages(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

import hashlib
import subprocess
import sys
import time
from itertools import count, takewhile
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemsize import algebra, ehp
from stemsize.algebra import AlgebraError, AlgebraSpec, parse_spec
from stemsize.ehp import (
    CUSeq,
    _admissible_counts,
    a_series,
    admissible_series,
    default_varpi_a,
    enumerate_I,
    unstable_ext_bound,
    unstable_rank_bound,
    verify_ehp_recurrence,
)
from stemsize.presets import preset
from stemsize.algebra import hilbert
from stemsize.series import (
    POLYNOMIAL,
    ResourceLimitError,
    SeriesError,
    TruncatedSeries,
    factor_series,
)


def census(p, n, trunc):
    """Degree histogram of the listed sequences: the oracle for A(n;t)."""
    counts = [0] * (trunc + 1)
    for J in enumerate_I(p, n, trunc):
        counts[J.dim] += 1
    return TruncatedSeries(counts)


def chain_census(p, n, trunc):
    """A(n;t) by the O(N^2) prefix-sum census of chains of entries that
    computed `a_series` before the fold: a reference that reaches
    truncations the listing cannot.

    Entries (dim, k) come in nondecreasing dim, and each may stand left of
    exactly the first k entries.  sums[j] is 1 plus the rows of the first j
    entries, where an entry's row t^dim * sums[k] counts the chains it starts.
    """
    if p == 2:
        # entry i >= n may precede j >= n iff j <= (i - 1) // 2
        entries = [(i - 1, max(0, (i - 1) // 2 - n + 1)) for i in range(n, trunc + 2)]
    else:
        # (eps, i) may precede (eps', j) iff j <= (i - 1 + eps') // p: both
        # entries of every j <= (i - 1) // p, and (1, i // p) when p | i
        w, lo = 2 * (p - 1), (n + 1) // 2
        entries = []
        for i in range(lo, (trunc + 2) // w + 1):
            k = 2 * max(0, (i - 1) // p - lo + 1) + (i % p == 0 and i // p >= lo)
            entries += [(w * i - 2, k), (w * i - 1, k)]  # (1, i), then (0, i)
    sums = [[1] + [0] * trunc]
    for dim, k in entries:
        if dim > trunc:
            break
        sums.append(sums[-1][:dim] + list(map(add, sums[-1][dim:], sums[k])))
    return TruncatedSeries(sums[-1])


def shifts(p, n, trunc):
    """m_k(n) for k = 0, 1, ... while it is at most trunc: the least
    dimension of a sequence of length k in I(n)."""
    c = n + 1 if p == 2 else 2 * ((n + 1) // 2)
    return list(takewhile(lambda m: m <= trunc, (c * (p**k - 1) - 2 * k for k in count())))


def admissible_counts_reference(p: int, trunc: int) -> tuple[int, ...]:
    """Reference kernel for P(A;t): one recursive step per admissible monomial."""
    counts = [0] * (trunc + 1)
    if p == 2:
        # Admissible sequences i_s >= 2 i_{s+1}, i_k >= 1, graded by sum i_s.
        def grow(head: int, total: int) -> None:
            counts[total] += 1
            i = 2 * head
            while total + i <= trunc:
                grow(i, total + i)
                i += 1

        counts[0] += 1  # empty monomial
        for i in range(1, trunc + 1):
            grow(i, i)
    else:
        # Admissible monomials b^e0 P^{i_1} b^e1 ... P^{i_k} b^ek with
        # i_s >= p i_{s+1} + eps_s, graded by e0 + sum (2(p-1) i_s + eps_s).
        w = 2 * (p - 1)

        def grow_odd(head_i: int, head_eps: int, total: int) -> None:
            # sequence finished: both choices of the leading Bockstein e0
            counts[total] += 1
            if total + 1 <= trunc:
                counts[total + 1] += 1
            for eps in (0, 1):
                i = p * head_i + eps
                while total + w * i + eps <= trunc:
                    grow_odd(i, eps, total + w * i + eps)
                    i += 1

        counts[0] += 1  # empty monomial
        if trunc >= 1:
            counts[1] += 1  # the bare Bockstein
        for eps in (0, 1):
            i = 1
            while w * i + eps <= trunc:
                grow_odd(i, eps, w * i + eps)
                i += 1
    return tuple(counts)


class TestEnumerate:
    def test_p2_example(self):
        seqs = enumerate_I(2, 1, 2)
        assert [s.entries for s in seqs] == [(), (1,), (2,), (3,), (3, 1)]
        assert [s.dim for s in seqs] == [0, 0, 1, 2, 2]

    def test_p2_empty_budget(self):
        assert [s.entries for s in enumerate_I(2, 5, 0)] == [()]

    def test_odd_example(self):
        seqs = enumerate_I(3, 2, 4)
        assert {(s.entries, s.dim) for s in seqs} == {
            ((), 0),
            (((1, 1),), 2),
            (((0, 1),), 3),
        }

    def test_sorted_and_duplicate_free(self):
        seqs = enumerate_I(2, 2, 12)
        entries = [s.entries for s in seqs]
        assert entries == sorted(entries)
        assert len(entries) == len(set(entries))

    def test_dim_matches_definition_p2(self):
        for s in enumerate_I(2, 3, 15):
            assert s.dim == sum(i - 1 for i in s.entries)

    def test_dim_matches_definition_odd(self):
        for s in enumerate_I(3, 2, 15):
            assert s.dim == sum(4 * i - eps - 1 for eps, i in s.entries)

    def test_admissibility_p2(self):
        for s in enumerate_I(2, 2, 20):
            seq = s.entries
            assert all(seq[k] > 2 * seq[k + 1] for k in range(len(seq) - 1))
            if seq:
                assert seq[-1] >= 2

    def test_admissibility_odd(self):
        for s in enumerate_I(3, 1, 20):
            seq = s.entries
            for k in range(len(seq) - 1):
                eps_next, i_next = seq[k + 1]
                assert seq[k][1] > 3 * i_next - eps_next
            if seq:
                assert 2 * seq[-1][1] >= 1

    @pytest.mark.parametrize("p, n, max_dim", [(2, 1, 12), (3, 1, 20), (5, 2, 40)])
    def test_listing_ceiling_boundary(self, monkeypatch, p, n, max_dim):
        count = sum(a_series(p, n, max_dim))
        monkeypatch.setattr(ehp, "MAX_LISTING", count)
        assert len(enumerate_I(p, n, max_dim)) == count
        monkeypatch.setattr(ehp, "MAX_LISTING", count - 1)
        with pytest.raises(ResourceLimitError) as info:
            enumerate_I(p, n, max_dim)
        assert str(info.value) == (
            f"I({n}) at p = {p} has more than {count - 1} sequences of "
            f"dimension <= {max_dim}; lower the dimension cap"
        )

    # SHA-256 over the listings of every (p, n, cap) below, each case the
    # repr of [(entries, dim), ...] or, where the guard trips, its message,
    # one line per case; pinned from an earlier, recursive implementation.
    # At the default MAX_LISTING no case trips the guard; at 200, 21 do.
    @pytest.mark.parametrize("limit, digest", [
        (None, "a7fd281e5f04d859d86c3377581402a7c7b2dc57f9d752560f9475ec84abada6"),
        (200, "de54452d73aaaf2677420c8d3f88adf6d74aca2c1683fff25d4cef0c51bb03e3"),
    ], ids=["default_limit", "limit_200"])
    def test_listing_digest(self, monkeypatch, limit, digest):
        if limit is not None:
            monkeypatch.setattr(ehp, "MAX_LISTING", limit)
        h = hashlib.sha256()
        for p in (2, 3, 5, 7):
            for n in range(1, 9):
                for cap in (0, 1, 5, 17, 34, 60, 90):
                    try:
                        case = [(J.entries, J.dim) for J in enumerate_I(p, n, cap)]
                    except ResourceLimitError as exc:
                        case = str(exc)
                    h.update(repr(case).encode() + b"\n")
        assert h.hexdigest() == digest


def test_import_does_not_load_asymptotics():
    # the package __init__ imports every module, so ehp is imported under a
    # bare package object, which loads only what ehp itself imports
    code = (
        "import importlib.util, sys, types\n"
        "pkg = types.ModuleType('stemsize')\n"
        "pkg.__path__ = importlib.util.find_spec('stemsize').submodule_search_locations\n"
        "sys.modules['stemsize'] = pkg\n"
        "import stemsize.ehp\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('stemsize.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "stemsize.ehp" in loaded and "stemsize.asymptotics" not in loaded


NON_PRIME_CALLS = {
    "enumerate_I": lambda p: enumerate_I(p, 1, 10),
    "a_series": lambda p: a_series(p, 1, 10),
    "admissible_series": lambda p: admissible_series(p, 10),
    "_admissible_counts": lambda p: _admissible_counts(p, 10),
}


@pytest.mark.parametrize("name", NON_PRIME_CALLS)
@pytest.mark.parametrize("p", [-3, 0, 1, 4])
def test_non_prime_rejected(name, p):
    with pytest.raises(ValueError, match=f"^p = {p} is not prime$"):
        NON_PRIME_CALLS[name](p)


class TestASeries:
    def test_a1_initial_coefficients_p2(self):
        assert a_series(2, 1, 3) == TruncatedSeries([2, 1, 2, 2])

    def test_monotone_in_excess(self):
        for p in (2, 3):
            for n in range(1, 7):
                assert a_series(p, n + 1, 30).leq(a_series(p, n, 30))

    def test_recurrence_p2(self):
        for n in range(1, 10):
            assert verify_ehp_recurrence(2, n, 60)

    def test_recurrence_odd(self):
        for n in range(1, 8):
            assert verify_ehp_recurrence(3, n, 60)

    def test_negative_truncation_rejected(self):
        for p in (2, 3):
            with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
                a_series(p, 1, -1)
        with pytest.raises(ValueError, match="^dimension cap must be >= 0$"):
            enumerate_I(2, 1, -1)

    def test_p2_split_recurrence_directly(self):
        n, trunc = 4, 40
        lhs = a_series(2, n, trunc)
        rhs = a_series(2, n + 1, trunc).add(
            a_series(2, 2 * n + 1, trunc).shift(n - 1)
        )
        assert lhs == rhs


class TestCensusKernel:
    """The fold `a_series` against the listing and against the prefix-sum
    chain census it replaced, and the admissible census against `hilbert` of
    the dual Steenrod algebra (Milnor's theorem), which computes
    `admissible_series`."""

    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_series_matches_enumeration(self, p, n, trunc):
        assert a_series(p, n, trunc) == census(p, n, trunc)

    @given(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_series_matches_chain_census(self, p, n, trunc):
        assert a_series(p, n, trunc) == chain_census(p, n, trunc)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_shifts_are_least_dimensions(self, p):
        # m_k(n) is where the sequences of length k start
        for n in range(1, 9):
            least = {}
            for J in enumerate_I(p, n, 60):
                least[len(J.entries)] = min(least.get(len(J.entries), J.dim), J.dim)
            assert sorted(least.values()) == shifts(p, n, 60)

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=120))
    @settings(max_examples=100, deadline=None)
    def test_admissible_matches_reference(self, p, trunc):
        reference = admissible_counts_reference(p, trunc)
        assert _admissible_counts(p, trunc) == reference
        assert admissible_series(p, trunc) == TruncatedSeries(reference)

    @pytest.mark.parametrize("p", [2, 3])
    def test_large_degree(self, p):
        # out of reach for the enumerators: P(A;t) at p = 2 has 24M monomials
        dual = hilbert(preset("dual_steenrod", p), 400)
        assert _admissible_counts(p, 400) == dual.coeffs
        for n in range(1, 4):
            assert verify_ehp_recurrence(p, n, 400)

    @pytest.mark.parametrize("p", [5, 7])
    def test_large_degree_odd(self, p):
        dual = hilbert(preset("dual_steenrod", p), 1500)
        assert _admissible_counts(p, 1500) == dual.coeffs


class TestAdmissible:
    def test_p2_equals_dual_steenrod(self):
        dual = hilbert(preset("dual_steenrod", 2), 24)
        assert _admissible_counts(2, 24) == dual.coeffs

    def test_odd_equals_dual_steenrod(self):
        for p in (3, 5):
            dual = hilbert(preset("dual_steenrod", p), 30)
            assert _admissible_counts(p, 30) == dual.coeffs

    def test_odd_low_degrees(self):
        got = admissible_series(3, 5)
        assert got[0] == 1 and got[1] == 1 and got[4] == 1

    def test_negative_truncation_rejected(self):
        for p in (2, 3):
            with pytest.raises(AlgebraError, match="^truncation must be nonnegative$"):
                admissible_series(p, -1)
        ones = TruncatedSeries.ones(4)
        with pytest.raises(AlgebraError, match="^truncation must be nonnegative$"):
            unstable_ext_bound(2, ones, ones, -1)


class TestUnstableBounds:
    def test_ext_bound_example(self):
        # P(A;t) truncated at 3 is [1,1,1,2]; against the all-ones stable
        # bound and a trivial module the answer is its running sum.
        got = unstable_ext_bound(
            2, TruncatedSeries.unit(3), TruncatedSeries.ones(3), 3
        )
        assert got == TruncatedSeries([1, 2, 3, 5])

    def test_rank_bound_doubles_ext_bound(self):
        ones = TruncatedSeries.ones(8)
        unit = TruncatedSeries.unit(8)
        ext = unstable_ext_bound(2, ones, unit, 8)
        rank = unstable_rank_bound(2, ones, unit, 8)
        assert rank == ext.scale(2)

    def test_rank_bound_rejects_nonunital_loops(self):
        bad = TruncatedSeries([0, 1, 1])
        with pytest.raises(SeriesError):
            unstable_rank_bound(2, bad, TruncatedSeries.ones(2), 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("k", [3, 5])
    def test_rank_bound_is_one_joint_fold(self, p, k):
        # Every factor is the Hilbert series of a free algebra, so the bound
        # is twice the Hilbert series of their tensor product: P(A;t) from
        # dual_steenrod, varpi_A from may_e1, h(Omega S^k) = 1/(1 - t^(k-1)).
        N = 200
        h = factor_series(POLYNOMIAL, k - 1, N)
        families = (
            preset("dual_steenrod", p).families
            + preset("may_e1", p, drop_q0=True).families
            + parse_spec(f"p = {p}\ngen poly deg = {k - 1}\n").families
        )
        joint = AlgebraSpec(p, families, "joint")
        bound = unstable_rank_bound(p, h, default_varpi_a(p, N), N)
        assert bound == hilbert(joint, N).scale(2)

    def test_default_varpi_a_matches_preset(self):
        assert default_varpi_a(2, 10) == hilbert(
            preset("may_e1", 2, drop_q0=True), 10
        )


class TestEnvelope:
    """P(A;t) is H_k times a series with nonnegative coefficients and
    constant term 1, so each H_k <= P(A;t) and
    A(n;t) = sum_k t^m_k(n) H_k <= S_n(t) P(A;t), S_n(t) = sum_k t^m_k(n),
    at every p, where plain A(n;t) <= P(A;t) fails."""

    def test_envelope_holds_where_domination_fails(self):
        N = 400
        dominated = {}
        for p in (2, 3, 5):
            P = admissible_series(p, N)
            for n in (1, 2, 3, 5, 8):
                s_n = [0] * (N + 1)
                for m in shifts(p, n, N):
                    s_n[m] += 1  # at p = 2, n = 1, m_0 = m_1 = 0
                A = a_series(p, n, N)
                assert A.leq(P.mul(TruncatedSeries(s_n)))
                dominated[p, n] = A.leq(P)
        assert [case for case, ok in dominated.items() if not ok] == [
            (2, 1), (3, 1), (3, 2), (3, 3), (3, 5), (3, 8),
            (5, 1), (5, 2), (5, 3), (5, 5), (5, 8),
        ]


class TestCUSeqJson:
    def test_json_shape_p2(self):
        s = enumerate_I(2, 1, 2)[-1]
        obj = s.to_json_obj()
        assert obj["entries"] == [3, 1]
        assert obj["dim"] == 2


class TestCoefficientCap:
    def test_a_series_at_the_cap_is_refused_at_once(self):
        start = time.monotonic()
        with pytest.raises(ResourceLimitError,
                           match=f"^truncation {2**24} is not below the cap {2**24}$"):
            a_series(2, 1, 2**24)
        with pytest.raises(OverflowError, match="index-sized integer"):
            a_series(3, 1, 2**70)
        assert time.monotonic() - start < 1.0

    def test_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(algebra, "_MAX_COEFFS", 50)
        ehp._a_counts.cache_clear()  # a cached census skips the cap check
        assert a_series(2, 1, 49) == census(2, 1, 49)
        with pytest.raises(ResourceLimitError, match="truncation 50 is not below the cap 50"):
            a_series(2, 3, 50)

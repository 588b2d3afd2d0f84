"""Completely unadmissible sequences, their generating series, the EHP
recurrences, and the admissible-monomial series of the Steenrod algebra.

At p = 2, I(n) holds sequences (i_1, ..., i_k), k >= 0, with i_k >= n and
i_s > 2 i_{s+1}; dim(J) = sum (i_s - 1).  At odd p the entries are pairs
(eps_s, i_s) with eps_s in {0,1}, 2 i_k >= n and i_s > p i_{s+1} - eps_{s+1};
dim(J) = sum (2(p-1) i_s - eps_s - 1).

One fold gives both series.  P(A;t) is the Hilbert series of the dual
Steenrod algebra (Milnor's theorem), `hilbert` of the `dual_steenrod`
preset.  Written by its gaps, J in I(n) of length k is m_k(n) plus b_j >= 0
copies of each degree of the first k dual Steenrod factors, so
A(n;t) = sum_k t^m_k(n) H_k(t), H_k their product: m_k(n) is
(n+1)(2^k - 1) - 2k at p = 2 and 2 ceil(n/2)(p^k - 1) - 2k at odd p.  The
listing `enumerate_I` is the independent oracle of A(n;t);
`verify_ehp_recurrence` relates folds at different n, and the O(N^2) chain
census `_admissible_counts` checks P(A;t).

Where A(n;t) <= P(A;t) holds:

- At p = 2 and n >= 2 it holds: J -> J - 1 (subtract 1 from every entry)
  maps I(n) injectively onto sequences with j_k >= n - 1 >= 1 and
  j_s > 2 j_{s+1} + 1, which are admissible of grading sum j_s = dim(J).
  verify's ehp ``shift_bijection`` check exercises this map.
- At odd p it fails under the grading above.  An admissible monomial has
  degree = its number of Bocksteins mod 2(p-1), while a singleton (eps, i)
  has degree 2(p-1)i - eps - 1.  At p = 3 the singletons (0, i) with
  2i >= n exceed P(A) by exactly 1 in each degree 4i - 1 < 23, since
  b P^4 b P^1 b in degree 23 is the lowest admissible monomial with three
  Bocksteins.  At p = 5 it fails in every degree 8i - 2 and 8i - 1 with
  2i >= n (below 7806, the lowest degree with six Bocksteins), and in
  further degrees = 4, 5 mod 8 from two-entry sequences.
- Whether this odd-p grading is the paper's is not settled: the paper's
  abstract does not say.  If it is, unstable_ext_bound is not a valid
  upper bound at odd p.  P(A;t)/H_k has nonnegative coefficients and
  constant term 1, so A(n;t) <= S_n(t) P(A;t) at every p, where
  S_n(t) = sum_k t^m_k(n).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from ._frozen import Frozen
from .algebra import _require_below_cap, _require_prime, hilbert, instantiate
from .presets import preset
from .series import ResourceLimitError, TruncatedSeries, SeriesError, _fold

__all__ = [
    "CUSeq",
    "enumerate_I",
    "a_series",
    "verify_ehp_recurrence",
    "admissible_series",
    "unstable_ext_bound",
    "unstable_rank_bound",
    "default_varpi_a",
]

# Most sequences one `enumerate_I` call lists: at p = 2 a JSON listing of
# 10^5 sequences takes about 2 s and 180 MB.
MAX_LISTING = 100_000


class CUSeq(Frozen):
    """A completely unadmissible sequence of excess n.

    At p = 2, entries are the i_s; at odd p they are (eps_s, i_s) pairs.
    """

    __slots__ = ("p", "n", "entries")
    _json = ("p", "n", "entries", "dim")

    @property
    def dim(self) -> int:
        if self.p == 2:
            return sum(i - 1 for i in self.entries)
        return sum(2 * (self.p - 1) * i - eps - 1 for eps, i in self.entries)


def enumerate_I(p: int, n: int, max_dim: int) -> list[CUSeq]:
    """Every J in I(n) with dim(J) <= max_dim, exactly once, lexicographically.

    Raises `ResourceLimitError` once the listing passes `MAX_LISTING`
    sequences.  The guard counts as it lists: `a_series` would count in
    advance, but in a list of max_dim + 1 coefficients, and a cap may be
    far larger than any list.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("excess must be >= 1")
    if max_dim < 0:
        raise ValueError("dimension cap must be >= 0")
    # An entry (eps, i) has dimension w*i - eps - 1 and may stand left of
    # (eps', j) iff i > p*j - eps'.  At p = 2, eps is 0 and an entry is the
    # bare i.  Build right to left from the last entry, which has i >= lo.
    w, epsilons, lo = (1, (0,), n) if p == 2 else (2 * (p - 1), (0, 1), (n + 1) // 2)
    out: list[tuple] = [()]
    stack = [((), 0, lo)]  # (suffix, its dim, least i of an entry left of it)
    while stack:
        suffix, dim, lo = stack.pop()
        for eps in epsilons:
            i, d = lo, dim + w * lo - eps - 1
            while d <= max_dim:
                seq = (i if p == 2 else (eps, i),) + suffix
                out.append(seq)
                if len(out) > MAX_LISTING:
                    raise ResourceLimitError(
                        f"I({n}) at p = {p} has more than {MAX_LISTING} sequences "
                        f"of dimension <= {max_dim}; lower the dimension cap"
                    )
                # stack seq only if an entry left of it, of dim >= w*nxt - 2, fits
                if d + w * (nxt := p * i - eps + 1) - 2 <= max_dim:
                    stack.append((seq, d, nxt))
                i, d = i + 1, d + w
    out.sort()
    return [CUSeq(p, n, seq) for seq in out]


@lru_cache(maxsize=4096)
def _a_counts(p: int, n: int, max_dim: int) -> tuple[int, ...]:
    _require_prime(p)
    if n < 1:
        raise ValueError("excess must be >= 1")
    if max_dim < 0:
        raise ValueError("truncation must be nonnegative")
    _require_below_cap(max_dim)
    # In degree order the dual Steenrod generators are xi_1, xi_2, ... at
    # p = 2 and tau_0, xi_1, tau_1, xi_2, ... at odd p: H_k is the first k,
    # or 2k, of them, folded into one list h and added at offset m_k(n).
    gens = instantiate(preset("dual_steenrod", p), max_dim)
    step, c = (1, n + 1) if p == 2 else (2, 2 * ((n + 1) // 2))
    out, h, k = [0] * (max_dim + 1), [1] + [0] * max_dim, 0
    # m_k(n) = c (p^k - 1) - 2k never decreases in k (module docstring)
    while (m := c * (p**k - 1) - 2 * k) <= max_dim:
        out[m:] = map(add, out[m:], h)
        for kind, d, _ in gens[step * k : step * k + step]:
            _fold(h, kind, d)
        k += 1
    return tuple(out)


def a_series(p: int, n: int, trunc: int) -> TruncatedSeries:
    """A(n; t): coefficient d counts the sequences in I(n) of dimension d;
    `hilbert`'s coefficient cap applies."""
    return TruncatedSeries._of(_a_counts(p, n, trunc))


def verify_ehp_recurrence(p: int, n: int, trunc: int) -> bool:
    """Check the EHP identity at excess parameter n through degree trunc.

    p = 2:  A(n) = A(n+1) + A(2n+1) * t^(n-1).
    p odd:  A(2n-1) = A(2n)  and
            A(2n) = A(2n+1) + A(2pn) * t^(2(p-1)n-2) + A(2pn+1) * t^(2(p-1)n-1).
    """
    if n < 1:
        raise ValueError("excess must be >= 1")
    if p == 2:
        lhs = a_series(2, n, trunc)
        rhs = a_series(2, n + 1, trunc).add(
            a_series(2, 2 * n + 1, trunc).shift(n - 1)
        )
        return lhs == rhs
    if a_series(p, 2 * n - 1, trunc) != a_series(p, 2 * n, trunc):
        return False
    lhs = a_series(p, 2 * n, trunc)
    rhs = (
        a_series(p, 2 * n + 1, trunc)
        .add(a_series(p, 2 * p * n, trunc).shift(2 * (p - 1) * n - 2))
        .add(a_series(p, 2 * p * n + 1, trunc).shift(2 * (p - 1) * n - 1))
    )
    return lhs == rhs


def _admissible_counts(p: int, trunc: int) -> tuple[int, ...]:
    """Admissible Steenrod monomials by grading through trunc, counted as
    chains in O(N^2): the oracle for `admissible_series`.

    Entries (dim, k) come in nondecreasing dim, and each may stand left of
    exactly the first k entries.  sums[j] is 1 plus the rows of the first j
    entries, where an entry's row t^dim * sums[k] counts the chains it starts.
    """
    _require_prime(p)
    if p == 2:  # admissible i_s >= 2 i_{s+1}, i_k >= 1, graded by sum i_s
        entries = [(i, i // 2) for i in range(1, trunc + 1)]
    else:
        # b^e0 P^{i_1} b^e1 ... P^{i_k} b^ek, graded by e0 + sum (2(p-1) i_s
        # + e_s): (e, i) may precede both entries of every j with i >= p j + e
        w = 2 * (p - 1)
        entries = [(w * i + e, 2 * ((i - e) // p))
                   for i in range(1, trunc // w + 1) for e in (0, 1)]
    sums = [[1] + [0] * trunc]
    for dim, k in entries:
        if dim > trunc:
            break
        sums.append(sums[-1][:dim] + list(map(add, sums[-1][dim:], sums[k])))
    counts = sums[-1]
    if p > 2:
        counts[1:] = map(add, counts[1:], counts)  # the leading Bockstein e0
    return tuple(counts)


def admissible_series(p: int, trunc: int) -> TruncatedSeries:
    """P(A;t): coefficient n counts admissible Steenrod monomials of grading
    n.  By Milnor's theorem this is the Hilbert series of the dual Steenrod
    algebra, computed by `hilbert`; `_admissible_counts` is its oracle."""
    return hilbert(preset("dual_steenrod", p), trunc)


def default_varpi_a(p: int, trunc: int) -> TruncatedSeries:
    """Default upper-bound series for the stable Ext rank: the may_e1
    (drop_q0) Hilbert series."""
    return hilbert(preset("may_e1", p, drop_q0=True), trunc)


def unstable_ext_bound(
    p: int, m_series: TruncatedSeries, varpi_a: TruncatedSeries, trunc: int
) -> TruncatedSeries:
    """P(A;t) * varpi_A(t) * P(M;t): an upper bound for the unstable Ext rank
    series of the module M.  varpi_a must be a caller-declared upper bound
    for the stable Ext rank series.

    At p = 2 the factor P(A;t) dominates A(n;t) for n >= 2.  At odd p,
    under this module's grading, it does not: at p = 3 A(n;t) exceeds it
    by 1 in degrees 7, 11, 15 and 19 (see the module docstring).
    There the result is not known to be an upper bound.
    """
    return admissible_series(p, trunc).mul(varpi_a).mul(m_series)


def unstable_rank_bound(
    p: int, loops_homology: TruncatedSeries, varpi_a: TruncatedSeries, trunc: int
) -> TruncatedSeries:
    """2 * P(A;t) * varpi_A(t) * h(Omega X;t); coefficient n bounds the rank
    of pi_{n+1} X for a simply-connected finite-type X.

    The odd-p caveat of `unstable_ext_bound` applies: at odd p, P(A;t) does
    not dominate A(n;t) under this module's grading, and the result is not
    known to be an upper bound.
    """
    if loops_homology[0] != 1:
        raise SeriesError(
            "loop-space homology must have coefficient 1 in degree 0 "
            "(connected loop space)"
        )
    return unstable_ext_bound(p, loops_homology, varpi_a, trunc).scale(2)

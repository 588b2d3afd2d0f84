"""Truncated formal power series with arbitrary-precision nonnegative integer
coefficients.

A series carries coefficients c_0..c_N for a fixed truncation N.  All rank
and cell-count bookkeeping in this package is done with these, and no
negative coefficient ever enters a series: the truncated-generator fold
subtracts only terms it has just added, and the signed sums behind
`factor_series` are finished as plain ints first.  Binary operations align
to the minimum truncation of their operands.
"""

from __future__ import annotations

import io
import json
import math
import sys
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, le, sub
from typing import Iterable, Iterator

from ._frozen import Frozen

__all__ = [
    "GeneratorKind",
    "POLYNOMIAL",
    "EXTERIOR",
    "SeriesError",
    "ResourceLimitError",
    "TruncatedSeries",
    "factor_series",
]

_LN2 = math.log(2)


class SeriesError(ValueError):
    """Invalid series construction or operation."""


class ResourceLimitError(RuntimeError):
    """Raised when an exact check or output would exceed its declared size
    ceiling."""


# Budget for writing one series in decimal, as the sum over its coefficients
# of bit_length^2: CPython's int-to-decimal conversion is quadratic in the
# length.  Coefficients of one polynomial generator in degree 1 with
# multiplicity 10^8 cost 1.1e11 at N = 1000 (0.23 s of conversion),
# 8.2e11 at N = 2000 (1.6 s) and 2.6e12 at N = 3000 (4.9 s), measured on a
# 2-vCPU VM with Python 3.11; the budget lets through about 4 s.  It is
# checked before the first byte; the text then goes out in pieces of about
# _PIECE_BITS bits of digits, so JSON at N = 2000 peaks 8.5 MB above import.
MAX_DECIMAL_COST = 2 * 10**12
_PIECE_BITS = 2**16


class GeneratorKind(Frozen):
    """One of the three generator species: polynomial, exterior, truncated(k).

    ``order`` is the nilpotence order k (x^k = 0) and is only set for the
    truncated kind, where k >= 2 is required.
    """

    __slots__ = ("name", "order")

    def _check(self) -> None:
        name, order = self.name, self.order
        if name not in ("poly", "ext", "trunc"):
            raise SeriesError(f"unknown generator kind {name!r}")
        if name == "trunc":
            if order is None or order < 2:
                raise SeriesError("truncated generator needs order k >= 2")
        elif order is not None:
            raise SeriesError(f"kind {name!r} takes no order")

    @classmethod
    def truncated(cls, k: int) -> "GeneratorKind":
        return cls("trunc", k)

    @property
    def nilpotence(self) -> int | None:
        """The k with x^k = 0: ``order`` for a truncated generator, 2 for an
        exterior one (1 + t^d is the truncated(2) factor), None for a
        polynomial one."""
        return 2 if self.name == "ext" else self.order

    def __str__(self) -> str:
        return f"trunc({self.order})" if self.name == "trunc" else self.name


GeneratorKind.__init__.__defaults__ = (None,)  # order
POLYNOMIAL = GeneratorKind("poly")
EXTERIOR = GeneratorKind("ext")


class TruncatedSeries:
    """Immutable degree-indexed sequence c_0..c_N of nonnegative integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        tup = tuple(coeffs)
        if not tup:
            raise SeriesError("series needs at least the degree-0 coefficient")
        for c in tup:
            if not isinstance(c, int) or isinstance(c, bool):
                raise SeriesError(f"coefficient {c!r} is not an integer")
            if c < 0:
                raise SeriesError(f"negative coefficient {c}")
        self._coeffs = tup

    @classmethod
    def _of(cls, coeffs: Iterable[int]) -> "TruncatedSeries":
        """Unchecked constructor for results computed inside this module.

        Every coefficient must already be a nonnegative int obtained by int
        arithmetic from validated series; input from a caller goes through
        the checking constructor.
        """
        series = object.__new__(cls)
        series._coeffs = tuple(coeffs)
        return series

    # -- construction helpers ------------------------------------------------

    @classmethod
    def unit(cls, trunc: int) -> "TruncatedSeries":
        """The series 1 (multiplicative identity)."""
        _check_trunc(trunc)
        return cls._of((1,) + (0,) * trunc)

    @classmethod
    def zero(cls, trunc: int) -> "TruncatedSeries":
        _check_trunc(trunc)
        return cls._of((0,) * (trunc + 1))

    @classmethod
    def ones(cls, trunc: int) -> "TruncatedSeries":
        """The series 1/(1-t)."""
        _check_trunc(trunc)
        return cls._of((1,) * (trunc + 1))

    # -- basic access --------------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> int:
        return self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        c = self._coeffs
        if len(c) <= 12:
            return f"TruncatedSeries([{', '.join(_digits(c))}])"
        return f"TruncatedSeries([{', '.join(_digits(c[:10]))}, ...], trunc={self.trunc})"

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries._of(map(add, self._coeffs, other._coeffs))

    def scale(self, c: int) -> "TruncatedSeries":
        if c < 0:
            raise SeriesError("negative scalar")
        return TruncatedSeries(c * a for a in self._coeffs)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Convolution product, truncated at the shorter operand.

        Both operands live on the multiples of g, the gcd of the degrees
        where either has a nonzero coefficient, and so does the product: it
        is convolved on their N // g + 1 lattice coefficients and spread
        back.  g = 1 is the dense case.
        """
        n = min(self.trunc, other.trunc)
        a = self._coeffs
        b = other._coeffs
        degrees = range(n + 1)
        g = 0
        for d in chain(compress(degrees, a), compress(degrees, b)):
            g = math.gcd(g, d)
            if g == 1:
                break
        step = g or n + 1  # only c_0 can be nonzero: keep degree 0 alone
        a = a[: n + 1 : step]
        b = b[: n + 1 : step]
        m = len(a)
        out = [0] * m
        for i in range(m):
            ai = a[i]
            if ai:
                for j in range(m - i):
                    out[i + j] += ai * b[j]
        return TruncatedSeries._of(_spread(out, step, n))

    __mul__ = mul

    def mul_factor(self, kind: GeneratorKind, d: int) -> "TruncatedSeries":
        """Multiply by the Hilbert factor of one generator in degree d.

        polynomial -> 1/(1-t^d), exterior -> 1+t^d,
        truncated(k) -> 1+t^d+...+t^(d(k-1)) = (1-t^(kd))/(1-t^d).

        A copy of the coefficients goes through the in-place kernel `_fold`,
        the one `algebra.hilbert` runs on its working list, and the result
        is a new series; the receiver is unchanged.
        """
        if d < 1:
            raise SeriesError("generator degree must be >= 1")
        out = list(self._coeffs)
        _fold(out, kind, d)
        return TruncatedSeries._of(out)

    def cumulative(self) -> "TruncatedSeries":
        """Running sum: c'_n = sum_{k <= n} c_k."""
        return TruncatedSeries._of(accumulate(self._coeffs))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; truncation unchanged, high coefficients fall off."""
        if k < 0:
            raise SeriesError("shift must be nonnegative")
        if k == 0:
            return self
        n = self.trunc
        if k > n:
            return TruncatedSeries._of((0,) * (n + 1))
        return TruncatedSeries._of((0,) * k + self._coeffs[: n + 1 - k])

    def leq(self, other: "TruncatedSeries") -> bool:
        """Coefficientwise <= on the common truncation."""
        return all(map(le, self._coeffs, other._coeffs))

    def coeff_log(self, n: int) -> float:
        """Natural log of c_n, relative error below 2^-50.

        Large coefficients are handled through their top 64 bits plus the
        exact bit length, so the value never overflows a float.
        """
        if not 0 <= n <= self.trunc:
            raise SeriesError(f"degree {n} outside truncation {self.trunc}")
        c = self._coeffs[n]
        if c == 0:
            raise SeriesError(f"log of zero coefficient at degree {n}")
        bl = c.bit_length()
        if bl <= 64:
            return math.log(c)
        e = bl - 64
        return (e + math.log2(c >> e)) * _LN2

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"trunc": self.trunc, "coeffs": [*chain.from_iterable(_decimal(self._coeffs))]}

    def to_json(self, stream=None) -> str | None:
        """`json.dumps(self.to_json_obj())`, returned, or written piece by
        piece to `stream`; decimal strings need no escaping."""
        pieces = _decimal(self._coeffs)
        out = io.StringIO() if stream is None else stream
        out.write('{"trunc": %d, "coeffs": [' % self.trunc)
        sep = '"'
        for piece in pieces:
            out.write(sep + '", "'.join(piece))
            sep = '", "'
        out.write('"]}')
        return out.getvalue() if stream is None else None

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TruncatedSeries":
        coeffs = [int(c) for c in obj["coeffs"]]
        if len(coeffs) != obj["trunc"] + 1:
            raise SeriesError("coeffs length does not match trunc")
        return cls(coeffs)

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        return cls.from_json_obj(json.loads(text))

    def csv_rows(self) -> Iterator[tuple[int, str]]:
        yield from enumerate(chain.from_iterable(_decimal(self._coeffs)))


def _decimal(coeffs: tuple[int, ...]) -> Iterator[list[str]]:
    """The coefficients in decimal, however many digits, in lists of
    _PIECE_BITS // (top + 1) or 1, top the largest bit length, converted as
    read.  Raises `ResourceLimitError` first if the squared bit lengths sum
    past MAX_DECIMAL_COST."""
    top = max(coeffs).bit_length()  # coefficients are nonnegative
    if top * top * len(coeffs) > MAX_DECIMAL_COST:
        cost = sum(c.bit_length() ** 2 for c in coeffs)
        if cost > MAX_DECIMAL_COST:
            raise ResourceLimitError(
                f"writing the series in decimal costs {cost} (sum of squared "
                f"coefficient bit lengths), above the budget {MAX_DECIMAL_COST}"
            )
    size = _PIECE_BITS // (top + 1) or 1
    return (_digits(coeffs[s : s + size]) for s in range(0, len(coeffs), size))


def _digits(piece: tuple[int, ...]) -> list[str]:
    """str of each int, with the int-to-str digit limit (Python 3.11 on)
    lifted only while they convert: DSL and `from_json` input keep it."""
    # Python 3.10 has no limit: int stands in for get and set
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit = getattr(sys, "set_int_max_str_digits", int)
    set_limit(0)
    try:
        return list(map(str, piece))
    finally:
        set_limit(limit)


def _check_trunc(trunc: int) -> None:
    if trunc < 0:
        raise SeriesError("truncation must be nonnegative")


def _fold(out: list[int], kind: GeneratorKind, d: int) -> None:
    """Multiply the coefficient list `out` in place by the Hilbert factor of
    one generator of `kind` in degree d >= 1, truncated at len(out) - 1.

    Every kind is one or two passes of N + 1 coefficient additions done by
    `map`/`accumulate`.  The polynomial fold adds out[n-d] into out[n] in
    ascending n: when d^2 > N it runs as N // d contiguous blocks of d
    coefficients, otherwise as d strided running sums of about N // d
    coefficients, so each fold makes at most about sqrt(N) slice
    operations.  A truncated(k) factor is the polynomial fold followed by
    one subtraction of the list shifted by kd.  The exterior factor, and
    truncated(2), whose factor (1 - t^(2d))/(1 - t^d) is the same 1 + t^d,
    are a single shifted addition.  A slice assignment consumes its whole
    right-hand side before it writes, so its reads see the list as it was
    before it.
    """
    if kind.name == "ext" or kind.order == 2:
        out[d:] = map(add, out[d:], out)
        return
    n = len(out) - 1
    if d * d > n:
        for s in range(d, n + 1, d):
            out[s : s + d] = map(add, out[s : s + d], out[s - d : s])
    else:
        for r in range(d):
            out[r::d] = accumulate(out[r::d])
    if kind.name == "trunc":
        kd = kind.order * d  # type: ignore[operator]
        out[kd:] = map(sub, out[kd:], out)


def _fold_terms(terms: dict[int, int], kind: GeneratorKind, d: int, trunc: int) -> dict[int, int]:
    """`_fold` on the nonzero terms {degree: coefficient} of a series, into
    a new dict: one running sum per residue class mod d that occurs, from
    its least degree up to trunc, for a polynomial generator, so the work
    is the product's support; the terms shifted by jd, 0 < j < k, for a
    truncated(k) one (exterior: k = 2).
    """
    k = kind.nilpotence
    if k is None:
        out: dict[int, int] = {}
        for e in sorted(terms):
            if e not in out:  # the least degree of its class
                c = 0
                for f in range(e, trunc + 1, d):
                    c += terms.get(f, 0)
                    out[f] = c
        return out
    out = dict(terms)
    for s in range(d, min(k * d, trunc + 1), d):
        for e, c in terms.items():
            if e + s <= trunc:
                out[e + s] = out.get(e + s, 0) + c
    return out


def _spread(coeffs: list[int], step: int, trunc: int) -> list[int]:
    """The coefficient list with t replaced by t^step, truncated at degree
    trunc.

    `coeffs` must hold trunc // step + 1 coefficients; they land on the
    multiples of step, with zeros between.  For step 1 it is `coeffs`
    itself.
    """
    if step == 1:
        return coeffs
    out = [0] * (trunc + 1)
    out[::step] = coeffs
    return out


def _hold(coeffs: Iterable[int], step: int, trunc: int) -> Iterable[int]:
    """The trunc // step + 1 `coeffs` through degree trunc, coeffs[j] held
    over degrees j * step .. j * step + step - 1: one slice assignment per
    residue class mod step while step^2 <= trunc, else each value repeated;
    for step 1, `coeffs` itself."""
    if step == 1:
        return coeffs
    if step * step > trunc:
        return islice(chain.from_iterable(map(repeat, coeffs, repeat(step))), trunc + 1)
    coeffs = list(coeffs)
    out = [0] * (trunc + 1)
    for r in range(step):
        out[r::step] = coeffs[: (trunc - r) // step + 1]
    return out


def factor_series(
    kind: GeneratorKind, d: int, trunc: int, mult: int = 1
) -> TruncatedSeries:
    """Explicit Hilbert factor F^mult of `mult` generators of one kind in
    degree d, truncated at degree trunc.

    F^m is a series in t^d.  Its coefficient f_j of t^(jd) is C(m-1+j, j)
    for a polynomial generator and sum_i (-1)^i C(m, i) C(m-1+j-ik, j-ik)
    for a truncated(k) one, (1 + t + ... + t^(k-1))^m; an exterior
    generator is truncated(2), where f_j = C(m, j).  The truncated
    coefficients come from Q F' = m Q' F with Q = 1 + ... + t^(k-1), which
    gives (j+1) f_(j+1) = sum_{1 <= i < k} (m i - j + i - 1) f_(j+1-i):
    k products per coefficient in place of the alternating sum's j/k.  The
    signed terms are summed as plain ints, so only the nonnegative f_j
    reach the series.
    """
    if d < 1:
        raise SeriesError("generator degree must be >= 1")
    _check_trunc(trunc)
    if mult < 0:
        raise SeriesError("negative multiplicity")
    size = trunc // d + 1
    k = kind.nilpotence
    f = [1]
    for j in range(size - 1):
        if k is None:
            f.append(f[j] * (mult + j) // (j + 1))
        else:
            terms = range(1, min(k, j + 2))
            f.append(sum((mult * i - j + i - 1) * f[j + 1 - i] for i in terms) // (j + 1))
    return TruncatedSeries(_spread(f, d, trunc))

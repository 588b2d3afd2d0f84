"""Torsion-exponent formulas: stable bounds driven by an E-infinity vanishing
curve, the image-of-J lower bound, the integral assembly, and the unstable
bounds (Barratt, the Goodwillie-tower bound, norm torsion orders).

All real-valued outputs are upper or lower bounds with a documented
direction; closed forms are never rounded toward the unsafe side.
"""

from __future__ import annotations

import json
import math
from math import isqrt
from typing import Callable

from ._frozen import Frozen
from .algebra import _require_prime, hilbert_cumulative, is_prime
from .presets import preset

__all__ = [
    "TorsionError",
    "VanishingCurve",
    "LinearCurve",
    "PowerLawCurve",
    "TableCurve",
    "TorsionReport",
    "val_p",
    "an_e2_exponent",
    "counting_lemma",
    "stable_torsion_bound",
    "im_j_lower",
    "integral_log_bound",
    "default_rank_model",
    "barratt_bound",
    "goodwillie_bound",
    "norm_torsion_order",
]


class TorsionError(ValueError):
    pass


def val_p(p: int, m: int) -> int:
    """p-adic valuation |m|_p: largest k with p^k | m."""
    if m < 1:
        raise TorsionError(f"valuation needs m >= 1, got {m}")
    if p < 2:
        raise TorsionError(f"p-adic valuation needs p >= 2, got {p}")
    if p == 2:
        return (m & -m).bit_length() - 1
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# vanishing curves
# ---------------------------------------------------------------------------


class VanishingCurve:
    """A model of the E-infinity vanishing curve g(n); 1 <= g(n) <= n and
    nondecreasing on the queried range; its JSON names its `model`."""

    __slots__ = ()

    def raw(self, n: int) -> int:
        raise NotImplementedError

    def __call__(self, n: int) -> int:
        g = self.raw(n)
        if not 1 <= g <= n:
            raise TorsionError(
                f"vanishing curve value g({n}) = {g} violates 1 <= g(n) <= n"
            )
        return g


class LinearCurve(VanishingCurve, Frozen):
    """g(n) = n, the unconditional (nilpotence-theorem) envelope."""

    __slots__ = ()
    model = "linear"
    _json = ("model",)

    def raw(self, n: int) -> int:
        return n


class PowerLawCurve(VanishingCurve, Frozen):
    """g(n) = ceil(c * n^e); exponent 1/2 with c = 1 models the conjectured
    square-root curve."""

    __slots__ = ("exponent", "coefficient")
    model = "power_law"
    _json = ("model", "exponent", "coefficient")

    def _check(self) -> None:
        if not 0 < self.exponent <= 1:
            raise TorsionError("power-law exponent must lie in (0, 1]")
        if self.coefficient <= 0:
            raise TorsionError("power-law coefficient must be positive")

    def raw(self, n: int) -> int:
        if self.exponent == 0.5 and self.coefficient == 1.0:
            return n if n <= 1 else isqrt(n - 1) + 1  # exact ceil(sqrt(n))
        return math.ceil(self.coefficient * n**self.exponent)


PowerLawCurve.__init__.__defaults__ = (1.0,)  # coefficient


class TableCurve(VanishingCurve, Frozen):
    __slots__ = ("values",)  # values[i] = g(i + 1)
    model = "table"
    _json = ("model", "length")

    @property
    def length(self) -> int:
        return len(self.values)

    def _check(self) -> None:
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise TorsionError("table curve must be nondecreasing")

    def raw(self, n: int) -> int:
        if not 1 <= n <= len(self.values):
            raise TorsionError(f"table curve has no entry for n = {n}")
        return self.values[n - 1]


class TorsionReport(Frozen):
    """curve is the `VanishingCurve` the bound was taken under."""

    __slots__ = ("p", "n", "exact_sum", "closed_form", "curve")

    def csv_rows(self):
        yield ("p", "n", "exact_sum", "closed_form", "curve")
        yield (str(self.p), str(self.n), str(self.exact_sum), repr(self.closed_form),
               self.curve.model)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


# ---------------------------------------------------------------------------
# stable bounds
# ---------------------------------------------------------------------------


def an_e2_exponent(p: int, u: int) -> int | None:
    """Torsion exponent bound for the weight-u column of the E2 page.

    p = 2: 1 for odd u, 2 + |u|_2 for even u.  Odd p: 0 unless (p-1) | u,
    else 1 + |u|_p.  u = 0 holds the non-torsion unit, so None is returned
    as the unbounded-by-this-formula sentinel.
    """
    if p < 2:
        raise TorsionError(f"p-adic valuation needs p >= 2, got {p}")
    if u == 0:
        return None
    u = abs(u)
    if p == 2:
        return 1 if u % 2 else 2 + val_p(2, u)
    if u % (p - 1):
        return 0
    return 1 + val_p(p, u)


def sum_val_p(p: int, b: int) -> int:
    """Sum of |i|_p over 1 <= i <= b (Legendre)."""
    if p < 2:
        raise TorsionError(f"p-adic valuation needs p >= 2, got {p}")
    total = 0
    power = p
    while power <= b:
        total += b // power
        power *= p
    return total


def counting_lemma(p: int, a: int, b: int) -> tuple[int, float]:
    """exact = sum_{i=a+1}^{b} (1 + |i|_p), together with the closed bound
    p/(p-1) * (b-a) + log_p(b); exact <= bound always."""
    if not 0 <= a < b:
        raise TorsionError(f"need 0 <= a < b, got a={a}, b={b}")
    exact = (b - a) + sum_val_p(p, b) - sum_val_p(p, a)
    bound = p / (p - 1) * (b - a) + math.log(b, p)
    return exact, bound


def stable_torsion_bound(p: int, n: int, curve: VanishingCurve) -> TorsionReport:
    """Torsion exponent bound for the degree-n stable stem.

    exact_sum amalgamates the per-column exponents 1 + |i|_p (plus 1 for
    even i at p = 2) over the window lo <= i <= hi of columns reachable
    below the vanishing curve.  By Legendre's identity the window sum is
    hi - lo + 1 + sum_val_p(p, hi) - sum_val_p(p, lo - 1), plus
    hi // 2 - (lo - 1) // 2 at p = 2, so it costs O(log n); g(n) >= 1 gives
    hi >= lo - 1, and the empty window sums to 0.  closed_form is
    (5/4)g(n) + log_2(n) + 2 at p = 2 and p/(2(p-1)^2) g(n) + log_p(n) + 1
    at odd p.  exact_sum <= closed_form.
    """
    _require_prime(p, TorsionError)
    if n < 1:
        raise TorsionError("degree must be >= 1")
    g = curve(n)
    span = 2 * p - 2
    below = n // span  # lo - 1
    hi = (n + g) // span
    exact = hi - below + sum_val_p(p, hi) - sum_val_p(p, below)
    slope, const = _closed_form_coefficients(p)
    if p == 2:
        exact += hi // 2 - below // 2
    try:
        log_n = math.log2(n) if p == 2 else math.log(n, p)
        closed = slope * g + log_n + const
    except OverflowError:
        closed = math.inf
    if not math.isfinite(closed):
        raise TorsionError(f"n = {n} is too large: the closed form exceeds the float range")
    return TorsionReport(p, n, exact, closed, curve)


def _closed_form_coefficients(p: int) -> tuple[float, int]:
    """(slope, const) of stable_torsion_bound's closed form
    slope * g(n) + log_p(n) + const."""
    return (1.25, 2) if p == 2 else (p / (2 * (p - 1) ** 2), 1)


def im_j_lower(p: int, n: int) -> int:
    """Image-of-J lower bound for the p-torsion exponent in degree n: in
    degrees n = -1 mod 2p-2 there is a cyclic summand of order p^(v_p(n+1)+1).

    Only stated at odd primes; p = 2 is rejected rather than approximated.
    """
    if p == 2:
        raise TorsionError(
            "the 2-primary image-of-J statement is more complicated and is "
            "not provided; use an odd prime"
        )
    _require_prime(p, TorsionError)
    if n < 1:
        raise TorsionError("degree must be >= 1")
    if (n + 1) % (2 * p - 2):
        return 0
    return val_p(p, n + 1) + 1


def default_rank_model(p: int, n: int) -> int:
    """Cumulative rank of the may_e1 (drop_q0) model through degree n; the
    default per-prime rank upper bound for the integral assembly."""
    return hilbert_cumulative(preset("may_e1", p, drop_q0=True), n)[n]


def integral_log_bound(
    n: int, rank_model: Callable[[int, int], int] | None = None
) -> float:
    """Upper bound for ln|pi_n| under the model: sum over primes p <= n of
    ln(p) * n * rank_model(p, n)."""
    if n < 1:
        raise TorsionError("degree must be >= 1")
    model = rank_model if rank_model is not None else default_rank_model
    total = 0.0
    for p in range(2, n + 1):
        if is_prime(p):
            total += math.log(p) * n * model(p, n)
    return total


# ---------------------------------------------------------------------------
# unstable bounds
# ---------------------------------------------------------------------------


def barratt_bound(
    s: int, m: int, n: int, p: int = 2, double_suspension: bool = False
) -> int:
    """Torsion exponent for pi_n of a suspension of an (s-1)-connected space
    whose suspension identity is p^m-torsion.

    Default: m*k with the least k such that n <= 2^k s.  If the space is
    itself a suspension: m + k with the least k >= 0 such that n <= p^(k+1) s.
    """
    if s < 1 or m < 1 or n < 1:
        raise TorsionError("need s >= 1, m >= 1, n >= 1")
    if double_suspension:
        if p < 2:
            raise TorsionError(f"double-suspension bound needs p >= 2, got {p}")
        k = 0
        while n > p ** (k + 1) * s:
            k += 1
        return m + k
    k = 0
    while n > (1 << k) * s:
        k += 1
    return m * k


def goodwillie_bound(s: int, m: int, n: int, p: int) -> tuple[int, float]:
    """Goodwillie-tower torsion bound for an s-connected space: exact =
    sum over k >= 1 with s*k < n of (m + |k|_p), and the linear envelope
    (m+1) * n / s; exact <= linear."""
    if s < 1:
        raise TorsionError("connectivity s must be >= 1")
    top = (n - 1) // s  # largest k with s*k < n
    if top < 1:
        exact = 0
    else:
        exact = m * top + sum_val_p(p, top)
    return exact, (m + 1) * n / s


def norm_torsion_order(p: int, m: int, n: int) -> int:
    """Torsion order of the n-th tensor power of a p^m-torsion map: m + |n|_p."""
    if n < 1:
        raise TorsionError("tensor power must be >= 1")
    return m + val_p(p, n)

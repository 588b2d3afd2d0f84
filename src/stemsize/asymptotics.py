"""Leading-order growth constants, finite-size ratio profiles, and the exact
bracketing inequalities that pin the cumulative-rank growth of the model
algebras between explicit products.

Everything that feeds an inequality here is exact integer arithmetic; floats
only appear in reported ratios and in the constants themselves.  Big-O error
terms are never asserted — profiles are emitted for inspection, inequalities
are checked exactly.
"""

from __future__ import annotations

import math

from ._frozen import Frozen
from .algebra import (
    AlgebraSpec,
    _require_prime,
    hilbert,
    hilbert_cumulative,
    tensor_bracket,
)
from .presets import max_over_h, preset
from .series import ResourceLimitError

__all__ = [
    "Constants",
    "constants",
    "RatioRow",
    "RatioProfile",
    "ratio_profile",
    "BracketCheck",
    "BracketReport",
    "bracketing_check",
    "BRACKET_MODELS",
    "ResourceLimitError",
    "DEFAULT_LOWER_CEILING",
]

BRACKET_MODELS = ("may_model", "r_h_e2", "r_h_einf")
DEFAULT_LOWER_CEILING = 1 << 21


class Constants(Frozen):
    """The three ln(n)^3 growth coefficients at the prime p.

    k1 is the lower-bound coefficient 2 / (75 ln(p)^2), k2 the conjectural
    (9 + 4*sqrt(2)) / (294 ln(p)^2) and k3 the upper-bound 1 / (6 ln(p)^2).
    """

    __slots__ = ("p", "k1", "k2", "k3")

    def csv_rows(self):
        yield ("p", "K1", "K2", "K3")
        yield (str(self.p), repr(self.k1), repr(self.k2), repr(self.k3))

    def to_json_obj(self) -> dict:
        return {"p": self.p, "K1": self.k1, "K2": self.k2, "K3": self.k3}


def constants(p: int) -> Constants:
    _require_prime(p)
    lp2 = math.log(p) ** 2
    return Constants(
        p=p,
        k1=2.0 / (75.0 * lp2),
        k2=(9.0 + 4.0 * math.sqrt(2.0)) / (294.0 * lp2),
        k3=1.0 / (6.0 * lp2),
    )


class RatioRow(Frozen):
    __slots__ = ("n", "log_rank", "log_n_pow", "ratio")


class RatioProfile(Frozen):
    __slots__ = ("p", "label", "exponent", "rows")

    def csv_rows(self):
        yield ("n", "log_rank", f"log_n_pow_{self.exponent}", "ratio")
        for r in self.rows:
            yield (str(r.n), repr(r.log_rank), repr(r.log_n_pow), repr(r.ratio))


RatioProfile.__init__.__defaults__ = ((),)  # rows


def ratio_profile(spec: AlgebraSpec, exponent: int, points: list[int]) -> RatioProfile:
    """ln(cumulative rank through n) against ln(n)^exponent at each point.

    The cumulative Hilbert series is computed once at max(points) and read
    off exactly; only the final logarithms are floating point.
    """
    if exponent not in (2, 3):
        raise ValueError("exponent must be 2 or 3")
    if not points:
        raise ValueError("at least one sample point is required")
    pts = sorted(set(points))
    if pts[0] < 2:
        raise ValueError("sample points must be >= 2")
    series = hilbert_cumulative(spec, pts[-1])
    rows = []
    for n in pts:
        log_rank = series.coeff_log(n)
        log_n_pow = math.log(n) ** exponent
        rows.append(RatioRow(n, log_rank, log_n_pow, log_rank / log_n_pow))
    return RatioProfile(
        p=spec.p, label=spec.label or "spec", exponent=exponent, rows=tuple(rows)
    )


class BracketCheck(Frozen):
    __slots__ = ("name", "ok", "detail")


class BracketReport(Frozen):
    __slots__ = ("p", "m", "model", "checks")
    _json = ("p", "m", "model", "ok", "checks")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def csv_rows(self):
        yield ("check", "ok", "detail")
        for c in self.checks:
            yield (c.name, str(c.ok), c.detail)


def _top(p: int, m: int, ceiling: int) -> int | None:
    """p^m - 1 if it is at most ceiling, else None; p >= 2, so p^m is never
    built past the ceiling's bit length (m = 24 ran out of a 2 GB space)."""
    if m <= ceiling.bit_length() and p**m - 1 <= ceiling:
        return p**m - 1
    return None


def _refusal(check: str, series: str, ceiling: int) -> ResourceLimitError:
    return ResourceLimitError(f"{check} needs the {series}, above the ceiling {ceiling}")


def _check_may_model(p: int, m: int, lower_ceiling: int | None) -> list[BracketCheck]:
    # Refuse before any series is built: a refused request should not pay
    # for it.  Without lower_ceiling the lower check is skipped above the
    # default ceiling; with it, the lower degree C(m, 2) * top must fit.
    ceiling = DEFAULT_LOWER_CEILING if lower_ceiling is None else lower_ceiling
    top = _top(p, m, ceiling)
    pairs = m * (m - 1) // 2
    if lower_ceiling is None:
        if top is None:
            raise _refusal("may_model upper check",
                           f"series through degree {p}^{m} - 1", ceiling)
    elif top is None or pairs * top > ceiling:
        raise _refusal("may_model lower check",
                       f"series through degree C({m}, 2) * ({p}^{m} - 1)", ceiling)
    lower_deg = pairs * top
    product = p ** sum((m - i) * i for i in range(1, m))
    # lower_deg >= top, so one fold serves both checks.
    skip_lower = lower_deg > ceiling
    cumrank = hilbert_cumulative(preset("may_model", p), top if skip_lower else lower_deg)
    if skip_lower:
        lower = (True, f"skipped: degree {lower_deg} exceeds ceiling {ceiling}")
    else:
        lower_rank = cumrank[lower_deg]
        lower = (lower_rank >= product, f"cumrank({lower_deg}) = {lower_rank} >= {product}")
    return [
        BracketCheck(
            "may_model_upper",
            cumrank[top] <= product,
            f"cumrank({top}) = {cumrank[top]} <= {product}",
        ),
        BracketCheck("may_model_lower", *lower),
    ]


def _check_r_h_einf(p: int, m: int, _lower_ceiling: int | None) -> list[BracketCheck]:
    top = _top(p, m, DEFAULT_LOWER_CEILING)
    if top is None:
        raise _refusal("r_h_einf check", f"series through degree {p}^{m} - 1",
                       DEFAULT_LOWER_CEILING)
    best = max_over_h("r_h_einf", p, top)
    # ln c <= ln p (2m^3/75 + m^2), decided in integers; floats are reported
    c = best.series[top]
    lnp = math.log(p)
    bound = (2.0 * lnp / 75.0) * m**3 + lnp * m**2
    value = best.series.coeff_log(top)
    return [
        BracketCheck(
            "r_h_einf_final",
            c**75 <= p ** (2 * m**3 + 75 * m**2),
            f"ln cumrank({top}) = {value:.6f} <= {bound:.6f} "
            f"(margin {bound - value:.6f}, argmax h = {best.argmax[top]})",
        )
    ]


def _check_r_h_e2(p: int, m: int, _lower_ceiling: int | None) -> list[BracketCheck]:
    # Tensor decomposition S^h x ... x S^{2h-1} of the rank-h model.  The
    # joint fold of the h factors runs through h * top: refuse it above the
    # ceiling before any preset is built.
    h = m // 2
    top = _top(p, m, 1 << 14) or 1 << 14
    if h * top > DEFAULT_LOWER_CEILING:
        raise _refusal("r_h_e2 check", f"tensor series through degree {h} * {top}",
                       DEFAULT_LOWER_CEILING)
    factors = [preset("s_k", p, k=k) for k in range(h, 2 * h)]
    bracket = tensor_bracket(factors, [top] * len(factors))
    prod_series = hilbert(factors[0], top)
    for f in factors[1:]:
        prod_series = prod_series.mul(hilbert(f, top))
    return [
        BracketCheck(
            "r_h_e2_tensor_bracket",
            bracket.ok,
            f"h = {h}: lower {bracket.lower}, middle {bracket.middle} <= "
            f"upper {bracket.upper}",
        ),
        BracketCheck(
            "r_h_e2_factorisation",
            hilbert(preset("r_h_e2", p, h=h), top) == prod_series,
            f"hilbert(r_h_e2, h={h}) == prod hilbert(s_k), N = {top}",
        ),
    ]


_CHECKS = {
    "may_model": _check_may_model,
    "r_h_e2": _check_r_h_e2,
    "r_h_einf": _check_r_h_einf,
}


def bracketing_check(
    p: int,
    m: int,
    model: str,
    *,
    lower_ceiling: int | None = None,
) -> BracketReport:
    """Exact sandwich inequalities at scale m for one model algebra.

    It checks m >= 2, then the model name, then that p is prime, then that
    lower_ceiling, if given, is not negative, and only then runs the model's
    check.

    may_model: cumulative rank through p^m - 1 is at most
    prod_{i<m} p^{(m-i)i}, and the rank through C(m,2)(p^m - 1) is at least
    that product.  Without lower_ceiling the lower check is skipped when
    its truncation exceeds DEFAULT_LOWER_CEILING; given one, it is computed
    up to that truncation and raises ResourceLimitError above it.

    r_h_einf: ln of the best-over-h cumulative rank c at p^m - 1 is at most
    (2 ln p / 75) m^3 + (ln p) m^2, decided as c^75 <= p^(2m^3 + 75m^2).

    p^m - 1 above DEFAULT_LOWER_CEILING raises ResourceLimitError, for
    may_model without lower_ceiling and for r_h_einf.

    r_h_e2: the tensor bracketing for S^h x ... x S^{2h-1} with h = m // 2,
    plus the factorisation of the rank-h Hilbert series into the S^k ones,
    each truncated at top = min(p^m - 1, 2^14).  A joint degree h * top above
    DEFAULT_LOWER_CEILING raises ResourceLimitError (m >= 258 at p = 2).
    """
    if m < 2:
        raise ValueError("scale parameter m must be >= 2")
    check = _CHECKS.get(model)
    if check is None:
        raise ValueError(f"unknown bracketing model {model!r}; "
                         f"expected one of {BRACKET_MODELS}")
    _require_prime(p)
    if lower_ceiling is not None and lower_ceiling < 0:
        raise ValueError(f"lower ceiling must be >= 0, got {lower_ceiling}")
    return BracketReport(p=p, m=m, model=model, checks=tuple(check(p, m, lower_ceiling)))

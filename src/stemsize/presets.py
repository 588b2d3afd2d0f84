"""Catalog of the named graded algebras used throughout the growth bounds.

Every preset is produced as DSL text and run through the parser, so each one
can be exported verbatim via the canonical printer.  Degrees are topological
(t - s) throughout.

Conventions imported from the standard literature (the source names the
generators without degrees): odd-p dual Steenrod degrees |xi_n| = 2(p^n - 1),
|tau_n| = 2p^n - 1, and |v_k| = 2p^k - 2.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

from ._frozen import Frozen, set_field
from .algebra import AlgebraSpec, _lattice_fold, is_prime, parse_spec
from .series import TruncatedSeries

__all__ = ["PRESET_NAMES", "PresetError", "preset", "max_over_h", "MaxOverH"]

PRESET_NAMES = (
    "may_e1",
    "may_model",
    "dual_steenrod",
    "s_k",
    "r_h_e2",
    "r_h_einf",
    "y_h_lifted",
    "mrs_e2_model",
    "yn_conj",
    "q_poly",
)


class PresetError(ValueError):
    """Unknown preset or out-of-range parameter."""


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise PresetError(f"p = {p} is not prime")


def _require_h(h: int | None, name: str) -> int:
    if h is None or h < 1:
        raise PresetError(f"preset {name!r} needs a parameter h >= 1")
    return h


def preset(
    name: str,
    p: int,
    *,
    h: int | None = None,
    k: int | None = None,
    drop_q0: bool = False,
    simplify_odd: bool = False,
) -> AlgebraSpec:
    """Build the named catalog algebra at prime p."""
    _require_prime(p)
    if name == "may_e1":
        text = _may_e1_text(p, drop_q0, simplify_odd)
    elif name == "may_model":
        text = f"p = {p}\ngen poly deg = p^n mult = n for n = 1..inf\n"
    elif name == "dual_steenrod":
        if p == 2:
            text = "p = 2\ngen poly deg = 2^n - 1 for n = 1..inf\n"
        else:
            text = (
                f"p = {p}\n"
                "gen poly deg = 2*p^n - 2 for n = 1..inf\n"
                "gen ext deg = 2*p^n - 1 for n = 0..inf\n"
            )
    elif name == "s_k":
        if k is None or k < 0:
            raise PresetError("preset 's_k' needs a parameter k >= 0")
        text = f"p = {p}\ngen poly deg = p^n for n = {k}..inf\n"
    elif name == "r_h_e2":
        h = _require_h(h, name)
        text = (
            f"p = {p}\n"
            f"gen poly deg = p^n mult = min({h}, n - {h} + 1) for n = {h}..inf\n"
        )
    elif name == "r_h_einf":
        h = _require_h(h, name)
        text = f"p = {p}\ngen poly deg = p^({h} + k) mult = k for k = 1..{h - 1}\n"
    elif name == "y_h_lifted":
        h = _require_h(h, name)
        text = (
            f"p = {p}\n"
            f"gen poly deg = 12*p^(1 + i + j) - 10*p^(1 + i - {h} + j)"
            f" - 2*p^(1 + j) - 2 for i = {h + 1}..inf, j = 0..{h - 1}\n"
        )
    elif name == "mrs_e2_model":
        h = _require_h(h, name)
        # The inverted class q_h itself is omitted: with it every topological
        # degree has infinite rank; counts are relative to the localized tower.
        lines = [f"p = {p}", f"gen poly deg = 2*p^k - 2 for k = {h + 1}..{2 * h}"]
        hij = f"2*p^(i + j) - 2*p^j - 1 for i = {h + 1}..inf, j = 0..{h - 1}"
        if p == 2:
            lines.append(f"gen poly deg = {hij}")
        else:
            lines.append(f"gen ext deg = {hij}")
            lines.append(
                "gen poly deg = 2*p^(1 + i + j) - 2*p^(j + 1) - 2"
                f" for i = {h + 1}..inf, j = 0..{h - 1}"
            )
        text = "\n".join(lines) + "\n"
    elif name == "yn_conj":
        h = _require_h(h, name)
        # The companion family runs j = 1..h-1 (binom(h,2) generators total),
        # matching r_h_einf.
        text = (
            f"p = {p}\n"
            f"gen poly deg = 2*p^({h} + i) - 2 for i = 0..{h}\n"
            f"gen poly deg = 12*p^({h} + 1 + j) mult = j for j = 1..{h - 1}\n"
        )
    elif name == "q_poly":
        if not drop_q0:
            raise PresetError(
                "q_poly contains q_0 in degree 0, which has no Hilbert factor; "
                "pass drop_q0=True"
            )
        text = f"p = {p}\ngen poly deg = 2*p^i - 2 for i = 1..inf\n"
    else:
        raise PresetError(f"unknown preset {name!r}")
    spec = parse_spec(text)
    flags = []
    if drop_q0:
        flags.append("drop_q0")
    if simplify_odd:
        flags.append("simplify_odd")
    label = f"{name}(p={p}" + (f", h={h}" if h is not None else "") + (
        f", k={k}" if k is not None else ""
    ) + ("".join(", " + f for f in flags)) + ")"
    return AlgebraSpec(spec.p, spec.families, label)


def _may_e1_text(p: int, drop_q0: bool, simplify_odd: bool) -> str:
    if p == 2:
        if not drop_q0:
            raise PresetError(
                "may_e1 at p=2 contains h_{1,0} in degree 2^1 - 2^0 - 1 = 0, "
                "which has no Hilbert factor; pass drop_q0=True"
            )
        # h_{i,j} in degree 2^(i+j) - 2^j - 1, without the (1,0) entry:
        # split into the j = 0 row (i >= 2) and the j >= 1 block.
        return (
            "p = 2\n"
            "gen poly deg = 2^i - 2 for i = 2..inf\n"
            "gen poly deg = 2^(i + j) - 2^j - 1 for i = 1..inf, j = 1..inf\n"
        )
    if not drop_q0:
        raise PresetError(
            "may_e1 at odd p contains q_0 in degree 2p^0 - 2 = 0, which has "
            "no Hilbert factor; pass drop_q0=True"
        )
    lines = [f"p = {p}", "gen poly deg = 2*p^i - 2 for i = 1..inf"]
    if simplify_odd:
        # Each pair (exterior h_{i,j}, polynomial b_{i,j}) is replaced by one
        # polynomial generator in the degree of h_{i,j}; the cumulative rank
        # only grows.
        lines.append(
            "gen poly deg = 2*p^(i + j) - 2*p^j - 1 for i = 1..inf, j = 0..inf"
        )
    else:
        lines.append(
            "gen ext deg = 2*p^(i + j) - 2*p^j - 1 for i = 1..inf, j = 0..inf"
        )
        lines.append(
            "gen poly deg = 2*p^(i + j + 1) - 2*p^(j + 1) - 2"
            " for i = 1..inf, j = 0..inf"
        )
    return "\n".join(lines) + "\n"


class MaxOverH(Frozen):
    __slots__ = ("series", "argmax")

    def __init__(self, series: TruncatedSeries, argmax: tuple[int, ...]) -> None:
        set_field(self, "series", series)
        set_field(self, "argmax", argmax)


def max_over_h(family: str, p: int, trunc: int) -> MaxOverH:
    """Per-degree max of cumulative ranks of R^h over 1 <= h <= ceil(log_p N)+1,
    with the smallest maximizing h per degree.

    A cumulative rank is constant from one nonzero coefficient of its
    lattice fold to the next.  `best`, a max of nondecreasing ranks, is
    nondecreasing, so where it lies below such a run's value is a prefix of
    the run, found by bisection."""
    if family not in ("r_h_e2", "r_h_einf"):
        raise PresetError(f"max_over_h expects r_h_e2 or r_h_einf, got {family!r}")
    _require_prime(p)
    h_top = _ceil_log(p, trunc) + 1
    best: list[int] = [0] * (trunc + 1)
    argmax: list[int] = [1] * (trunc + 1)
    for h in range(1, h_top + 1):
        lattice, g = _lattice_fold(preset(family, p, h=h), trunc)
        starts = [j * g for j in compress(range(len(lattice)), lattice)]
        value = 0
        for start, stop, v in zip(starts, starts[1:] + [trunc + 1], filter(None, lattice)):
            value += v
            end = bisect_left(best, value, start, stop)
            if end > start:
                best[start:end] = [value] * (end - start)
                argmax[start:end] = [h] * (end - start)
    return MaxOverH(TruncatedSeries._of(best), tuple(argmax))


def _ceil_log(p: int, n: int) -> int:
    e = 0
    power = 1
    while power < n:
        power *= p
        e += 1
    return e

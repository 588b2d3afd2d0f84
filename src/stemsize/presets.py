"""Catalog of the named graded algebras used throughout the growth bounds.

Every preset is produced as DSL text and run through the parser, so each one
can be exported verbatim via the canonical printer.  One path serves every
name: `preset` checks its arguments, `_lines` writes the preset's generator
lines, and the text, with its `p = <p>` header, is parsed once per process
(`_parse` caches by text).  Degrees are topological (t - s) throughout.

Conventions imported from the standard literature (the source names the
generators without degrees): odd-p dual Steenrod degrees |xi_n| = 2(p^n - 1),
|tau_n| = 2p^n - 1, and |v_k| = 2p^k - 2.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import compress

from ._frozen import Frozen
from .algebra import AlgebraSpec, _lattice_fold, _require_prime, parse_spec
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

_H_FAMILIES = ("r_h_e2", "r_h_einf", "y_h_lifted", "mrs_e2_model", "yn_conj")

_Q0_POLY = ("q_poly contains q_0 in degree 0, which has no Hilbert factor; "
            "pass drop_q0=True")
# The presets with a generator in degree 0, keyed by (name, p == 2): they
# need drop_q0=True.
_DEGREE_ZERO = {
    ("may_e1", True): "may_e1 at p=2 contains h_{1,0} in degree 2^1 - 2^0 - 1 = 0, "
                      "which has no Hilbert factor; pass drop_q0=True",
    ("may_e1", False): "may_e1 at odd p contains q_0 in degree 2p^0 - 2 = 0, which has "
                       "no Hilbert factor; pass drop_q0=True",
    ("q_poly", True): _Q0_POLY,
    ("q_poly", False): _Q0_POLY,
}


class PresetError(ValueError):
    """Unknown preset or out-of-range parameter."""


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
    _require_prime(p, PresetError)
    if name not in PRESET_NAMES:
        raise PresetError(f"unknown preset {name!r}")
    refusal = _DEGREE_ZERO.get((name, p == 2))
    if refusal and not drop_q0:
        raise PresetError(refusal)
    if name in _H_FAMILIES and (h is None or h < 1):
        raise PresetError(f"preset {name!r} needs a parameter h >= 1")
    if name == "s_k" and (k is None or k < 0):
        raise PresetError("preset 's_k' needs a parameter k >= 0")
    fields = compress((f"p={p}", f"h={h}", f"k={k}", "drop_q0", "simplify_odd"),
                      (True, h is not None, k is not None, drop_q0, simplify_odd))
    label = f"{name}({', '.join(fields)})"
    text = "\n".join([f"p = {p}", *_lines(name, p, h, k, simplify_odd)]) + "\n"
    return AlgebraSpec(p, _parse(text).families, label)


@lru_cache(maxsize=256)
def _parse(text: str) -> AlgebraSpec:
    # Keyed by the whole text, header included; the families are immutable,
    # so every spec built from one text shares them.
    return parse_spec(text)


def _lines(name: str, p: int, h: int | None, k: int | None, simplify_odd: bool) -> list[str]:
    """The generator lines of the named preset's DSL text at prime p."""
    if name == "may_e1":
        if p == 2:
            # h_{i,j} in degree 2^(i+j) - 2^j - 1, without the (1,0) entry:
            # split into the j = 0 row (i >= 2) and the j >= 1 block.
            return ["gen poly deg = 2^i - 2 for i = 2..inf",
                    "gen poly deg = 2^(i + j) - 2^j - 1 for i = 1..inf, j = 1..inf"]
        hij = "deg = 2*p^(i + j) - 2*p^j - 1 for i = 1..inf, j = 0..inf"
        if simplify_odd:
            # Each pair (exterior h_{i,j}, polynomial b_{i,j}) is replaced by
            # one polynomial generator in the degree of h_{i,j}; the
            # cumulative rank only grows.
            return ["gen poly deg = 2*p^i - 2 for i = 1..inf", f"gen poly {hij}"]
        return ["gen poly deg = 2*p^i - 2 for i = 1..inf", f"gen ext {hij}",
                "gen poly deg = 2*p^(i + j + 1) - 2*p^(j + 1) - 2 for i = 1..inf, j = 0..inf"]
    if name == "may_model":
        return ["gen poly deg = p^n mult = n for n = 1..inf"]
    if name == "dual_steenrod":
        if p == 2:
            return ["gen poly deg = 2^n - 1 for n = 1..inf"]
        return ["gen poly deg = 2*p^n - 2 for n = 1..inf",
                "gen ext deg = 2*p^n - 1 for n = 0..inf"]
    if name == "q_poly":
        return ["gen poly deg = 2*p^i - 2 for i = 1..inf"]
    if name == "s_k":
        return [f"gen poly deg = p^n for n = {k}..inf"]
    if name == "r_h_e2":
        return [f"gen poly deg = p^n mult = min({h}, n - {h} + 1) for n = {h}..inf"]
    if name == "r_h_einf":
        return [f"gen poly deg = p^({h} + k) mult = k for k = 1..{h - 1}"]
    ij = f"for i = {h + 1}..inf, j = 0..{h - 1}"
    if name == "y_h_lifted":
        return [f"gen poly deg = 12*p^(1 + i + j) - 10*p^(1 + i - {h} + j)"
                f" - 2*p^(1 + j) - 2 {ij}"]
    if name == "mrs_e2_model":
        # The inverted class q_h itself is omitted: with it every topological
        # degree has infinite rank; counts are relative to the localized tower.
        hij = f"deg = 2*p^(i + j) - 2*p^j - 1 {ij}"
        lines = [f"gen poly deg = 2*p^k - 2 for k = {h + 1}..{2 * h}"]
        if p == 2:
            return [*lines, f"gen poly {hij}"]
        return [*lines, f"gen ext {hij}",
                f"gen poly deg = 2*p^(1 + i + j) - 2*p^(j + 1) - 2 {ij}"]
    # yn_conj: the companion family runs j = 1..h-1 (binom(h,2) generators
    # total), matching r_h_einf.
    return [f"gen poly deg = 2*p^({h} + i) - 2 for i = 0..{h}",
            f"gen poly deg = 12*p^({h} + 1 + j) mult = j for j = 1..{h - 1}"]


class MaxOverH(Frozen):
    __slots__ = ("series", "argmax")


def max_over_h(family: str, p: int, trunc: int) -> MaxOverH:
    """Per-degree max of cumulative ranks of R^h over 1 <= h <= ceil(log_p N)+1,
    with the smallest maximizing h per degree.

    A cumulative rank is constant from one nonzero coefficient of its
    lattice fold to the next.  `best`, a max of nondecreasing ranks, is
    nondecreasing, so where it lies below such a run's value is a prefix of
    the run, found by bisection."""
    if family not in ("r_h_e2", "r_h_einf"):
        raise PresetError(f"max_over_h expects r_h_e2 or r_h_einf, got {family!r}")
    _require_prime(p, PresetError)
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

"""Graded-algebra specifications and the exact Hilbert-series engine.

An `AlgebraSpec` describes a free graded-commutative algebra over F_p as a
list of generator families (polynomial / exterior / truncated species, a
degree expression, an optional multiplicity expression, and index ranges).
`hilbert` starts from the product of the nilpotent (exterior and truncated)
generators, built in one Python int with a 64-bit slot per coefficient:
while the product B of their nilpotence orders stays below 2^64, no
coefficient, being at most B, carries into the next slot.  It then folds the
other single-generator Hilbert factors, largest degree first, on the lattice
of multiples of the gcd of the degrees folded so far.  Two exact oracles
check it and share nothing with the fold past `instantiate`:
`oracle_hilbert` recounts monomials by brute-force multiset enumeration, the
definition of the series, up to truncation 60; `_log_derivative_hilbert`
solves Euler's log-derivative recurrence in O(N^2) exact products, so it
reaches production truncations.
"""

from __future__ import annotations

import math
import struct
import typing
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from ._frozen import Frozen, set_field
from .dsl import (
    DegreeExpr,
    DslError,
    Lit,
    Tokenizer,
    eval_expr,
    expr_free_vars,
    expr_to_text,
    parse_expr,
)
from .series import (
    EXTERIOR,
    POLYNOMIAL,
    GeneratorKind,
    TruncatedSeries,
    _fold,
    _spread,
    factor_series,
)

__all__ = [
    "AlgebraError",
    "AlgebraSpec",
    "GeneratorFamily",
    "GeneratorKind",
    "Generator",
    "TensorBracket",
    "parse_spec",
    "spec_to_text",
    "instantiate",
    "hilbert",
    "hilbert_cumulative",
    "oracle_hilbert",
    "tensor_bracket",
    "is_prime",
]

ORACLE_MAX_TRUNC = 60

# Iteration budget per unbounded index variable before the
# eventually-increasing validation gives up on a family.
_WALK_BUDGET_FLOOR = 64
_INCREASE_STREAK = 3

# The fixed cost of packing nilpotent generators in `hilbert`, in list
# coefficient additions: about 10 us, on a 2-vCPU VM with Python 3.11.
_PACK_OVERHEAD = 300


class AlgebraError(ValueError):
    """Invalid algebra specification or instantiation failure."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


_ONE = Lit(1)


class GeneratorFamily(Frozen):
    """An indexed family of generators of one species.

    `ranges` lists (name, lower, upper) with upper None for unbounded.  The
    degree expression must evaluate to a positive integer on every admissible
    index tuple and, for unbounded indices, be eventually strictly increasing
    so that only finitely many generators land below any truncation.

    `instantiate` walks the ranges in order.  Bounded ranges are walked in
    full.  An unbounded index stops once the least degree over the ranges
    after it exceeds the truncation and has risen `_INCREASE_STREAK` times in
    a row; if that has not happened within max(`_WALK_BUDGET_FLOOR`,
    4 * truncation) values, the family is rejected with `AlgebraError`.
    """

    __slots__ = ("kind", "degree", "multiplicity", "ranges")

    def __init__(
        self,
        kind: GeneratorKind,
        degree: DegreeExpr,
        multiplicity: DegreeExpr = _ONE,
        ranges: tuple[tuple[str, int, int | None], ...] = (),
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "degree", degree)
        set_field(self, "multiplicity", multiplicity)
        set_field(self, "ranges", ranges)
        names = [name for name, _, _ in ranges]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate index variable in family ranges {names}")
        unknown = self.free_vars() - set(names) - {"p"}
        if unknown:
            raise AlgebraError(f"unknown identifier {sorted(unknown)[0]!r}")

    def free_vars(self) -> frozenset[str]:
        return expr_free_vars(self.degree) | expr_free_vars(self.multiplicity)


class AlgebraSpec(Frozen):
    __slots__ = ("p", "families", "label")

    def __init__(
        self, p: int, families: tuple[GeneratorFamily, ...], label: str = ""
    ) -> None:
        if not is_prime(p):
            raise AlgebraError(f"p = {p} is not prime")
        set_field(self, "p", p)
        set_field(self, "families", families)
        set_field(self, "label", label)


class Generator(NamedTuple):
    kind: GeneratorKind
    degree: int
    multiplicity: int


class TensorBracket(NamedTuple):
    lower: int
    middle: int
    upper: int
    ok: bool


# ---------------------------------------------------------------------------
# parsing / printing
# ---------------------------------------------------------------------------


def parse_spec(text: str) -> AlgebraSpec:
    """Parse DSL text (see `stemsize.dsl` for the grammar).  Expressions
    nested beyond the interpreter's recursion limit raise DslError too."""
    try:
        return _parse_spec(text)
    except RecursionError:
        raise DslError("degree expression too deeply nested or too long") from None


def _parse_spec(text: str) -> AlgebraSpec:
    lines = text.splitlines()
    p = None
    families: list[GeneratorFamily] = []
    for no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        tok = Tokenizer(raw, no)
        if p is None:
            if tok.expect("ident") != "p":
                raise DslError("spec must start with 'p = <prime>'", no, 1)
            tok.expect("=")
            p = int(tok.expect("int"))
            if tok.peek()[0] != "eof":
                raise tok.error("trailing input after prime declaration")
            if not is_prime(p):
                raise DslError(f"p = {p} is not prime", no, 1)
            continue
        try:
            families.append(_parse_gen_line(tok))
        except AlgebraError as exc:
            raise DslError(str(exc), no) from None
    if p is None:
        raise DslError("empty spec: missing 'p = <prime>' line")
    return AlgebraSpec(p, tuple(families))


def _parse_gen_line(tok: Tokenizer) -> GeneratorFamily:
    word = tok.expect("ident")
    if word != "gen":
        raise DslError(f"expected 'gen', found {word!r}", tok.line_no, 1)
    kind_col = tok.peek()[2] + 1
    kind_word = tok.expect("ident")
    if kind_word == "poly":
        kind = POLYNOMIAL
    elif kind_word == "ext":
        kind = EXTERIOR
    elif kind_word == "trunc":
        tok.expect("(")
        k_col = tok.peek()[2] + 1
        k = int(tok.expect("int"))
        tok.expect(")")
        if k < 2:
            raise DslError(f"truncation order {k} < 2", tok.line_no, k_col)
        kind = GeneratorKind.truncated(k)
    else:
        raise DslError(f"unknown generator kind {kind_word!r}", tok.line_no, kind_col)
    if tok.expect("ident") != "deg":
        raise tok.error("expected 'deg'")
    tok.expect("=")
    degree = parse_expr(tok)
    mult: DegreeExpr = _ONE
    ranges: list[tuple[str, int, int | None]] = []
    kind_tok, value, _ = tok.peek()
    if kind_tok == "ident" and value == "mult":
        tok.next()
        tok.expect("=")
        mult = parse_expr(tok)
        kind_tok, value, _ = tok.peek()
    if kind_tok == "ident" and value == "for":
        tok.next()
        while True:
            name = tok.expect("ident")
            tok.expect("=")
            lo = int(tok.expect("int"))
            tok.expect("..")
            kind_tok, value, _ = tok.next()
            if kind_tok == "int":
                hi: int | None = int(value)
            elif kind_tok == "ident" and value == "inf":
                hi = None
            else:
                raise tok.error("expected integer or 'inf' as range upper bound")
            ranges.append((name, lo, hi))
            if tok.peek()[0] != ",":
                break
            tok.next()
    if tok.peek()[0] != "eof":
        raise tok.error("trailing input on generator line")
    return GeneratorFamily(kind, degree, mult, tuple(ranges))


def spec_to_text(spec: AlgebraSpec) -> str:
    """Canonical printer; `parse_spec(spec_to_text(s))` reproduces `s`."""
    lines = [f"p = {spec.p}"]
    for fam in spec.families:
        parts = [f"gen {fam.kind} deg = {expr_to_text(fam.degree)}"]
        if fam.multiplicity != _ONE:
            parts.append(f"mult = {expr_to_text(fam.multiplicity)}")
        if fam.ranges:
            rendered = ", ".join(
                f"{name} = {lo}..{'inf' if hi is None else hi}"
                for name, lo, hi in fam.ranges
            )
            parts.append(f"for {rendered}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------


def instantiate(spec: AlgebraSpec, trunc: int) -> list[Generator]:
    """All generators of degree <= trunc, each once, in deterministic order
    (degree, then family position, then index tuple).  A family whose ranges
    or expressions nest beyond the interpreter's recursion limit raises
    AlgebraError."""
    if trunc < 0:
        raise AlgebraError("truncation must be nonnegative")
    out: list[tuple[int, int, tuple[int, ...], Generator]] = []
    for fam_idx, fam in enumerate(spec.families):
        try:
            for indices, deg, mult in _family_generators(spec, fam, trunc):
                out.append((deg, fam_idx, indices, Generator(fam.kind, deg, mult)))
        except RecursionError:
            raise AlgebraError(
                f"family {fam_idx + 1}: index ranges or degree expression "
                f"nested too deeply"
            ) from None
    out.sort(key=lambda row: row[:3])
    return [row[3] for row in out]


def _family_label(fam: GeneratorFamily) -> str:
    return f"gen {fam.kind} deg = {expr_to_text(fam.degree)}"


_Row = tuple[tuple[int, ...], int, int]  # (index tuple, degree, multiplicity)


def _family_generators(spec: AlgebraSpec, fam: GeneratorFamily, trunc: int) -> Iterator[_Row]:
    env = {"p": spec.p}
    budget = max(_WALK_BUDGET_FLOOR, 4 * trunc)

    def walk(level: int, indices: tuple[int, ...]) -> typing.Generator[_Row, None, int | None]:
        """Yield the generators of degree <= trunc below `level` and return the
        least degree evaluated there, None for an empty subtree.

        Bounded indices are walked in full.  An unbounded index stops once the
        least degree of its subtree exceeds trunc and has risen
        `_INCREASE_STREAK` times in a row; it fails after `budget` values.
        """
        if level == len(fam.ranges):
            deg = eval_expr(fam.degree, env)
            if deg < 1:
                raise AlgebraError(
                    f"{_family_label(fam)}: degree {deg} at indices {indices} is not positive"
                )
            mult = eval_expr(fam.multiplicity, env)
            if mult < 0:
                raise AlgebraError(
                    f"{_family_label(fam)}: negative multiplicity at indices {indices}"
                )
            if deg <= trunc and mult > 0:
                yield indices, deg, mult
            return deg
        name, lo, hi = fam.ranges[level]
        least = prev = None
        streak = 0
        v = lo
        while hi is None or v <= hi:
            if hi is None and v - lo > budget:
                raise AlgebraError(
                    f"{_family_label(fam)}: index {name!r} is not eventually "
                    f"increasing within the window [1, {trunc}]"
                )
            env[name] = v
            floor = yield from walk(level + 1, indices + (v,))
            if floor is None:
                return None  # an empty bounded range below: no generators at all
            least = floor if least is None else min(least, floor)
            streak = streak + 1 if prev is not None and floor > prev else 0
            if hi is None and floor > trunc and streak >= _INCREASE_STREAK:
                break
            prev = floor
            v += 1
        return least

    yield from walk(0, ())


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


def hilbert(spec: AlgebraSpec, trunc: int) -> TruncatedSeries:
    """Monomial counts per degree of the free graded algebra on the
    instantiated generators.

    Where it pays, the nilpotent generators (exterior and truncated(k))
    come first, packed (see `_nilpotent_product`): their product E is built
    on the lattice of multiples of g, the gcd of their degrees, in one
    Python int with a 64-bit slot per coefficient, and unpacked into the
    working list.  Folds commute, so the remaining generators, every
    polynomial one and any nilpotent one past the packing cap, then fold
    into E as into the series 1.

    The others are folded from the largest degree down.  While g divides
    every degree folded so far, the series is supported on the multiples of
    g and is kept as a series in t^g with trunc // g + 1 coefficients; a
    generator of degree d folds in as one of degree d // g.  When a degree
    lowers the gcd, the series is spread onto the finer lattice.  Degrees
    that form a divisibility chain (the p-power presets) therefore fold each
    generator on trunc // d + 1 coefficients.  A generator of multiplicity
    m folds in m unit passes, or, when m is large next to the trunc // d + 1
    lattice coefficients of its factor, in one `mul` by the exact factor
    F^m from `factor_series`.

    The coefficients live in one working list: each unit pass runs the
    in-place kernel `series._fold` on it, so no pass copies the series.  A
    gcd drop, at most log2 of the largest degree times per call, spreads
    the coefficients onto a new list of the finer lattice, built once at
    its exact length.  Only the finished list is frozen into the returned
    series, which shares no storage with any other call's.
    """
    gens = instantiate(spec, trunc)
    g, out, gens = _nilpotent_product(gens, trunc)
    for kind, deg, mult in reversed(gens):
        step = g // math.gcd(g, deg)
        if step > 1:
            g //= step
            out = _spread(out, step, trunc // g)
        n, d = trunc // g, deg // g
        # mult unit folds cost mult * (n + 1) coefficient additions.  The
        # product with F^mult, the left operand so that `mul` skips its zero
        # coefficients, costs about (n // d + 1) * (n + 1) / 2 multiply-adds
        # in an interpreted loop, each worth about four additions: it wins
        # once mult exceeds twice n // d + 1.
        if mult > 2 * (n // d + 1):
            power = factor_series(kind, d, n, mult)
            out[:] = power.mul(TruncatedSeries._of(out))
        else:
            for _ in range(mult):
                _fold(out, kind, d)
    return TruncatedSeries._of(_spread(out, g, trunc))


def _nilpotent_product(
    gens: list[Generator], trunc: int
) -> tuple[int, list[int], list[Generator]]:
    """(g, E, rest): the product E of the nilpotent generators that
    `_packing` picks, as trunc // g + 1 coefficients on the multiples of g,
    the gcd of their degrees, and the generators left to fold.  With none
    picked, E is the series 1 on the lattice of the largest degree and
    every generator is left.

    E is built in one int with a 64-bit slot per lattice coefficient.  A
    coefficient of a partial product of the picked factors is at most its
    value at t = 1, at most B < 2^64 (see `_packing`), so no slot ever
    carries into the next, and masking to n + 1 slots is exact truncation.
    A copy of a truncated(k') generator in degree d multiplies by
    Q_k' = 1 + t^d + ... + t^((k'-1)d) in at most 10 shifted additions, by
    the binary digits of k': Q_2j = Q_j + t^(jd) Q_j and
    Q_(j+1) = 1 + t^d Q_j.  Each costs about a tenth of a list pass, and
    one C call unpacks the slots.
    """
    chosen = _packing(gens, trunc)
    if not chosen:
        g = gens[-1].degree if gens else 1
        return g, [1] + [0] * (trunc // g), gens
    g = math.gcd(*(gens[i].degree for i in chosen))
    n = trunc // g
    mask = (1 << 64 * (n + 1)) - 1
    x = 1
    for i, k in chosen.items():
        s = 64 * (gens[i].degree // g)
        for _ in range(gens[i].multiplicity):
            y, j = x, 1
            for bit in bin(k)[3:]:
                y = (y + (y << j * s)) & mask
                j *= 2
                if bit == "1":
                    y = (x + (y << s)) & mask
                    j += 1
            x = y
    out = list(struct.unpack(f"<{n + 1}Q", x.to_bytes(8 * (n + 1), "little")))
    return g, out, [gen for i, gen in enumerate(gens) if i not in chosen]


def _packing(gens: list[Generator], trunc: int) -> dict[int, int]:
    """The nilpotent generators worth packing, as {index into gens: k'}.

    Below degree trunc a truncated(k) factor in degree d (exterior: k = 2)
    is a truncated(k') one, k' = min(k, trunc // d + 1).  In `instantiate`
    order, a generator with k' <= 64 is taken if B, the product of k'^m
    over those taken (m the multiplicity), stays below 2^64.

    The generators left then fold from the lattice of g, the gcd of the
    degrees taken, which can be finer than the one they would fold on
    without packing (a chain of polynomial degrees with one exterior
    generator in degree 3).  So the generators are returned only when the
    coefficient additions of the unit passes packing saves exceed those it
    adds by _PACK_OVERHEAD.
    """
    copies = sum(gen.multiplicity for gen in gens if gen.kind.name != "poly")
    if copies * (trunc + 1) <= _PACK_OVERHEAD:  # at least `saved`
        return {}
    chosen: dict[int, int] = {}
    bound = 1
    for i, (kind, deg, mult) in enumerate(gens):
        k = kind.nilpotence
        if k and mult < 64:
            k = min(k, trunc // deg + 1)
            if k <= 64 and bound * k**mult < 2**64:
                bound *= k**mult
                chosen[i] = k
    g = math.gcd(*(gens[i].degree for i in chosen))
    saved = lost = 0
    lattice = rest = 0  # gcd of all, and of the left, degrees so far
    for i in reversed(range(len(gens))):
        _, deg, mult = gens[i]
        lattice = math.gcd(lattice, deg)
        if i in chosen:
            saved += mult * (trunc // lattice + 1)
        else:
            rest = math.gcd(rest, deg)
            width = trunc // math.gcd(g, rest) - trunc // lattice
            lost += min(mult, 2 * (trunc // deg + 1)) * width
    return chosen if saved > lost + _PACK_OVERHEAD else {}


def hilbert_cumulative(spec: AlgebraSpec, trunc: int) -> TruncatedSeries:
    """Monomial counts through degree n (the cumulative rank)."""
    return hilbert(spec, trunc).cumulative()


def oracle_hilbert(spec: AlgebraSpec, trunc: int) -> TruncatedSeries:
    """Brute-force monomial count by explicit multiset enumeration.

    Deliberately avoids all series arithmetic; guarded at trunc <= 60 because
    it walks every monomial.
    """
    if trunc > ORACLE_MAX_TRUNC:
        raise AlgebraError(
            f"oracle truncation {trunc} exceeds the guard {ORACLE_MAX_TRUNC}"
        )
    gens: list[tuple[int, int]] = []  # (degree, max exponent)
    for kind, deg, mult in instantiate(spec, trunc):
        k = kind.nilpotence
        cap = trunc // deg if k is None else k - 1
        gens.extend([(deg, cap)] * mult)
    counts = [0] * (trunc + 1)
    total_gens = len(gens)

    def count(idx: int, total: int) -> None:
        if idx == total_gens:
            counts[total] += 1
            return
        deg, cap = gens[idx]
        e = 0
        while e <= cap and total + e * deg <= trunc:
            count(idx + 1, total + e * deg)
            e += 1

    count(0, 0)
    return TruncatedSeries(counts)


def _log_derivative_hilbert(spec: AlgebraSpec, trunc: int) -> TruncatedSeries:
    """The Hilbert series from its logarithmic derivative, an exact oracle
    that shares no fold, lattice or `mul` with `hilbert`.

    C(t) = t H'(t) / H(t) has integer coefficients: a generator of degree d
    and multiplicity m adds m d at every multiple of d, and a truncated(k)
    one (exterior: k = 2) also subtracts m k d at every multiple of k d.
    Then n h_n = sum of c_k h_(n-k) over 1 <= k <= n, an exact division
    (Euler's n p(n) = sum of sigma(k) p(n - k) is the case of one
    polynomial generator in each degree).
    """
    c = [0] * (trunc + 1)
    for kind, deg, mult in instantiate(spec, trunc):
        for j in range(deg, trunc + 1, deg):
            c[j] += mult * deg
        k = kind.nilpotence
        if k is not None:
            for j in range(k * deg, trunc + 1, k * deg):
                c[j] -= mult * k * deg
    h = [1]
    for n in range(1, trunc + 1):
        h.append(sum(map(mul, c[1 : n + 1], reversed(h))) // n)
    return TruncatedSeries._of(h)


def tensor_bracket(
    subspecs: Sequence[AlgebraSpec], budgets: Sequence[int]
) -> TensorBracket:
    """Exact counts for the truncated-tensor containments

        (A^1 x ... x A^h)_{<= n_i column budgets}  vs  per-factor truncations.

    lower = prod_i cumrank(A^i, n_i), which must be <= cumrank(tensor, sum n_i);
    middle = cumrank(tensor, max n_i) and upper = prod_i cumrank(A^i, max n_i),
    with middle <= upper.  `ok` reports both containments.
    """
    if len(subspecs) != len(budgets):
        raise AlgebraError("need one degree budget per tensor factor")
    if not subspecs:
        raise AlgebraError("tensor bracket needs at least one factor")
    p = subspecs[0].p
    for s in subspecs:
        if s.p != p:
            raise AlgebraError(f"prime mismatch: {s.p} != {p}")
    n = max(budgets)
    total = sum(budgets)
    joint = AlgebraSpec(p, tuple(f for s in subspecs for f in s.families), "tensor")
    lower = 1
    upper = 1
    for s, budget in zip(subspecs, budgets):
        cum = hilbert_cumulative(s, n)
        lower *= cum[budget]
        upper *= cum[n]
    joint_cum = hilbert_cumulative(joint, total)
    middle = joint_cum[n]
    ok = lower <= joint_cum[total] and middle <= upper
    return TensorBracket(lower, middle, upper, ok)

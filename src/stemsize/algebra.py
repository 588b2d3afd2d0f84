"""Graded-algebra specifications and the exact Hilbert-series engine.

An `AlgebraSpec` describes a free graded-commutative algebra over F_p as a
list of generator families (polynomial / exterior / truncated species, a
degree expression, an optional multiplicity expression, and index ranges).
`hilbert` runs a plan, `_plan`, made before any coefficient moves.  It
prices three starts in list coefficient additions and takes the cheapest:
none; the product of generators that are truncated below N (exterior,
truncated, and polynomial ones of large degree), built in one Python int
with a 64-bit slot per coefficient, at _PACK_OVERHEAD and its shifted
additions; or the largest generators folded on a dict of the nonzero
terms while the series is mostly zeros, at _SPARSE_TERM per support term
and _SPARSE_START once.  It folds the other single-generator Hilbert
factors, largest degree first, on the lattice of multiples of the gcd of
the degrees folded so far, each in unit passes or in one power step.  Two
exact oracles check it and share nothing with the fold past `instantiate`:
`oracle_hilbert` recounts monomials by brute-force multiset enumeration, the
definition of the series, up to truncation 60; `_log_derivative_hilbert`
solves Euler's log-derivative recurrence in O(N^2) exact products, so it
reaches production truncations.
"""

from __future__ import annotations

import math
import struct
import sys
import typing
from itertools import accumulate
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from ._frozen import Frozen
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
    ResourceLimitError,
    TruncatedSeries,
    _fold,
    _fold_terms,
    _hold,
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

# The fixed cost of packing generators in `hilbert`, in list coefficient
# additions: about 10 us, on a 2-vCPU VM with Python 3.11.
_PACK_OVERHEAD = 300

# A round of shifted additions on the packed int of n + 1 slots, priced at
# (n + 1) // _PACK_ROUND additions.  It takes about 3.4 ns a slot and 0.3 us
# once, a list addition about 35 ns (N = 30 to 4096); an eighth served the
# generic_fold DSL specs at N = 4096 and the small requests best.
_PACK_ROUND = 8

# The rounds `_nilpotent_product` runs for one copy of a truncated(k)
# factor, k <= 64: one per binary digit of k after the first, and one more
# for each 1 among them.
_ROUNDS = [max(k.bit_length() + k.bit_count() - 2, 0) for k in range(65)]

# The sparse start's costs in the same units.  A pass on the dict of terms
# takes about 230 ns a term of its support, a list addition about 40 ns
# (p = 2 presets at N = 2^14).  The fixed cost, about 0.1 ms, is about
# 3 us a generator walked and 3 us a pass: may_e1 at p = 2, N = 256,
# 2484 additions cheaper by its terms alone, ran slower sparse.
_SPARSE_TERM = 6
_SPARSE_START = 3000

# The most coefficients a series may have.  One polynomial generator in
# degree 1, all of whose coefficients are 1, takes 2.3 s and peaks at
# 245 MB as a CLI request at N = 10^7; about 4 s and 400 MB at the cap.
_MAX_COEFFS = 2**24


def _require_below_cap(trunc: int) -> None:
    """Refuse a truncation of _MAX_COEFFS or more before any list is built;
    past sys.maxsize, with the OverflowError a list that long raises."""
    if trunc >= _MAX_COEFFS:
        if trunc >= sys.maxsize:
            raise OverflowError("cannot fit 'int' into an index-sized integer")
        raise ResourceLimitError(f"truncation {trunc} is not below the cap {_MAX_COEFFS}")


class AlgebraError(ValueError):
    """Invalid algebra specification or instantiation failure."""


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact for n < 2^64; larger n raise AlgebraError.  Trial division by
    the primes up to 37, then Miller-Rabin to those 12 bases, which no
    composite below 3.18 * 10^23 passes (Sorenson and Webster, 2017)."""
    if n >= 1 << 64:
        raise AlgebraError(f"p = {n} is too large: primes are decided below 2^64")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # a composite below 41^2 has a prime factor up to 37
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d with d odd
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int, error: type[ValueError] = AlgebraError) -> None:
    """The one refusal of a p that is not prime, raised as `error`."""
    if not is_prime(p):
        raise error(f"p = {p} is not prime")


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

    def _check(self) -> None:
        names = [name for name, _, _ in self.ranges]
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate index variable in family ranges {names}")
        unknown = self.free_vars() - set(names) - {"p"}
        if unknown:
            raise AlgebraError(f"unknown identifier {sorted(unknown)[0]!r}")

    def free_vars(self) -> frozenset[str]:
        return expr_free_vars(self.degree) | expr_free_vars(self.multiplicity)


GeneratorFamily.__init__.__defaults__ = (_ONE, ())  # multiplicity, ranges


class AlgebraSpec(Frozen):
    __slots__ = ("p", "families", "label")

    def _check(self) -> None:
        _require_prime(self.p)


AlgebraSpec.__init__.__defaults__ = ("",)  # label


class Generator(NamedTuple):
    kind: GeneratorKind
    degree: int
    multiplicity: int


class TensorBracket(NamedTuple):
    lower: int
    middle: int
    upper: int
    ok: bool


class Step(NamedTuple):
    kernel: str  # "sparse", "unit" or "power"
    spread: int
    kind: GeneratorKind
    d: int
    mult: int
    work: int


class Plan(NamedTuple):
    cost: int
    g: int
    picked: list[tuple[int, int, int]]
    steps: list[Step]


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
    instantiated generators: `_lattice_fold`, spread to every degree."""
    out, g = _lattice_fold(spec, trunc)
    return TruncatedSeries._of(_spread(out, g, trunc))


def _lattice_fold(spec: AlgebraSpec, trunc: int) -> tuple[list[int], int]:
    """(out, g): the Hilbert series through degree trunc, all of it on the
    multiples of g, as trunc // g + 1 coefficients.

    `_plan` decides every step before a coefficient moves, and this runs
    each by its kernel on one working list: it starts as the packed
    product E of the generators the plan picks, or as the terms
    of the "sparse" steps, which fold the largest generators on a dict of
    the nonzero terms (`series._fold_terms`), on the multiples of g; a
    step spreads it onto a finer lattice where a degree lowers the gcd,
    then folds the generator in "unit" passes of the in-place kernel
    `series._fold`, or in one "power" `mul` by the exact factor F^m from
    `factor_series`.  The list is new on every call.  `_require_below_cap`
    refuses the truncation first.
    """
    _require_below_cap(trunc)
    _, g, picked, steps = _plan(instantiate(spec, trunc), trunc)
    terms = {0: 1}
    while steps and steps[0].kernel == "sparse":
        _, spread, kind, d, mult, _ = steps.pop(0)
        g //= spread
        for _ in range(mult):
            terms = _fold_terms(terms, kind, d * g, trunc)
    out = _nilpotent_product(picked, g, trunc) if picked else [0] * (trunc // g + 1)
    for e, c in terms.items():
        out[e // g] = c
    for kernel, spread, kind, d, mult, _ in steps:
        if spread > 1:
            g //= spread
            out = _spread(out, spread, trunc // g)
        if kernel == "power":
            out[:] = factor_series(kind, d, trunc // g, mult).mul(TruncatedSeries._of(out))
        else:
            for _ in range(mult):
                _fold(out, kind, d)
    return out, g


_new = tuple.__new__  # builds a Step without the Python-level NamedTuple __new__


def _steps(gens: list[Generator], trunc: int, g: int) -> Plan:
    """The plan that folds `gens`, largest degree first, into a series on
    the multiples of g, packing nothing; a step's work is its cost in list
    coefficient additions.

    While g divides every degree folded so far, the series is one in t^g
    with trunc // g + 1 coefficients.  A step spreads it onto the lattice
    g // spread where a degree lowers the gcd, then folds mult generators
    of lattice degree d: in mult "unit" passes of trunc // g + 1 additions
    (two for truncated(k), k >= 3, whose pass also subtracts a shifted
    list), or in a "power" step, one `mul` by F^mult (the left operand, so
    that `mul` skips its zero coefficients) of about
    (trunc // deg + 1) * (trunc // g + 1) / 2 multiply-adds, each worth
    about four additions, which wins once mult exceeds 2 * (trunc // deg + 1).
    """
    cost, steps, lattice = 0, [], g
    for kind, deg, mult in reversed(gens):
        spread = lattice // math.gcd(lattice, deg)
        lattice //= spread
        cap = 2 * (trunc // deg + 1)
        passes = 2 if kind.name == "trunc" and kind.order > 2 else 1
        power = mult > cap
        work = (trunc // lattice + 1) * (cap if power else passes * mult)
        steps.append(_new(Step, ("power" if power else "unit", spread, kind, deg // lattice,
                                 mult, work)))
        cost += work
    return Plan(cost, g, [], steps)


def _plan(gens: list[Generator], trunc: int) -> Plan:
    """The cheapest fold of `gens` in list coefficient additions: the plain
    one of `_steps`, one from a packed start (see `_packed_start`), or one
    with a sparse start (see `_sparse_start`)."""
    plain = _steps(gens, trunc, gens[-1].degree if gens else 1)
    best = _packed_start(gens, trunc, plain) if plain.cost > _PACK_OVERHEAD else plain
    return _sparse_start(gens, trunc, plain, best)


def _packed_start(gens: list[Generator], trunc: int, plain: Plan) -> Plan:
    """The cheapest of the unpacked `plain` and the folds of `gens` from
    the product of the generators `picked`, as (degree, mult, k'), on the
    multiples of g.

    Below degree trunc a generator in degree d is a truncated(k') factor:
    k' = trunc // d + 1 for a polynomial one, min(k, trunc // d + 1) for a
    truncated(k) one (exterior: k = 2).  Packed, a copy saves its unit
    passes and costs _ROUNDS[k'] shifted additions, each priced at a
    1/_PACK_ROUND of a pass of the packed slots; a generator with k' <= 64
    and mult < 64 is a candidate if that saves.  Ranked by what a copy
    saves per bit of k', a candidate is picked if B, the product of
    k'^mult over those picked, stays below 2^64.  The rest fold from the
    gcd g of the picked degrees, which can be finer than the lattice they
    would fold on unpacked (a chain of polynomial degrees beside one
    exterior generator in degree 3), so each pick that lowers g also
    weighs the picks before it, on top of _PACK_OVERHEAD.
    """
    cands, gate = [], 0
    for i, (kind, deg, mult) in enumerate(gens):
        k = trunc // deg + 1
        if kind.name != "poly":
            k = min(k, kind.nilpotence)
        if k <= 64 and mult < 64:
            save = (2 if kind.name == "trunc" and kind.order > 2 else 1) * _PACK_ROUND - _ROUNDS[k]
            if save > 0:
                cands.append((-save / math.log2(k), i, k, k**mult, deg))
                gate += save * mult
    if gate * (trunc + 1) <= _PACK_OVERHEAD * _PACK_ROUND:
        return plain
    chosen, cuts, bound, g, gain = [], [], 1, 0, 0
    for _, i, k, size, deg in sorted(cands):
        if bound * size < 2**64:
            if chosen and deg % g:
                cuts.append((len(chosen), g, gain))
            chosen.append((i, k))
            bound *= size
            g = math.gcd(g, deg)
            gain += plain.steps[-1 - i].work
    cuts.append((len(chosen), g, gain))
    best = plain
    for m, g, gain in reversed(cuts):
        # the rest fold on lattices no coarser than unpacked: a floor
        if m and plain.cost - gain + _PACK_OVERHEAD < best.cost:
            packed = _packed(gens, trunc, chosen[:m], g)
            if packed.cost < best.cost:
                best = packed
    return best


def _packed(gens: list[Generator], trunc: int, chosen: list[tuple[int, int]], g: int) -> Plan:
    """The plan that packs gens[i] as a truncated(k) factor for each (i, k)
    in `chosen` and folds the rest from the lattice g."""
    picked = [(gens[i].degree, gens[i].multiplicity, k) for i, k in sorted(chosen)]
    taken = {i for i, _ in chosen}
    rest = _steps([gen for i, gen in enumerate(gens) if i not in taken], trunc, g)
    work = _pack_rounds(picked) * (trunc // g + 1) // _PACK_ROUND
    return Plan(rest.cost + _PACK_OVERHEAD + work, g, picked, rest.steps)


def _pack_rounds(picked: list[tuple[int, int, int]]) -> int:
    """The shifted additions `_nilpotent_product` runs on `picked`."""
    return sum(mult * _ROUNDS[k] for _, mult, k in picked)


def _sparse_start(gens: list[Generator], trunc: int, plain: Plan, best: Plan) -> Plan:
    """The cheapest of `best` and the plans that fold the K >= 1 largest
    generators of the unpacked `plain` of `gens` in "sparse" steps, on the
    dict of the nonzero terms (`series._fold_terms`).

    A sparse step's work is mult times the support of its product (see
    `_support`), priced at _SPARSE_TERM a term, plus _SPARSE_START once.
    The support only grows, so the walk ends once the start's cost alone
    reaches the best, or once _SPARSE_TERM terms of the support cost more
    than the two passes of N + 1 additions a copy saves at most.  A
    polynomial step of lattice degree 1 fills its lattice, so a fold of
    only such steps (a divisibility chain) is not walked.
    """
    cost, g, _, steps = plain
    least = best.cost
    if least <= _SPARSE_START or all(s.kind.name == "poly" and s.d == 1 for s in steps):
        return best
    k, start, rest, bits, terms, works = 0, _SPARSE_START, cost, 1, 1, []
    for step, gen in zip(steps, reversed(gens)):
        if start >= least or _SPARSE_TERM * terms >= 2 * (trunc + 1):
            break
        rest -= step.work
        bits = _support(bits, gen, trunc)
        terms = bits.bit_count()
        works.append(step.mult * terms)
        start += _SPARSE_TERM * works[-1]
        if start + rest < least:
            least, k = start + rest, len(works)
    if not k:
        return best
    sparse = [step._replace(kernel="sparse", work=work) for step, work in zip(steps, works[:k])]
    return Plan(least, g, [], sparse + steps[k:])


def _support(bits: int, gen: Generator, trunc: int) -> int:
    """The support, as a bitset over degrees 0..trunc, of a series of
    support `bits` times the Hilbert factor of `gen`: `bits` shifted by
    each jd, j <= m (k' - 1) for m truncated(k') generators (exterior:
    k' = 2), any j for polynomial ones, in doubling shifts."""
    kind, d, mult = gen
    top = min(trunc // d, mult * ((kind.nilpotence or trunc + 1) - 1))
    j = 1  # bits covers the shifts by 0..j-1 multiples
    while j <= top:
        bits |= bits << min(j, top + 1 - j) * d
        j = min(2 * j, top + 1)
    return bits & ((2 << trunc) - 1)


def _nilpotent_product(picked: list[tuple], g: int, trunc: int) -> list[int]:
    """The product E of the generators `picked` by `_plan`, as
    trunc // g + 1 coefficients on the multiples of g.

    E is built in one int with a 64-bit slot per lattice coefficient.  A
    coefficient of a partial product of the picked factors is at most its
    value at t = 1, at most B < 2^64 (see `_packed_start`), so no slot ever
    carries into the next, and masking to n + 1 slots is exact truncation.
    A copy of a truncated(k') generator in degree d (a polynomial one is
    truncated(trunc // d + 1) below trunc) multiplies by
    Q_k' = 1 + t^d + ... + t^((k'-1)d) in _ROUNDS[k'] <= 10 shifted
    additions, by the binary digits of k': Q_2j = Q_j + t^(jd) Q_j and
    Q_(j+1) = 1 + t^d Q_j.  The plan prices each at 1/_PACK_ROUND of a
    pass of the slots, and one C call unpacks them.
    """
    n = trunc // g
    mask = (1 << 64 * (n + 1)) - 1
    x = 1
    for deg, mult, k in picked:
        s = 64 * (deg // g)
        for _ in range(mult):
            y, j = x, 1
            for bit in bin(k)[3:]:
                y = (y + (y << j * s)) & mask
                j *= 2
                if bit == "1":
                    y = (x + (y << s)) & mask
                    j += 1
            x = y
    return list(struct.unpack(f"<{n + 1}Q", x.to_bytes(8 * (n + 1), "little")))


def hilbert_cumulative(spec: AlgebraSpec, trunc: int) -> TruncatedSeries:
    """Monomial counts through degree n (the cumulative rank), summed on
    the lattice of `_lattice_fold` and held over each block of g degrees."""
    out, g = _lattice_fold(spec, trunc)
    return TruncatedSeries._of(_hold(accumulate(out), g, trunc))


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
    if min(budgets) < 0:
        raise AlgebraError(f"degree budget {min(budgets)} is negative")
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

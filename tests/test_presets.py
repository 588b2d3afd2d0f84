import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stemsize import presets
from stemsize.algebra import (
    hilbert,
    hilbert_cumulative,
    instantiate,
    oracle_hilbert,
    parse_spec,
    spec_to_text,
)
from stemsize.presets import PRESET_NAMES, PresetError, max_over_h, preset
from stemsize.series import TruncatedSeries


class TestCatalog:
    def test_unknown_name_rejected(self):
        with pytest.raises(PresetError):
            preset("nope", 2)

    def test_non_prime_rejected(self):
        with pytest.raises(PresetError):
            preset("dual_steenrod", 6)

    def test_every_preset_round_trips_through_printer(self):
        for name in PRESET_NAMES:
            spec = preset(name, 3, h=2, k=1, drop_q0=True)
            assert parse_spec(spec_to_text(spec)).families == spec.families

    def test_every_preset_matches_oracle_at_small_truncation(self):
        for name in PRESET_NAMES:
            for p in (2, 3):
                spec = preset(name, p, h=2, k=1, drop_q0=True)
                assert oracle_hilbert(spec, 16) == hilbert(spec, 16), (name, p)


# SHA-256 of the catalog over `catalog_grid`, as `catalog_text` writes it,
# computed before `preset` took one path for every name.
CATALOG_SHA256 = "0cd165ebf767e36386282f8410b07d76685f319a2b3284f19195df6e23b33ba8"


def catalog_grid():
    """3,002 argument sets: every name at p in {2, 3, 5} with every h in
    {None, 0..3}, k in {None, -1..2}, drop_q0 and simplify_odd, then an
    unknown name and a p that is not prime."""
    for name, p, h, k, drop_q0, simplify_odd in itertools.product(
        PRESET_NAMES, (2, 3, 5), (None, 0, 1, 2, 3), (None, -1, 0, 1, 2),
        (False, True), (False, True),
    ):
        yield name, p, {"h": h, "k": k, "drop_q0": drop_q0, "simplify_odd": simplify_odd}
    yield "nope", 2, {}
    yield "dual_steenrod", 6, {}


def catalog_text():
    """Per argument set, the printed spec and its label, or the error's type
    and message."""
    entries = []
    for name, p, kwargs in catalog_grid():
        try:
            spec = preset(name, p, **kwargs)
        except Exception as exc:
            entries.append(f"{type(exc).__name__}\0{exc}\n")
        else:
            entries.append(f"{spec_to_text(spec)}\0{spec.label}\n")
    return "".join(entries)


class TestOnePath:
    def test_catalog_matches_the_pinned_digest(self):
        assert len(list(catalog_grid())) == 3002
        assert hashlib.sha256(catalog_text().encode()).hexdigest() == CATALOG_SHA256

    def test_each_text_is_parsed_once(self, monkeypatch):
        parsed = []

        def counted(text):
            parsed.append(text)
            return parse_spec(text)

        monkeypatch.setattr(presets, "parse_spec", counted)
        presets._parse.cache_clear()
        first = preset("r_h_e2", 3, h=2)
        second = preset("r_h_e2", 3, h=2, k=1)
        assert parsed == ["p = 3\ngen poly deg = p^n mult = min(2, n - 2 + 1) for n = 2..inf\n"]
        assert first.families is second.families
        assert (first.label, second.label) == ("r_h_e2(p=3, h=2)", "r_h_e2(p=3, h=2, k=1)")
        preset("r_h_e2", 5, h=2)
        assert len(parsed) == 2

    def test_prime_and_name_are_checked_first(self):
        # the catalog grid checks the order of the later refusals
        with pytest.raises(PresetError, match="^p = 4 is not prime$"):
            preset("nope", 4)
        with pytest.raises(PresetError, match="^unknown preset 'nope'$"):
            preset("nope", 2, h=0, k=-1)


class TestDualSteenrod:
    def test_p2_initial_coefficients(self):
        got = hilbert(preset("dual_steenrod", 2), 7)
        assert got == TruncatedSeries([1, 1, 1, 2, 2, 2, 3, 4])

    def test_odd_generator_degrees(self):
        degs = sorted(g.degree for g in instantiate(preset("dual_steenrod", 3), 20))
        assert degs == [1, 4, 5, 16, 17]


class TestMayE1:
    def test_p2_requires_drop_q0(self):
        with pytest.raises(PresetError):
            preset("may_e1", 2)

    def test_odd_requires_drop_q0(self):
        with pytest.raises(PresetError):
            preset("may_e1", 3)

    def test_p2_generator_degrees(self):
        spec = preset("may_e1", 2, drop_q0=True)
        degs = sorted(g.degree for g in instantiate(spec, 7))
        assert degs == [1, 2, 3, 5, 6, 7]

    def test_p2_initial_coefficients(self):
        got = hilbert(preset("may_e1", 2, drop_q0=True), 7)
        assert got == TruncatedSeries([1, 1, 2, 3, 4, 6, 9, 12])

    def test_simplify_odd_dominates_cumulatively(self):
        for p in (3, 5):
            exact = hilbert_cumulative(preset("may_e1", p, drop_q0=True), 40)
            upper = hilbert_cumulative(
                preset("may_e1", p, drop_q0=True, simplify_odd=True), 40
            )
            assert exact.leq(upper)


class TestTowerFamilies:
    def test_s_k_degrees(self):
        degs = [g.degree for g in instantiate(preset("s_k", 2, k=2), 20)]
        assert degs == [4, 8, 16]

    def test_s_zero_includes_degree_one(self):
        degs = [g.degree for g in instantiate(preset("s_k", 3, k=0), 10)]
        assert degs == [1, 3, 9]

    def test_may_model_multiplicities(self):
        gens = instantiate(preset("may_model", 2, h=None), 8)
        assert [(g.degree, g.multiplicity) for g in gens] == [(2, 1), (4, 2), (8, 3)]

    def test_r_h_e2_multiplicity_profile(self):
        gens = instantiate(preset("r_h_e2", 2, h=2), 40)
        assert [(g.degree, g.multiplicity) for g in gens] == [
            (4, 1),
            (8, 2),
            (16, 2),
            (32, 2),
        ]

    def test_r_h_einf_is_finite(self):
        gens = instantiate(preset("r_h_einf", 2, h=3), 10**4)
        assert [(g.degree, g.multiplicity) for g in gens] == [(16, 1), (32, 2)]

    def test_r_h_einf_requires_h(self):
        with pytest.raises(PresetError):
            preset("r_h_einf", 2)

    def test_q_poly_requires_drop_q0(self):
        with pytest.raises(PresetError):
            preset("q_poly", 3)

    def test_q_poly_degrees(self):
        degs = [g.degree for g in instantiate(preset("q_poly", 3, drop_q0=True), 60)]
        assert degs == [4, 16, 52]

    def test_y_h_lifted_degrees_positive_and_sparse(self):
        gens = instantiate(preset("y_h_lifted", 2, h=1), 4000)
        assert all(g.degree >= 1 for g in gens)
        assert [g.degree for g in gens] == sorted(g.degree for g in gens)

    def test_mrs_e2_model_matches_oracle(self):
        for p in (2, 3):
            spec = preset("mrs_e2_model", p, h=1)
            assert oracle_hilbert(spec, 30) == hilbert(spec, 30)


def pointwise_max_over_h(family, p, trunc):
    """`max_over_h` by comparing every degree for every h."""
    best = [0] * (trunc + 1)
    argmax = [1] * (trunc + 1)
    for h in range(1, presets._ceil_log(p, trunc) + 2):
        cum = hilbert_cumulative(preset(family, p, h=h), trunc)
        for n, value in enumerate(cum):
            if value > best[n]:
                best[n] = value
                argmax[n] = h
    return TruncatedSeries(best), tuple(argmax)


class TestMaxOverH:
    @pytest.mark.parametrize("family", ["r_h_e2", "r_h_einf"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    @given(trunc=st.integers(min_value=0, max_value=2000))
    @example(trunc=0)
    @example(trunc=1)
    @example(trunc=2)
    @settings(max_examples=12, deadline=None)
    def test_matches_pointwise_loop(self, family, p, trunc):
        best = max_over_h(family, p, trunc)
        assert (best.series, best.argmax) == pointwise_max_over_h(family, p, trunc)

    def test_rejects_other_families(self):
        with pytest.raises(PresetError):
            max_over_h("may_model", 2, 10)

    def test_dominates_every_single_h(self):
        best = max_over_h("r_h_e2", 2, 64)
        for h in (1, 2, 3):
            cum = hilbert_cumulative(preset("r_h_e2", 2, h=h), 64)
            assert cum.leq(best.series)

    def test_argmax_is_attained(self):
        best = max_over_h("r_h_einf", 2, 128)
        for n in (0, 32, 64, 128):
            h = best.argmax[n]
            cum = hilbert_cumulative(preset("r_h_einf", 2, h=h), n)
            assert cum[n] == best.series[n]

    def test_deterministic(self):
        a = max_over_h("r_h_e2", 3, 40)
        b = max_over_h("r_h_e2", 3, 40)
        assert a == b

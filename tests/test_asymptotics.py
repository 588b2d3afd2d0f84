import functools
import hashlib
import json
import math
import time

import pytest

from stemsize import asymptotics
from stemsize.algebra import AlgebraError, AlgebraSpec, hilbert_cumulative
from stemsize.asymptotics import (
    BRACKET_MODELS,
    Constants,
    ResourceLimitError,
    bracketing_check,
    constants,
    ratio_profile,
)
from stemsize.presets import MaxOverH, max_over_h, preset
from stemsize.series import TruncatedSeries


class TestConstants:
    def test_p2_values(self):
        c = constants(2)
        ln2 = math.log(2)
        assert math.isclose(c.k1, 2 / (75 * ln2**2))
        assert math.isclose(c.k2, (9 + 4 * math.sqrt(2)) / (294 * ln2**2))
        assert math.isclose(c.k3, 1 / (6 * ln2**2))

    def test_p3_k3(self):
        assert math.isclose(constants(3).k3, 1 / (6 * math.log(3) ** 2))

    def test_ordering_every_prime(self):
        for p in (2, 3, 5, 7, 11):
            c = constants(p)
            assert 0 < c.k1 < c.k2 < c.k3

    def test_non_prime_rejected(self):
        with pytest.raises(Exception):
            constants(4)


class TestRatioProfile:
    def test_constant_series_gives_zero_ratios(self):
        spec = AlgebraSpec(2, (), "trivial")
        profile = ratio_profile(spec, 3, (8, 16, 32))
        assert [row.ratio for row in profile.rows] == [0.0, 0.0, 0.0]

    def test_points_recorded_in_order(self):
        profile = ratio_profile(preset("s_k", 2, k=0), 2, (16, 64, 256))
        assert [row.n for row in profile.rows] == [16, 64, 256]

    def test_ratio_matches_direct_computation(self):
        n = 128
        profile = ratio_profile(preset("s_k", 2, k=0), 2, (n,))
        cum = hilbert_cumulative(preset("s_k", 2, k=0), n)
        want = cum.coeff_log(n) / math.log(n) ** 2
        assert math.isclose(profile.rows[0].ratio, want)

    def test_exponent_validated(self):
        with pytest.raises(Exception):
            ratio_profile(preset("s_k", 2, k=0), 5, (16,))

    def test_reports_the_prime_and_label_of_its_spec(self):
        obj = ratio_profile(preset("s_k", 3, k=0), 2, (16,)).to_json_obj()
        assert (obj["p"], obj["label"]) == (3, "s_k(p=3, k=0)")
        unlabelled = ratio_profile(AlgebraSpec(5, ()), 2, (16,))
        assert (unlabelled.p, unlabelled.label) == (5, "spec")

    def test_csv_rows_header(self):
        profile = ratio_profile(preset("s_k", 2, k=0), 3, (16,))
        header = list(profile.csv_rows())[0]
        assert header == ("n", "log_rank", "log_n_pow_3", "ratio")


class TestBracketing:
    def test_model_names(self):
        assert BRACKET_MODELS == ("may_model", "r_h_e2", "r_h_einf")
        assert tuple(asymptotics._CHECKS) == BRACKET_MODELS
        with pytest.raises(Exception):
            bracketing_check(2, 4, "nope")

    def test_may_model_small_scale(self):
        report = bracketing_check(2, 4, "may_model")
        assert report.ok
        upper = next(c for c in report.checks if c.name == "may_model_upper")
        assert "1024" in upper.detail

    def test_may_model_equality_scale_two(self):
        report = bracketing_check(2, 2, "may_model")
        assert report.ok

    def test_r_h_einf(self):
        assert bracketing_check(2, 6, "r_h_einf").ok

    def test_r_h_e2(self):
        assert bracketing_check(2, 6, "r_h_e2").ok

    def test_odd_prime(self):
        for model in BRACKET_MODELS:
            assert bracketing_check(3, 4, model).ok, model

    def test_resource_guard_trips(self):
        with pytest.raises(ResourceLimitError):
            bracketing_check(2, 12, "may_model", lower_ceiling=10)

    def test_refused_before_the_upper_series(self, monkeypatch):
        computed = []

        def spy(spec, trunc):
            computed.append(trunc)
            return hilbert_cumulative(spec, trunc)

        monkeypatch.setattr(asymptotics, "hilbert_cumulative", spy)
        with pytest.raises(ResourceLimitError):
            bracketing_check(2, 16, "may_model", lower_ceiling=10)
        assert computed == []
        # One fold at the lower degree 21 serves the upper check at 7 too;
        # only a skipped lower check folds at the upper degree.
        bracketing_check(2, 3, "may_model", lower_ceiling=21)
        assert computed == [21]
        bracketing_check(2, 15, "may_model")
        assert computed == [21, 2**15 - 1]

    def test_upper_checks_refused_before_any_fold(self, monkeypatch):
        computed = []

        def spy(name):
            def record(*args):
                computed.append(name)
                raise AssertionError(f"{name} called")
            return record

        monkeypatch.setattr(asymptotics, "hilbert_cumulative", spy("hilbert_cumulative"))
        monkeypatch.setattr(asymptotics, "max_over_h", spy("max_over_h"))
        cases = [(2, 22, "may_model"), (2, 40, "may_model"), (3, 14, "may_model"),
                 (2, 22, "r_h_einf"), (2, 40, "r_h_einf"), (5, 10, "r_h_einf")]
        for p, m, model in cases:
            with pytest.raises(ResourceLimitError, match=rf"^{model} (upper )?check needs "
                               rf"the series through degree {p}\^{m} - 1, above the "
                               rf"ceiling 2097152$"):
                bracketing_check(p, m, model)
        # an explicit lower ceiling decides alone, before p^m is built
        with pytest.raises(ResourceLimitError, match="^may_model lower check"):
            bracketing_check(2, 22, "may_model", lower_ceiling=10)
        with pytest.raises(ResourceLimitError, match=r"degree C\(100000000, 2\) \* "
                           r"\(3\^100000000 - 1\), above the ceiling 2097152$"):
            bracketing_check(3, 10**8, "may_model", lower_ceiling=2**21)
        assert computed == []

    def test_r_h_e2_refused_before_any_preset(self, monkeypatch):
        computed = []

        def spy(name):
            def record(*args, **kwargs):
                computed.append(name)
                raise AssertionError(f"{name} called")
            return record

        for name in ("preset", "hilbert", "tensor_bracket"):
            monkeypatch.setattr(asymptotics, name, spy(name))
        # h * top: top = 2^14 from m = 15 on, so p^m is not built either;
        # at p = 2, m = 257 gives 128 * 2^14 = 2^21, the ceiling itself
        cases = [(2, 258, 129), (2, 20000, 10000), (3, 10**7, 5 * 10**6), (5, 259, 129)]
        start = time.monotonic()
        for p, m, h in cases:
            with pytest.raises(ResourceLimitError, match=rf"^r_h_e2 check needs the tensor "
                               rf"series through degree {h} \* 16384, above the ceiling "
                               rf"2097152$"):
                bracketing_check(p, m, "r_h_e2")
        assert time.monotonic() - start < 1.0  # 3^(10^7) alone takes about 5 s
        assert computed == []

    def test_r_h_e2_folds_up_to_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "DEFAULT_LOWER_CEILING", 2 * (2**5 - 1))
        assert bracketing_check(2, 5, "r_h_e2").ok  # h = 2, top = 31
        with pytest.raises(ResourceLimitError, match=r"degree 3 \* 63, above the ceiling 62$"):
            bracketing_check(2, 6, "r_h_e2")

    def test_upper_checks_fold_up_to_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "DEFAULT_LOWER_CEILING", 2**5)
        for model in ("may_model", "r_h_einf"):
            assert bracketing_check(2, 5, model).ok  # 2^5 - 1 <= 32
            for p, m in ((2, 6), (3, 4)):
                with pytest.raises(ResourceLimitError, match="above the ceiling 32$"):
                    bracketing_check(p, m, model)

    def test_lower_skipped_above_ceiling_by_default(self):
        # C(15, 2) * (2^15 - 1) = 3,440,535 is above DEFAULT_LOWER_CEILING
        report = bracketing_check(2, 15, "may_model")
        lower = next(c for c in report.checks if "lower" in c.name)
        assert lower.ok
        assert lower.detail == "skipped: degree 3440535 exceeds ceiling 2097152"

    def test_checks_scale_then_model_then_prime(self, monkeypatch):
        # the front door decides in this order before any check runs, so a
        # non-prime p is refused alike at every scale
        monkeypatch.setattr(asymptotics, "_CHECKS", {
            model: lambda *args: pytest.fail("a check ran") for model in BRACKET_MODELS})
        with pytest.raises(ValueError, match="^scale parameter m must be >= 2$"):
            bracketing_check(4, 1, "nope")
        with pytest.raises(ValueError, match="^unknown bracketing model 'nope'"):
            bracketing_check(4, 40, "nope")
        for p in (1, 4, 0, -3):
            for model in BRACKET_MODELS:
                for m in (2, 40, 10**8):
                    with pytest.raises(AlgebraError, match=rf"^p = {p} is not prime$"):
                        bracketing_check(p, m, model, lower_ceiling=10)

    def test_negative_lower_ceiling_refused_after_the_prime(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_CHECKS", {
            model: lambda *args: pytest.fail("a check ran") for model in BRACKET_MODELS})
        with pytest.raises(ValueError, match="^scale parameter m must be >= 2$"):
            bracketing_check(2, 1, "may_model", lower_ceiling=-5)
        with pytest.raises(ValueError, match="^unknown bracketing model 'nope'"):
            bracketing_check(2, 4, "nope", lower_ceiling=-5)
        with pytest.raises(AlgebraError, match="^p = 4 is not prime$"):
            bracketing_check(4, 4, "may_model", lower_ceiling=-5)
        for model in BRACKET_MODELS:
            with pytest.raises(ValueError) as info:
                bracketing_check(2, 4, model, lower_ceiling=-5)
            assert type(info.value) is ValueError
            assert str(info.value) == "lower ceiling must be >= 0, got -5"

    def test_zero_lower_ceiling_is_a_budget(self):
        with pytest.raises(ResourceLimitError, match="above the ceiling 0$"):
            bracketing_check(2, 3, "may_model", lower_ceiling=0)

    def test_no_power_past_the_ceiling_is_built(self):
        # 3^(10^7) alone takes about 5 s; every check refuses without it
        start = time.monotonic()
        for model, lower_ceiling in (*((model, None) for model in BRACKET_MODELS),
                                     ("may_model", 2**21)):
            with pytest.raises(ResourceLimitError):
                bracketing_check(3, 10**7, model, lower_ceiling=lower_ceiling)
        assert time.monotonic() - start < 1.0

    def test_surface_digest(self, monkeypatch):
        # every report or refusal over the grid, pinned before the bracketing
        # checks shared one front door and one top-degree helper
        monkeypatch.setattr(asymptotics, "max_over_h", functools.cache(max_over_h))
        digest = hashlib.sha256()
        for p in (2, 3, 5):
            for m in (1, 2, 4, 6, 9, 22, 40):
                for model in (*BRACKET_MODELS, "nope"):
                    for lower_ceiling in (None, 10, 2**21):
                        try:
                            report = bracketing_check(p, m, model, lower_ceiling=lower_ceiling)
                            out = json.dumps(report.to_json_obj(), sort_keys=True)
                        except Exception as exc:
                            out = f"{type(exc).__name__}: {exc}"
                        digest.update(out.encode() + b"\n")
        assert digest.hexdigest() == (
            "293ae4ccf2bcd99fb51b8161f55acebabf07fe84534f9b0d1578cbb984c2c7ec")


class TestRhEinfInIntegers:
    def test_agrees_with_the_float_envelope_under_the_ceiling(self, monkeypatch):
        # ln c <= ln p (2m^3/75 + m^2), the float form the integer verdict
        # c^75 <= p^(2m^3 + 75m^2) replaced, on all 51 scales up to 2^21
        seen = []

        def spy(family, p, top):
            seen.append(max_over_h(family, p, top))
            return seen[-1]

        monkeypatch.setattr(asymptotics, "max_over_h", spy)
        margins = []
        for p in (2, 3, 5, 7, 11):
            m = 2
            while p**m - 1 <= asymptotics.DEFAULT_LOWER_CEILING:
                report = bracketing_check(p, m, "r_h_einf")
                top = p**m - 1
                lnp = math.log(p)
                bound = (2.0 * lnp / 75.0) * m**3 + lnp * m**2
                value = seen[-1].series.coeff_log(top)
                assert report.ok == (value <= bound), (p, m)
                margins.append(bound - value)
                m += 1
        assert len(margins) == 51
        assert min(margins) > 2.9

    def test_a_tie_passes(self, monkeypatch):
        # c = 2^315 at m = 15, p = 2: c^75 = 2^(2 * 15^3 + 75 * 15^2) exactly
        top = 2**15 - 1
        tie = MaxOverH(TruncatedSeries([1] * top + [2**315]), (1,) * (top + 1))
        monkeypatch.setattr(asymptotics, "max_over_h", lambda *args: tie)
        assert bracketing_check(2, 15, "r_h_einf").ok
        over = MaxOverH(TruncatedSeries([1] * top + [2**315 + 1]), (1,) * (top + 1))
        monkeypatch.setattr(asymptotics, "max_over_h", lambda *args: over)
        assert not bracketing_check(2, 15, "r_h_einf").ok

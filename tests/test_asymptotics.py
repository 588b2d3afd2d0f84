import math

import pytest

from stemsize.algebra import AlgebraSpec, hilbert_cumulative
from stemsize.asymptotics import (
    BRACKET_MODELS,
    Constants,
    ResourceLimitError,
    bracketing_check,
    constants,
    ratio_profile,
)
from stemsize.presets import preset


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
        profile = ratio_profile(spec, 2, 3, (8, 16, 32))
        assert [row.ratio for row in profile.rows] == [0.0, 0.0, 0.0]

    def test_points_recorded_in_order(self):
        profile = ratio_profile("s_k", 2, 2, (16, 64, 256), k=0)
        assert [row.n for row in profile.rows] == [16, 64, 256]

    def test_ratio_matches_direct_computation(self):
        n = 128
        profile = ratio_profile("s_k", 2, 2, (n,), k=0)
        cum = hilbert_cumulative(preset("s_k", 2, k=0), n)
        want = cum.coeff_log(n) / math.log(n) ** 2
        assert math.isclose(profile.rows[0].ratio, want)

    def test_exponent_validated(self):
        with pytest.raises(Exception):
            ratio_profile("s_k", 2, 5, (16,), k=0)

    def test_csv_rows_header(self):
        profile = ratio_profile("s_k", 2, 3, (16,), k=0)
        header = list(profile.csv_rows())[0]
        assert header == ("n", "log_rank", "log_n_pow_3", "ratio")


class TestBracketing:
    def test_model_names(self):
        assert set(BRACKET_MODELS) == {"may_model", "r_h_e2", "r_h_einf"}
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

    def test_lower_skipped_above_ceiling_by_default(self):
        # C(15, 2) * (2^15 - 1) = 3,440,535 is above DEFAULT_LOWER_CEILING
        report = bracketing_check(2, 15, "may_model")
        lower = next(c for c in report.checks if "lower" in c.name)
        assert lower.ok
        assert lower.detail == "skipped: degree 3440535 exceeds ceiling 2097152"

"""Release gate: the ten end-to-end checks, one test class each.

Every check here must pass.  Three of them pin facts that refine a looser
claim, and each carries its derivation in a comment: the odd-p counterexample
to A(n;t) <= P(A;t), the Goodwillie spot value 4, and the minimum of the
binary-partition profile at 2^11.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from stemsize import verify
from stemsize.algebra import hilbert, hilbert_cumulative, oracle_hilbert
from stemsize.asymptotics import DEFAULT_LOWER_CEILING, bracketing_check, ratio_profile
from stemsize.ehp import (
    _admissible_counts,
    a_series,
    admissible_series,
    verify_ehp_recurrence,
)
from stemsize.presets import preset
from stemsize.torsion import (
    LinearCurve,
    PowerLawCurve,
    an_e2_exponent,
    goodwillie_bound,
    norm_torsion_order,
    stable_torsion_bound,
)

ORACLE_RANK_CAP = 2 * 10**6  # keeps the monomial oracle tractable


class TestOracleEquivalence:
    def test_randomized_specs(self):
        start = time.monotonic()
        rng = random.Random(verify.DEFAULT_SEED)
        done = 0
        while done < 200:
            spec = verify.random_spec(rng, max_families=5)
            trunc = rng.randint(10, 40)
            if hilbert_cumulative(spec, trunc)[trunc] > ORACLE_RANK_CAP:
                continue
            assert oracle_hilbert(spec, trunc) == hilbert(spec, trunc)
            done += 1
        assert time.monotonic() - start < 60

    def test_named_presets(self):
        for spec in (
            preset("dual_steenrod", 2),
            preset("may_e1", 2, drop_q0=True),
            preset("r_h_e2", 2, h=1),
            preset("r_h_e2", 2, h=2),
            preset("r_h_e2", 2, h=3),
        ):
            assert oracle_hilbert(spec, 40) == hilbert(spec, 40)


class TestAdmissibleBasisCounts:
    # Milnor's theorem: the admissible-basis census equals the Hilbert series
    # of the dual Steenrod algebra, which is what admissible_series returns.
    def test_p2_through_sixty(self):
        dual = hilbert(preset("dual_steenrod", 2), 60)
        assert _admissible_counts(2, 60) == dual.coeffs

    def test_p3_through_forty(self):
        dual = hilbert(preset("dual_steenrod", 3), 40)
        assert _admissible_counts(3, 40) == dual.coeffs


class TestEhpRecurrences:
    @pytest.mark.parametrize("p", [2, 3])
    def test_recurrences(self, p):
        start = time.monotonic()
        for n in range(1, 21):
            assert verify_ehp_recurrence(p, n, 100), (p, n)
        assert time.monotonic() - start < 120


class TestSeriesDomination:
    def test_p2(self):
        bound = admissible_series(2, 80)
        for n in range(2, 11):
            assert a_series(2, n, 80).leq(bound), n

    def test_p3(self):
        # ehp.py grades an entry (eps, i) at odd p by 2(p-1)i - eps - 1, so at
        # p = 3 each singleton (0, i) with 2i >= n lies in I(n) in degree
        # 4i - 1 = 3 mod 4.  An admissible monomial has degree = its number
        # of Bocksteins mod 4, and the lowest one with three Bocksteins is
        # b P^4 b P^1 b, of degree 23.  Below 23 those degrees hold no
        # admissible monomial, so A(3,n) exceeds P(A) by the singleton there
        # (README, item 1); the EHP recurrences pin the census, so this is a
        # counterexample to the inequality, not a miscount.  Everywhere else
        # the inequality must hold.  Whether this odd-p grading is the
        # paper's cannot be told from its abstract; it decides whether
        # unstable_ext_bound is a valid bound at odd p.
        trunc = 80
        three_bocksteins = 1 + (4 * 4 + 1) + (4 * 1 + 1)
        bound = admissible_series(3, trunc)
        for n in range(3, 11):
            singletons = {
                4 * i - 1
                for i in range(1, three_bocksteins)
                if 2 * i >= n and 4 * i - 1 < three_bocksteins
            }
            census = a_series(3, n, trunc)
            for d in range(trunc + 1):
                excess = census[d] - bound[d]
                if d in singletons:
                    assert excess == 1, (n, d, excess)
                else:
                    assert excess <= 0, (n, d, excess)


class TestTorsionChain:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_counting_lemma_exhaustive(self, p):
        ok, detail = verify._counting_scan(p, verify._valuation_sieve(p))
        assert ok, detail

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("curve", [LinearCurve(), PowerLawCurve(0.5, 1.0)])
    def test_stable_bound_exhaustive(self, p, curve):
        tables = verify._curve_table(curve), verify._log_table(p), verify._window_sums(p, curve)
        ok, detail = verify._stable_scan(p, curve, *tables)
        assert ok, detail


class TestBracketingInequalities:
    def test_may_model_upper_p2(self):
        for m in range(2, 19):
            report = bracketing_check(2, m, "may_model")
            upper = next(c for c in report.checks if c.name == "may_model_upper")
            assert upper.ok, (m, upper.detail)

    def test_may_model_upper_p3(self):
        for m in range(2, 12):
            report = bracketing_check(3, m, "may_model")
            upper = next(c for c in report.checks if c.name == "may_model_upper")
            assert upper.ok, (m, upper.detail)

    def test_may_model_lower_p2(self):
        for m in range(2, 9):
            report = bracketing_check(
                2, m, "may_model", lower_ceiling=DEFAULT_LOWER_CEILING
            )
            lower = next(c for c in report.checks if c.name == "may_model_lower")
            assert lower.ok, (m, lower.detail)

    def test_r_h_einf_p2(self):
        for m in range(2, 13):
            assert bracketing_check(2, m, "r_h_einf").ok, m


class TestSpotValues:
    def test_e2_exponent_table(self):
        assert an_e2_exponent(2, 1) == 1
        assert an_e2_exponent(2, 3) == 1
        assert an_e2_exponent(2, 7) == 1
        assert an_e2_exponent(2, 8) == 5
        assert an_e2_exponent(3, 5) == 0
        assert an_e2_exponent(3, 6) == 2

    def test_stable_bound_spot(self):
        rep = stable_torsion_bound(2, 16, LinearCurve())
        assert (rep.exact_sum, rep.closed_form) == (20, 26.0)

    def test_norm_order_spot(self):
        assert norm_torsion_order(2, 1, 2) == 2

    def test_goodwillie_spot(self):
        # goodwillie_bound defines exact = sum over k >= 1 with s*k < n of
        # (m + |k|_p).  For (s, m, n, p) = (1, 1, 4, 2) the terms are k = 1,
        # 2, 3: (1 + 0) + (1 + 1) + (1 + 0) = 4; the envelope (m+1)n/s is 8.0.
        s, m, n, p = 1, 1, 4, 2

        def valuation(k):
            v = 0
            while k % p == 0:
                k //= p
                v += 1
            return v

        exact = sum(m + valuation(k) for k in range(1, n) if s * k < n)
        assert exact == 4
        assert goodwillie_bound(s, m, n, p) == (exact, (m + 1) * n / s) == (4, 8.0)


class TestMahlerProfile:
    POINTS = tuple(2**k for k in range(6, 15))

    def _ratios(self):
        profile = ratio_profile(preset("s_k", 2, k=0), 2, self.POINTS)
        return [row.ratio for row in profile.rows]

    @staticmethod
    def _binary_partitions(top):
        """b(0..top), b(j) = b(j-1) + [j even] b(j/2): partitions of j into
        powers of 2 (Mahler 1940; de Bruijn 1948)."""
        b = [1] * (top + 1)
        for j in range(1, top + 1):
            b[j] = b[j - 1] + (b[j // 2] if j % 2 == 0 else 0)
        return b

    def test_binary_partition_identity(self):
        # s_0 at p = 2 has one polynomial generator in each degree 2^j, so its
        # Hilbert series counts binary partitions and cumrank(n) = b(2n).
        top = self.POINTS[-1]
        b = self._binary_partitions(2 * top)
        cumulative = hilbert_cumulative(preset("s_k", 2, k=0), top)
        for n, ratio in zip(self.POINTS, self._ratios()):
            assert cumulative[n] == b[2 * n], n
            assert math.isclose(
                ratio, math.log(b[2 * n]) / math.log(n) ** 2, rel_tol=1e-12
            ), n

    def test_interval_membership(self):
        upper = 1 / (2 * math.log(2))
        for r in self._ratios():
            assert 0.5 < r <= upper

    def test_nondecreasing_tail(self):
        # ln b(n) = (ln n)^2 / (2 ln 2) - ln n ln ln n / ln 2 + O(ln n)
        # (de Bruijn 1948), so ln b(2n) / (ln n)^2 tends to 1/(2 ln 2) from
        # below, but not monotonically: at small n the positive O(ln n) term
        # dominates the ratio and decays first.  The exact
        # counts (checked against b(2n) above) fall to a single minimum at
        # the sample 2^11 (0.55012) and rise at every power of two from there
        # through 2^20.  So the tail is nondecreasing from the minimum on,
        # and the minimum comes no later than 2^11.
        ratios = self._ratios()
        low = ratios.index(min(ratios))
        assert self.POINTS[low] <= 2**11, (self.POINTS[low], ratios)
        head, tail = ratios[: low + 1], ratios[low:]
        assert all(a > b for a, b in zip(head, head[1:])), ratios
        assert all(a <= b for a, b in zip(tail, tail[1:])), ratios


class TestPerformanceGate:
    def test_cumulative_quarter_million(self):
        start = time.monotonic()
        spec = preset("may_e1", 2, drop_q0=True)
        series = hilbert_cumulative(spec, 2**18)
        elapsed = time.monotonic() - start
        assert series[2**18] > 0
        assert elapsed < 300.0


class TestVerifyDeterminism:
    def test_identical_reports(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "stemsize.cli", "verify", "--suite", "all"],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # non-empty report
        assert runs[0].returncode == runs[1].returncode

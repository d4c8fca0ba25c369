"""Sobolev, Bessel-potential, and mixed space-time norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnls_utm.fields import Field
from hnls_utm.norms import (NormSpec, bessel_norm,
                            check_admissible_pair, ct_l2_distance, ct_l2_norm,
                            mixed_norm, sobolev_norm)
from hnls_utm.transforms import SpatialProfile


def profile_of(func, ell=1.0):
    return SpatialProfile.from_callable(func, ell)


CONST = profile_of(lambda x: np.full_like(x, 3.0, dtype=complex))
SIN = profile_of(lambda x: np.sin(2 * np.pi * x).astype(complex))


class TestSobolev:
    def test_constant_s0(self):
        assert sobolev_norm(CONST, 0.0) == pytest.approx(3.0, rel=1e-10)

    def test_constant_s1(self):
        # derivative contributes zero to the sum of L2 norms
        assert sobolev_norm(CONST, 1.0) == pytest.approx(3.0, rel=1e-9)

    def test_sin_h1_closed_form(self):
        want = 1.0 / np.sqrt(2.0) + 2.0 * np.pi / np.sqrt(2.0)
        assert sobolev_norm(SIN, 1.0) == pytest.approx(want, abs=1e-8)

    def test_monotone_in_integer_s(self):
        prof = profile_of(lambda x: np.exp(1j * 3 * x) * np.sin(np.pi * x))
        vals = [sobolev_norm(prof, s) for s in (0.0, 1.0, 2.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_fractional_norm_continuous_up_to_two(self):
        # sin(2 pi x) has slope 2 pi at both ends: an even reflection kinks
        # there and read 21.1, 23.2 and 577 at s = 1.49, 1.51 and 1.999
        # against 33.1 at s = 2; the C^1 point reflection reads 11.1, 11.6
        # and 28.6
        below, above = sobolev_norm(SIN, 1.49), sobolev_norm(SIN, 1.51)
        assert abs(above - below) <= 0.05 * below
        near_two, at_two = sobolev_norm(SIN, 1.999), sobolev_norm(SIN, 2.0)
        assert at_two / 2.0 <= near_two <= 2.0 * at_two

    @pytest.mark.parametrize("s, width", [(1.0, 0.01), (39.5, 0.2)],
                             ids=["1.0", "39.5"])
    def test_homogeneous_where_the_square_overflows(self, s, width):
        # the width-0.2 Gaussian's H^39.5 norm is about 8.9e127, so at
        # amplitude 1e40 its square overflows though the norm does not.  The
        # amplitude is 2^133 (1.09e40): a power of two scales every rounding
        # exactly.  (The width-0.01 Gaussian is rounding noise at s = 39.5,
        # which bessel_norm refuses: TestBessel.)
        gauss = profile_of(lambda x: np.exp(-((x - 0.5) / width) ** 2) + 0j)
        amp = 2.0 ** 133
        big = profile_of(lambda x: amp * gauss(x))
        assert sobolev_norm(big, s) == pytest.approx(amp * sobolev_norm(gauss, s),
                                                     rel=1e-12)


class TestBessel:
    def test_zero(self):
        zero = SpatialProfile(1.0, np.zeros(8))
        assert bessel_norm(zero, 1.0, 2.0) == 0.0

    def test_s0_is_lp(self):
        for p in (2.0, 4.0):
            direct = (np.trapezoid(np.abs(SIN(np.linspace(0, 1, 4001))) ** p,
                                   np.linspace(0, 1, 4001))) ** (1.0 / p)
            assert bessel_norm(SIN, 0.0, p) == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize("s", [20.5, 39.5])
    def test_rounding_noise_raises(self, s):
        # on the width-0.01 Gaussian the multiplier lifts the FFT's rounding
        # to 1.5 and 2.0 times the multiplied spectrum's peak: the norm moved
        # 24% and 29% when the amplitude changed by 2^-40, so it is refused,
        # not returned
        gauss = profile_of(lambda x: np.exp(-((x - 0.5) / 0.01) ** 2) + 0j)
        with pytest.raises(ValueError, match="not resolved"):
            bessel_norm(gauss, s, 2.0)
        with pytest.raises(ValueError, match="not resolved"):
            sobolev_norm(gauss, s)

    @pytest.mark.parametrize("width, s", [(0.01, 10.5), (0.2, 39.5)])
    def test_resolved_orders_are_steady(self, width, s):
        # rounding reaches 3.3e-5 and 1.9e-5 of the peak, under the 1e-3
        # bound: a 2^-40 change of amplitude moves the norm by 6e-12 and
        # 2.9e-8
        def gauss(amp):
            return profile_of(lambda x: amp * np.exp(-((x - 0.5) / width) ** 2) + 0j)
        amp = 1.0 + 2.0 ** -40
        base, moved = bessel_norm(gauss(1.0), s, 2.0), bessel_norm(gauss(amp), s, 2.0)
        assert np.isfinite(base) and moved / amp == pytest.approx(base, rel=1e-6)

    def test_dual_path_gaussian(self):
        prof = profile_of(lambda x: np.exp(-((x - 0.5) / 0.15) ** 2) + 0j)
        b = bessel_norm(prof, 1.0, 2.0)
        s = sobolev_norm(prof, 1.0)
        assert 0.5 * s <= b <= 2.0 * s


class TestMixed:
    def test_zero_field(self):
        f = Field(np.linspace(0, 1, 9), np.linspace(0, 1, 9), np.zeros((9, 9)))
        spec = NormSpec(0.0, 2.0, 2.0)
        assert mixed_norm(f, spec) == 0.0

    def test_sup_in_time_is_ct_l2(self):
        x = np.linspace(0, 1, 33)
        t = np.linspace(0, 0.5, 17)
        f = Field.from_callable(lambda xx, tt: np.exp(1j * xx) * (1 + tt), x, t)
        spec = NormSpec(0.0, 2.0, np.inf)
        assert mixed_norm(f, spec) == pytest.approx(ct_l2_norm(f), rel=1e-9)

    def test_fields_on_different_grids_do_not_compare(self):
        # equal shapes on different grids used to give a gap silently
        x, t = np.linspace(0, 1, 9), np.linspace(0, 0.5, 5)
        f = Field.from_callable(lambda xx, tt: 1 + xx * tt + 0j, x, t)
        for other in (Field(x ** 2, t, f.values), Field(x, 2 * t, f.values)):
            with pytest.raises(ValueError, match="different grids"):
                f.relative_l2_gap(other)
            with pytest.raises(ValueError, match="different grids"):
                ct_l2_distance(f, other)
        assert f.relative_l2_gap(f) == 0.0 and ct_l2_distance(f, f) == 0.0

    def test_time_constant_factorization(self):
        x = np.linspace(0, 1, 65)
        t = np.linspace(0, 2.0, 33)
        f = Field.from_callable(
            lambda xx, tt: np.sin(np.pi * xx) + 0 * tt + 0j, x, t)
        spec = NormSpec(0.0, 2.0, 4.0)
        prof = profile_of(lambda xx: np.sin(np.pi * xx).astype(complex))
        want = 2.0 ** (1.0 / 4.0) * sobolev_norm(prof, 0.0)
        assert mixed_norm(f, spec) == pytest.approx(want, rel=1e-4)

    # separable field (1 + t) sin(pi x): each slice norm is (1 + t) times
    # the norm of sin(pi x), so the mixed norm is known slice by slice
    X = np.linspace(0, 1, 129)
    T = np.linspace(0, 0.5, 9)
    SEPARABLE = Field.from_callable(
        lambda xx, tt: (1 + tt) * np.sin(np.pi * xx) + 0j, X, T)

    @pytest.mark.parametrize("q", [2.0, np.inf])
    def test_sampled_h1_slices(self, q):
        # s = 1 splines the sampled slices, as the CLI's field_ct_hs row
        # does; ||sin(pi x)||_{H^1} = (1 + pi) / sqrt(2)
        slices = (1 + self.T) * (1 + np.pi) / np.sqrt(2.0)
        want = (np.max(slices) if np.isinf(q)
                else np.trapezoid(slices ** q, self.T) ** (1.0 / q))
        got = mixed_norm(self.SEPARABLE, NormSpec(1.0, 2.0, q))
        assert got == pytest.approx(want, rel=1e-6)

    def test_l4_slices(self):
        # p = 4 takes the Bessel path; at s = 0 it is the L^4 norm,
        # ||sin(pi x)||_{L^4} = (3/8)^{1/4}
        slices = (1 + self.T) * (3.0 / 8.0) ** 0.25
        want = np.trapezoid(slices ** 3, self.T) ** (1.0 / 3.0)
        got = mixed_norm(self.SEPARABLE, NormSpec(0.0, 4.0, 3.0))
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("s, p", [(1.0, 2.0), (0.0, 4.0)],
                             ids=["sobolev", "bessel"])
    def test_sampled_slices_need_a_uniform_x_grid(self, s, p):
        # the sampled-slice paths read the samples as uniform; on
        # x = linspace(0, 1, 129)^2 they would miss by about 7%
        x = np.linspace(0, 1, 129) ** 2
        t = np.linspace(0, 1, 9)
        f = Field.from_callable(
            lambda xx, tt: (1 + tt) * np.sin(np.pi * xx) + 0j, x, t)
        with pytest.raises(ValueError, match="uniform x grid"):
            mixed_norm(f, NormSpec(s, p, np.inf))
        # the trapezoid L2 path takes any grid: sup_t (1 + t) / sqrt(2)
        assert mixed_norm(f, NormSpec(0.0, 2.0, np.inf)) == pytest.approx(
            np.sqrt(2.0), rel=1e-4)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -1.0],
                         ids=["nan", "inf", "negative"])
def test_order_must_be_finite_and_nonnegative(s):
    for evaluate in (lambda: NormSpec(s), lambda: sobolev_norm(SIN, s),
                     lambda: bessel_norm(SIN, s, 2.0)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            evaluate()


@pytest.mark.parametrize("exponent", [float("nan"), 1.5],
                         ids=["nan", "below-two"])
def test_exponents_must_be_at_least_two(exponent):
    # a NaN exponent compares false both ways: NormSpec(p=nan) would make
    # mixed_norm return NaN
    for evaluate in (lambda: NormSpec(0.0, exponent, 2.0),
                     lambda: NormSpec(0.0, 2.0, exponent),
                     lambda: bessel_norm(SIN, 0.0, exponent)):
        with pytest.raises(ValueError, match="at least 2"):
            evaluate()
    assert not check_admissible_pair(exponent, 6.0)
    assert not check_admissible_pair(9.0, exponent)


class TestAdmissiblePairs:
    def test_endpoint(self):
        assert check_admissible_pair(np.inf, 2.0)

    def test_cubic_low_regularity_pair(self):
        assert check_admissible_pair(9.0, 6.0)

    def test_rejects_4_4(self):
        assert not check_admissible_pair(4.0, 4.0)

    def test_rejects_below_two(self):
        assert not check_admissible_pair(1.5, 12.0 / 11.0)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=30, deadline=None)
def test_triangle_and_homogeneity(a_re, a_im, b_re, b_im):
    f = profile_of(lambda x: (a_re + 1j * a_im) * np.sin(np.pi * x)
                   + 0j * x)
    g = profile_of(lambda x: (b_re + 1j * b_im) * np.cos(2 * np.pi * x) + 0j * x)
    fg = profile_of(lambda x: (a_re + 1j * a_im) * np.sin(np.pi * x)
                    + (b_re + 1j * b_im) * np.cos(2 * np.pi * x))
    for s in (0.0, 1.0):
        assert sobolev_norm(fg, s) <= sobolev_norm(f, s) + sobolev_norm(g, s) + 1e-9
    two_f = profile_of(lambda x: 2.0 * (a_re + 1j * a_im) * np.sin(np.pi * x) + 0j * x)
    assert sobolev_norm(two_f, 1.0) == pytest.approx(2 * sobolev_norm(f, 1.0),
                                                     abs=1e-9)

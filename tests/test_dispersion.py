"""Dispersion relation, branch conventions, and symmetry-root algebra."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hnls_utm.dispersion import (BranchKind, DispersionParams, branch_points,
                                 branch_sqrt, mu_factors, omega, omega_prime,
                                 symmetry_roots)
from hnls_utm.errors import BranchCutPoint
from hnls_utm.regions import segment_specs

AIRY = DispersionParams(1.0, 0.0, 0.0)

PARAM_SETS = [
    AIRY,
    DispersionParams(1.0, 0.0, 3.0),
    DispersionParams(1.0, 0.0, -3.0),
    DispersionParams(0.5, 1.0, 1.0),
    DispersionParams(2.0, 1.0, -1.0),
]


class TestOmega:
    def test_zero(self):
        assert omega(AIRY, 0.0 + 0.0j) == 0.0

    def test_imaginary_unit(self):
        assert omega(AIRY, 1j) == pytest.approx(-1j)

    def test_general_cubic(self):
        # beta k^3 - alpha k^2 - delta k at k = 1+i, (beta,alpha,delta)=(2,1,-1)
        params = DispersionParams(2.0, 1.0, -1.0)
        assert omega(params, 1.0 + 1.0j) == pytest.approx(-3.0 + 3.0j)

    def test_prime_examples(self):
        assert omega_prime(AIRY, 0.0 + 0.0j) == 0.0
        assert omega_prime(DispersionParams(1.0, 0.0, 3.0), 3.0 + 0.0j) \
            == pytest.approx(24.0)

    def test_prime_is_derivative(self):
        k = 0.7 - 0.3j
        h = 1e-6
        fd = (omega(AIRY, k + h) - omega(AIRY, k - h)) / (2 * h)
        assert omega_prime(AIRY, k) == pytest.approx(fd, rel=1e-8)


class TestBranchPoints:
    def test_coincident(self):
        bd = branch_points(AIRY)
        assert bd.kind is BranchKind.COINCIDENT
        assert bd.b_plus == bd.b_minus == 0.0

    def test_real_pair(self):
        bd = branch_points(DispersionParams(1.0, 0.0, 3.0))
        assert bd.kind is BranchKind.REAL_PAIR
        assert bd.b_plus == pytest.approx(2.0)
        assert bd.b_minus == pytest.approx(-2.0)

    def test_imaginary_pair(self):
        bd = branch_points(DispersionParams(1.0, 0.0, -3.0))
        assert bd.kind is BranchKind.IMAGINARY_PAIR
        assert bd.b_plus == pytest.approx(2.0j)
        assert bd.b_minus == pytest.approx(-2.0j)


class TestBranchSqrt:
    def test_airy_identity(self):
        assert branch_sqrt(AIRY, 1.0 + 0.0j) == pytest.approx(1.0)

    def test_real_radicand(self):
        # radicand 9 - 4 = 5 beyond the right branch point
        assert branch_sqrt(DispersionParams(1.0, 0.0, 3.0), 3.0 + 0.0j) \
            == pytest.approx(np.sqrt(5.0))

    def test_square_back(self):
        params = DispersionParams(1.0, 0.0, -3.0)
        val = branch_sqrt(params, 10.0 + 0.0j)
        assert val ** 2 == pytest.approx(104.0, rel=1e-12)

    def test_cut_interior_raises(self):
        with pytest.raises(BranchCutPoint):
            branch_sqrt(DispersionParams(1.0, 0.0, 3.0), 0.5 + 0.0j)

    def test_branch_point_is_zero(self):
        assert branch_sqrt(DispersionParams(1.0, 0.0, 3.0), 2.0 + 0.0j) == 0.0


def cut_direction(params):
    """Unit direction e of the cut from b_minus to b_plus."""
    return 1j if branch_points(params).kind is BranchKind.IMAGINARY_PAIR else 1.0


def radicand(params, k):
    """(k - c0)^2 - (4 / (9 beta^2)) (alpha^2 + 3 beta delta)."""
    return (k - params.center) ** 2 \
        - 4.0 * params.discriminant / (9.0 * params.beta ** 2)


def line_outside_cut(params, n=41):
    """Points b_plus + s e and b_minus - s e, 1 <= s <= 25, of the cut's line
    outside the segment."""
    bd, e = branch_points(params), cut_direction(params)
    s = np.linspace(1.0, 25.0, n)
    return np.concatenate([bd.b_plus + s * e, bd.b_minus - s * e])


def flip_zero(k):
    """k with its zero real or imaginary parts turned into -0.0."""
    return np.array([complex(z.real or -0.0, z.imag or -0.0) for z in k])


class TestBranchRootOnTheCutLine:
    """The cut's line outside the segment: the real axis past b+- for a real
    pair or coincident points, the vertical line through c0 past b+- for an
    imaginary pair."""

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_both_signs_of_zero_give_one_root(self, params):
        k = line_outside_cut(params)
        bd, e = branch_points(params), cut_direction(params)
        # on the line, k - c0 = t e with t real; the root is e sign(t)
        # sqrt(t^2 - r^2), r = |b+ - c0|
        t = ((k - params.center) / e).real
        want = e * np.sign(t) * np.sqrt(t ** 2 - abs(bd.b_plus - params.center) ** 2)
        for pts in (k, flip_zero(k)):
            np.testing.assert_allclose(branch_sqrt(params, pts), want, rtol=1e-13)
        assert np.all(branch_sqrt(params, flip_zero(k)) == branch_sqrt(params, k))

    def test_airy_negative_real_axis_with_negative_zero(self):
        for k in (complex(-20.0, -0.0), complex(-20.0, 0.0)):
            assert branch_sqrt(AIRY, k) == pytest.approx(-20.0, rel=1e-15)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_real_ray_nodes_of_d_minus(self, params):
        # Gamma_9, the real ray of D-
        ray = segment_specs(params, 3.0, 30.0)[8]
        k = np.asarray(ray.gamma(np.linspace(ray.lo, ray.hi, 33)),
                       dtype=np.complex128)
        got = branch_sqrt(params, k)
        assert np.all(branch_sqrt(params, flip_zero(k)) == got)
        # k - c0 is large and negative there: the root is close to it
        assert np.all(got.real < 0.0)
        np.testing.assert_allclose(got ** 2, radicand(params, k), rtol=1e-12)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_continuous_across_the_line(self, params):
        k = line_outside_cut(params)
        step = 1e-9j * cut_direction(params)
        above, below = branch_sqrt(params, k + step), branch_sqrt(params, k - step)
        np.testing.assert_allclose(above, below, rtol=1e-8)
        np.testing.assert_allclose(branch_sqrt(params, k), above, rtol=1e-8)

    @pytest.mark.parametrize("params", [DispersionParams(1.0, 2.0, 0.0),
                                        DispersionParams(2.0, 1.0, -1.0)])
    def test_branch_points_off_the_dyadics_map_to_zero(self, params):
        # c0 = 2/3 and 1/6 are not dyadic; b+ = 2 for (1, 2, 0)
        bd = branch_points(params)
        assert branch_sqrt(params, bd.b_plus) == 0.0
        assert branch_sqrt(params, bd.b_minus) == 0.0
        np.testing.assert_array_equal(
            branch_sqrt(params, np.array([bd.b_minus, bd.b_plus])), 0.0)

    @pytest.mark.parametrize("params", [DispersionParams(1.0, 0.0, 3.0),
                                        DispersionParams(0.5, 1.0, 1.0),
                                        DispersionParams(1.0, 0.0, -3.0),
                                        DispersionParams(2.0, 1.0, -1.0)])
    @pytest.mark.parametrize("frac", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
    def test_cut_interior_raises_as_scalar_and_in_an_array(self, params, frac):
        bd = branch_points(params)
        k = complex(bd.b_minus + frac * (bd.b_plus - bd.b_minus))
        # the point lies on the segment's line exactly
        assert ((k - bd.b_minus) / cut_direction(params)).imag == 0.0
        with pytest.raises(BranchCutPoint):
            branch_sqrt(params, k)
        with pytest.raises(BranchCutPoint):
            branch_sqrt(params, np.array([3.0 + 1.0j, k, -4.0 + 0.0j]))
        with pytest.raises(BranchCutPoint):
            symmetry_roots(params, np.array([[k, 2.0j]]))


@st.composite
def plane_points(draw):
    """A parameter set and a point of [-20, 20]^2, often on the real axis or
    on the vertical line through c0, with either sign of zero."""
    params = draw(st.sampled_from(PARAM_SETS))
    re = draw(st.one_of(st.floats(-20.0, 20.0),
                        st.just(params.center), st.just(-0.0)))
    im = draw(st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0])))
    return params, complex(re, im)


@given(plane_points())
@settings(max_examples=400, deadline=None)
def test_branch_root_squares_to_the_radicand(case):
    params, k = case
    bd = branch_points(params)
    w, lo, hi = (z / cut_direction(params) for z in (k, bd.b_minus, bd.b_plus))
    on_cut = w.imag == lo.imag and lo.real < w.real < hi.real
    if on_cut:
        with pytest.raises(BranchCutPoint):
            branch_sqrt(params, k)
    assume(not on_cut)
    root = branch_sqrt(params, k)
    size = abs(k - params.center) ** 2 + abs(bd.b_plus - params.center) ** 2
    assert abs(root ** 2 - radicand(params, k)) <= 1e-12 * size
    if abs(k - params.center) > 2.0 * abs(bd.b_plus - params.center):
        # Re(root conj(k - c0)) > 0, divided by |k - c0|^2 against underflow
        assert (root / (k - params.center)).real > 0.0


class TestSymmetries:
    def test_airy_rotation(self):
        _nu0, nup, num = symmetry_roots(AIRY, 1.0 + 0.0j)
        assert nup == pytest.approx(np.exp(2j * np.pi / 3.0))
        assert num == pytest.approx(np.exp(4j * np.pi / 3.0))

    def test_degenerate_origin(self):
        nu0, nup, num = symmetry_roots(AIRY, 0.0 + 0.0j)
        assert nu0 == nup == num == 0.0

    def test_real_pair_example(self):
        params = DispersionParams(1.0, 0.0, 3.0)
        _nu0, nup, num = symmetry_roots(params, 3.0 + 0.0j)
        assert nup == pytest.approx(-1.5 + 0.5j * np.sqrt(15.0))
        assert num == pytest.approx(-1.5 - 0.5j * np.sqrt(15.0))
        assert omega(params, nup) == pytest.approx(18.0, abs=1e-10)

    def test_array_input(self):
        k = np.array([1.0 + 0.5j, -2.0 + 1.0j])
        _nu0, nup, _num = symmetry_roots(AIRY, k)
        assert nup.shape == (2,)
        np.testing.assert_allclose(omega(AIRY, nup), omega(AIRY, k),
                                   rtol=1e-10)


class TestMuFactors:
    def test_airy_mu0(self):
        mu0, _mu_plus, _mu_minus = mu_factors(symmetry_roots(AIRY, 1.0 + 0.0j))
        assert mu0 == pytest.approx(1j * np.sqrt(3.0))

    def test_degenerate(self):
        mu0, mu_plus, mu_minus = mu_factors(symmetry_roots(AIRY, 0.0 + 0.0j))
        assert mu0 == mu_plus == mu_minus == 0.0

    def test_omega_prime_identity_example(self):
        params = DispersionParams(1.0, 0.0, 3.0)
        _mu0, mu_plus, mu_minus = mu_factors(symmetry_roots(params, 3.0 + 0.0j))
        assert -params.beta * mu_plus * mu_minus == pytest.approx(24.0)


@st.composite
def off_cut_points(draw):
    idx = draw(st.integers(0, len(PARAM_SETS) - 1))
    params = PARAM_SETS[idx]
    re = draw(st.floats(-10.0, 10.0))
    im = draw(st.floats(0.05, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    k = complex(re, im)
    bd = branch_points(params)
    if bd.discriminant < 0 and abs(k.real - params.center) < 0.05 \
            and abs(k.imag) < abs(bd.b_plus.imag) + 0.05:
        k += 0.2  # step off the vertical cut
    return params, k


@given(off_cut_points())
@settings(max_examples=300, deadline=None)
def test_root_identities(case):
    params, k = case
    roots = symmetry_roots(params, k)
    nu0, nup, num = roots
    wk = omega(params, k)
    scale = 1.0 + abs(wk)
    assert abs(omega(params, nup) - wk) <= 1e-10 * scale
    assert abs(omega(params, num) - wk) <= 1e-10 * scale
    assert abs(nu0 + nup + num - params.alpha / params.beta) <= 1e-10 * (1 + abs(k))
    assert abs(nu0.imag + nup.imag + num.imag) <= 1e-10 * (1 + abs(k))
    _mu0, mu_plus, mu_minus = mu_factors(roots)
    wp = omega_prime(params, k)
    assert abs(wp + params.beta * mu_plus * mu_minus) \
        <= 1e-10 * (1 + abs(wp))


def test_airy_scaling_exact():
    k = np.linspace(0.0, 25.0, 101)
    _nu0, nup, num = symmetry_roots(AIRY, k + 0.0j)
    np.testing.assert_allclose(nup, np.exp(2j * np.pi / 3.0) * k, atol=1e-12 * 25)
    np.testing.assert_allclose(num, np.exp(-2j * np.pi / 3.0) * k, atol=1e-12 * 25)


def test_params_validation():
    with pytest.raises(ValueError):
        DispersionParams(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        DispersionParams(-1.0, 0.0, 0.0)

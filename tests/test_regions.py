"""Region classification, puncture radius, Delta, and the solver's contour:
the boundary segments of segment_specs and the nodes linear._solver_segments
places on them."""

import numpy as np
import pytest

from hnls_utm.dispersion import DispersionParams, symmetries
from hnls_utm.errors import InvalidTruncation
from hnls_utm.linear import QuadratureBudget, _solver_segments
from hnls_utm.regions import (DELTA_BOUND_C0, DELTA_BOUND_CPM, RegionLabel,
                              SegmentKind, arc_half_angle, classification_tol,
                              classify_region, delta_fn, im_omega, m_delta,
                              r_delta, segment_specs)

AIRY = DispersionParams(1.0, 0.0, 0.0)
# truncation radius 20 on the unit interval, horizon 1/2
BUDGET = QuadratureBudget(contour_nodes=4000, real_axis_window=20.0)


def solver_segments(params, ell=1.0, horizon=0.5, budget=BUDGET):
    """The solver's contour nodes as (kind, k) per segment, and rho."""
    groups, rho = _solver_segments(params, ell, horizon, budget)
    specs = segment_specs(params, ell, rho, budget.real_axis_window)
    return [(spec[0], k) for spec, (_region, k, _w) in zip(specs, groups)], rho


def segment_endpoints(spec):
    """Start and end point of a segment_specs segment's oriented traversal."""
    _kind, _region, lo, hi, orientation, gamma, _dgamma = spec
    ends = (complex(gamma(lo)), complex(gamma(hi)))
    return ends if orientation > 0 else ends[::-1]


class TestImOmega:
    def test_real_axis(self):
        assert im_omega(AIRY, 3.7 + 0.0j) == 0.0

    def test_imaginary_unit(self):
        assert im_omega(AIRY, 1j) == pytest.approx(-1.0)

    def test_matches_direct(self):
        rng = np.random.default_rng(0)
        k = rng.uniform(-5, 5, 200) + 1j * rng.uniform(-5, 5, 200)
        for params in (AIRY, DispersionParams(2.0, 1.0, -1.0)):
            direct = (params.beta * k ** 3 - params.alpha * k ** 2
                      - params.delta * k).imag
            np.testing.assert_allclose(im_omega(params, k), direct,
                                       atol=1e-13 * (1 + np.max(np.abs(direct))))


class TestClassify:
    def test_d0(self):
        assert classify_region(AIRY, 1j, 1e-12) is RegionLabel.D0

    def test_dplus(self):
        assert classify_region(AIRY, np.sqrt(3.0) - 1.0j, 1e-9) \
            is RegionLabel.DPLUS

    def test_boundary(self):
        assert classify_region(AIRY, 1.0 + 0.0j, 1e-12) is RegionLabel.BOUNDARY

    def test_outside(self):
        # Im omega(k) > 0 just above the real axis far right of the wedge
        assert classify_region(AIRY, 5.0 + 0.1j, 1e-12) is RegionLabel.OUTSIDE


class TestRadii:
    def test_r_delta_airy(self):
        assert r_delta(AIRY, 1.0) == pytest.approx(9.0)

    def test_r_delta_moderate_discriminant(self):
        assert r_delta(DispersionParams(1.0, 0.0, 3.0), 1.0) == pytest.approx(9.0)

    def test_r_delta_short_interval(self):
        assert r_delta(DispersionParams(1.0, 0.0, 3.0), 0.05) == pytest.approx(180.0)

    def test_m_delta_airy(self):
        assert m_delta(AIRY, 1.0) == pytest.approx(729.0)

    def test_m_delta_with_alpha(self):
        val = m_delta(DispersionParams(1.0, 1.0, 0.0), 1.0)
        assert val == pytest.approx((1 / 3 + 9) ** 3 + (1 / 3 + 9) ** 2, rel=1e-12)

    def test_m_delta_bounds_arc(self):
        segments, rho = solver_segments(AIRY)
        md = m_delta(AIRY, 1.0)
        for kind, nodes_k in segments:
            if kind is SegmentKind.CIRCULAR_ARC:
                w = (AIRY.beta * nodes_k ** 3
                     - AIRY.alpha * nodes_k ** 2 - AIRY.delta * nodes_k)
                # the bound is stated on the puncture circle radius R_Delta
                on_rd = nodes_k * (r_delta(AIRY, 1.0) / rho)
                w_rd = AIRY.beta * on_rd ** 3
                assert np.all(np.abs(w_rd) <= md * (1 + 1e-12))
                assert np.all(np.isfinite(w))


class TestDelta:
    def test_origin_zero(self):
        assert delta_fn(AIRY, 1.0, 0.0 + 0.0j) == pytest.approx(0.0)

    def test_gamma9_point_bound(self):
        k = -9.0 + 0.0j
        tri = symmetries(AIRY, k)
        val = np.exp(1j * tri.nu_minus * 1.0) * delta_fn(AIRY, 1.0, k)
        assert abs(val) >= DELTA_BOUND_CPM * 9.0

    def test_frozen_constants(self):
        assert DELTA_BOUND_C0 == pytest.approx(1.578774, abs=1e-6)
        assert DELTA_BOUND_CPM == pytest.approx(0.110711, abs=1e-6)


class TestContourSet:
    def test_airy_arc_half_angle(self):
        # arc endpoints must sit on the Im omega = 0 rays at 60/120 degrees,
        # so the half-angle measured from the vertical is pi/6
        assert arc_half_angle(AIRY, 20.0) == pytest.approx(np.pi / 6.0)

    def test_nodes_on_boundary(self):
        for params in (AIRY, DispersionParams(1.0, 0.0, 3.0),
                       DispersionParams(1.0, 0.0, -3.0)):
            segments, rho = solver_segments(params)
            tol = 1e-9 * m_delta(params, 1.0)
            for kind, nodes_k in segments:
                if kind is SegmentKind.CIRCULAR_ARC:
                    r = np.abs(nodes_k - params.center)
                    np.testing.assert_allclose(r, rho, rtol=1e-12)
                else:
                    assert np.max(np.abs(im_omega(params, nodes_k))) <= tol

    def test_segments_close_up(self):
        _segments, rho = solver_segments(AIRY)
        ends = [segment_endpoints(spec)
                for spec in segment_specs(AIRY, 1.0, rho, 20.0)]
        # consecutive segments within each region boundary share endpoints
        gaps = []
        for (a_start, a_end), (b_start, b_end) in zip(ends[:-1], ends[1:]):
            gaps.append(min(abs(a_end - b_start), abs(a_end - b_end),
                            abs(a_start - b_start)))
        assert sorted(gaps)[len(gaps) // 2] <= 1e-10  # contiguous chains

    def test_invalid_truncation(self):
        with pytest.raises(InvalidTruncation):
            _solver_segments(AIRY, 1.0, 0.5,
                             QuadratureBudget(real_axis_window=2.0))

    def test_classification_tol_scale(self):
        assert classification_tol(AIRY, 1.0) == pytest.approx(1e-12 * 730.0)

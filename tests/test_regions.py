"""Im omega, puncture radius, Delta, and the solver's contour:
the boundary segments of segment_specs and the nodes linear._solver_segments
places on them."""

import numpy as np
import pytest

from hnls_utm.dispersion import DispersionParams, symmetry_roots
from hnls_utm.errors import InvalidTruncation
from hnls_utm.linear import QuadratureBudget, _solver_segments
from hnls_utm.regions import (DELTA_BOUND_C0, DELTA_BOUND_CPM, SegmentKind,
                              arc_half_angle, im_omega, r_delta, scaled_delta,
                              segment_specs)

AIRY = DispersionParams(1.0, 0.0, 0.0)
# truncation radius 20 on the unit interval, horizon 1/2
BUDGET = QuadratureBudget(contour_nodes=4000, real_axis_window=20.0)
# the |dk| weight of the phase density make_plan gives the unit interval
DK_WEIGHT = 3.0


def solver_segments(params, horizon=0.5, budget=BUDGET):
    """The solver's region contour nodes as (kind, k) per segment, split by
    the per-segment node counts, and rho."""
    _real, contours, counts, rho = _solver_segments(params, horizon, budget,
                                                    DK_WEIGHT)
    specs = segment_specs(params, rho, budget.real_axis_window)
    nodes = []
    for i, (_region, k, _w) in enumerate(contours):
        nodes += np.split(k, np.cumsum(counts[3 * i:3 * i + 2]))
    return [(spec[0], k) for spec, k in zip(specs, nodes)], rho


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


class TestRadii:
    def test_r_delta_airy(self):
        assert r_delta(AIRY) == pytest.approx(9.0)

    def test_r_delta_moderate_discriminant(self):
        assert r_delta(DispersionParams(1.0, 0.0, 3.0)) == pytest.approx(9.0)

    def test_r_delta_short_interval(self):
        # the paper's R_Delta on [0, ell], max{(2 sqrt2 / sqrt3) sqrt|disc|,
        # 9 / ell}, is 9 / ell = 180 for (1, 0, 3) at ell = 0.05; r_delta of
        # the twin's (beta, alpha ell, delta ell^2) is ell R_Delta(ell)
        ell = 0.05
        twin = DispersionParams(1.0, 0.0, 3.0 * ell ** 2)
        assert r_delta(twin) == pytest.approx(ell * 180.0)

    def test_r_delta_long_interval(self):
        # at ell = 5 the discriminant term wins: R_Delta = 2 sqrt6 > 9 / 5
        ell = 5.0
        twin = DispersionParams(1.0, 0.0, 3.0 * ell ** 2)
        assert r_delta(twin) == pytest.approx(ell * 2.0 * np.sqrt(6.0))


class TestDelta:
    def test_origin_zero(self):
        roots = symmetry_roots(AIRY, 0.0 + 0.0j)
        assert scaled_delta(roots, 0.0) == pytest.approx(0.0)

    def test_gamma9_point_bound(self):
        k = -9.0 + 0.0j
        roots = symmetry_roots(AIRY, k)
        val = scaled_delta(roots, roots[2])
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
            # 1e-9 of the bound on |omega| over the puncture disk (alpha = 0)
            rd = r_delta(params)
            tol = 1e-9 * (params.beta * rd ** 3 + abs(params.delta) * rd)
            for kind, nodes_k in segments:
                if kind is SegmentKind.CIRCULAR_ARC:
                    r = np.abs(nodes_k - params.center)
                    np.testing.assert_allclose(r, rho, rtol=1e-12)
                else:
                    assert np.max(np.abs(im_omega(params, nodes_k))) <= tol

    def test_segments_close_up(self):
        _segments, rho = solver_segments(AIRY)
        ends = [segment_endpoints(spec)
                for spec in segment_specs(AIRY, rho, 20.0)]
        # consecutive segments within each region boundary share endpoints
        gaps = []
        for (a_start, a_end), (b_start, b_end) in zip(ends[:-1], ends[1:]):
            gaps.append(min(abs(a_end - b_start), abs(a_end - b_end),
                            abs(a_start - b_start)))
        assert sorted(gaps)[len(gaps) // 2] <= 1e-10  # contiguous chains

    def test_invalid_truncation(self):
        with pytest.raises(InvalidTruncation):
            _solver_segments(AIRY, 0.5, QuadratureBudget(real_axis_window=2.0),
                             DK_WEIGHT)

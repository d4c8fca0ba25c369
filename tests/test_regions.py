"""Im omega, puncture radius, Delta, and the solver's contour:
the Segment records of segment_specs and the nodes linear._solver_segments
places on them."""

import numpy as np
import pytest

from hnls_utm import verify
from hnls_utm.dispersion import DispersionParams, symmetry_roots
from hnls_utm.errors import InvalidTruncation
from hnls_utm.linear import QuadratureBudget, _phase_measure, _place, _solver_segments
from hnls_utm.regions import (DELTA_BOUND_C0, DELTA_BOUND_CPM, RegionLabel,
                              Segment, arc_half_angle, im_omega, r_delta,
                              real_ray, scaled_delta, segment_specs)

AIRY = DispersionParams(1.0, 0.0, 0.0)
# every discriminant sign, a nonzero centre, and the benchmark's (0.5, 0, 0)
PARAMS = verify.PARAM_SETS + (DispersionParams(1.0, 2.0, 0.0),
                              DispersionParams(0.5, 0.0, 0.0))
# truncation radius 20 on the unit interval, horizon 1/2
BUDGET = QuadratureBudget(contour_nodes=4000, real_axis_window=20.0)


def solver_segments(params, horizon=0.5, budget=BUDGET):
    """The solver's Segment records, the real window last, each with the
    nodes and weights _solver_segments places on it; and rho."""
    (k_r, w_r), contours, counts, rho, _phases = _solver_segments(
        params, horizon, budget)
    r_t = budget.real_axis_window
    segs = segment_specs(params, rho, r_t) + [
        real_ray(None, params.center - r_t, params.center + r_t, +1)]
    placed = []
    for i, (_region, k, w) in enumerate(contours):
        splits = np.cumsum(counts[3 * i:3 * i + 2])
        placed += zip(np.split(k, splits), np.split(w, splits))
    placed.append((k_r, w_r))
    return [(seg, k, w) for seg, (k, w) in zip(segs, placed)], rho


def segment_endpoints(seg):
    """Start and end point of a Segment's oriented traversal."""
    ends = (complex(seg.gamma(seg.lo)), complex(seg.gamma(seg.hi)))
    return ends if seg.orientation > 0 else ends[::-1]


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
            for seg, nodes_k, _w in segments[:9]:
                if seg.arc:
                    r = np.abs(nodes_k - params.center)
                    np.testing.assert_allclose(r, rho, rtol=1e-12)
                else:
                    assert np.max(np.abs(im_omega(params, nodes_k))) <= tol

    def test_segments_close_up(self):
        # each region's three segments, in oriented order, share their two
        # junctions; the far ends are the truncation, which no arc closes
        for params in PARAMS:
            _segments, rho = solver_segments(params)
            specs = segment_specs(params, rho, BUDGET.real_axis_window)
            for i in (0, 3, 6):
                ends = [segment_endpoints(seg) for seg in specs[i:i + 3]]
                for (_start, end), (start, _end) in zip(ends[:-1], ends[1:]):
                    assert abs(end - start) <= 1e-12 * rho

    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: "%g,%g,%g" % (
        p.beta, p.alpha, p.delta))
    def test_weights_integrate_dgamma(self, params):
        # at the default budget the weights placed on each record, the real
        # window's too, sum to orientation (gamma(hi) - gamma(lo)): dgamma is
        # gamma's derivative
        segments, _rho = solver_segments(params, budget=QuadratureBudget())
        for seg, _k, w in segments:
            chord = seg.orientation * (seg.gamma(seg.hi) - seg.gamma(seg.lo))
            assert abs(np.sum(w) - chord) <= 1e-12 * abs(chord)

    def test_an_ellipse_arc_is_one_more_record(self):
        # a new shape is data only: an ellipse arc about the centre, placed
        # by the solver's routine, lies on its curve with weights that
        # integrate its dgamma (its accuracy as a contour is ROADMAP item 17)
        a, b, c0 = 3.0, 1.5, AIRY.center
        seg = Segment(RegionLabel.D0, 0.25 * np.pi, 0.75 * np.pi, -1,
                      lambda t: c0 + a * np.cos(t) + 1j * b * np.sin(t),
                      lambda t: -a * np.sin(t) + 1j * b * np.cos(t), arc=True)
        pf, cum, _total = _phase_measure(AIRY, seg, 0.5)
        k, w = _place(seg, pf, cum, 24)
        np.testing.assert_allclose(((k.real - c0) / a) ** 2 + (k.imag / b) ** 2,
                                   1.0, rtol=1e-12)
        chord = -(seg.gamma(seg.hi) - seg.gamma(seg.lo))
        assert abs(np.sum(w) - chord) <= 1e-12 * abs(chord)

    def test_invalid_truncation(self):
        with pytest.raises(InvalidTruncation):
            _solver_segments(AIRY, 0.5, QuadratureBudget(real_axis_window=2.0))

"""Data presets and spec-driven profile/series construction."""

import numpy as np
import pytest

from hnls_utm.dispersion import DispersionParams, omega
from hnls_utm.errors import ConfigInvalid
from hnls_utm.presets import (bump_profile, bump_series, gaussian_profile,
                              plane_wave_data, plane_wave_exact,
                              plane_wave_field, profile_from_spec,
                              series_from_spec, zero_profile, zero_series)

AIRY = DispersionParams(1.0, 0.0, 0.0)


class TestBump:
    def test_compact_support(self):
        prof = bump_profile(1.0)
        x = np.array([0.0, 0.1, 0.15, 0.85, 0.9, 1.0])
        assert np.all(prof(x) == 0.0)
        assert abs(prof(np.array([0.5]))[0]) > 0.5

    def test_series_vanishes_at_corners(self):
        ser = bump_series(0.5)
        t = ser.grid()
        vals = ser(t)
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert np.max(np.abs(vals)) > 0.5


class TestGaussianAndZero:
    def test_gaussian_peak(self):
        prof = gaussian_profile(1.0, 0.5, 0.2)
        assert prof(np.array([0.5]))[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("width", [np.nan, np.inf, 0.0, -0.2],
                             ids=["nan", "inf", "zero", "negative"])
    def test_gaussian_width_must_be_finite_and_positive(self, width):
        with pytest.raises(ValueError, match="finite and positive"):
            gaussian_profile(1.0, 0.5, width)

    def test_zero(self):
        assert np.all(zero_profile(1.0)(np.linspace(0, 1, 7)) == 0.0)
        assert np.all(zero_series(0.5)(np.linspace(0, 0.5, 7)) == 0.0)


class TestPlaneWave:
    def test_exact_satisfies_equation(self):
        # i u_t + i beta u_xxx + alpha u_xx + i delta u_x = 0 for
        # u = exp(i(ax + omega(a) t)); check by finite differences
        params = DispersionParams(2.0, 1.0, -1.0)
        a = 2.0
        u = plane_wave_exact(params, a)
        h = 3e-4
        x0, t0 = 0.3, 0.1
        ut = (u(x0, t0 + h) - u(x0, t0 - h)) / (2 * h)
        ux = (u(x0 + h, t0) - u(x0 - h, t0)) / (2 * h)
        uxx = (u(x0 + h, t0) - 2 * u(x0, t0) + u(x0 - h, t0)) / h ** 2
        uxxx = (u(x0 + 2 * h, t0) - 2 * u(x0 + h, t0) + 2 * u(x0 - h, t0)
                - u(x0 - 2 * h, t0)) / (2 * h ** 3)
        resid = (1j * ut + 1j * params.beta * uxxx + params.alpha * uxx
                 + 1j * params.delta * ux)
        assert abs(resid) <= 2e-4  # O(h^2) difference truncation

    def test_data_matches_exact(self):
        data = plane_wave_data(AIRY, 1.0, 0.5, 2.0)
        w = omega(AIRY, 2.0)
        t = np.array([0.0, 0.25, 0.5])
        np.testing.assert_allclose(data.g0(t), np.exp(1j * w * t), rtol=1e-12)
        np.testing.assert_allclose(data.h0(t), np.exp(1j * (2.0 + w * t)),
                                   rtol=1e-12)
        np.testing.assert_allclose(data.h1(t), 2j * np.exp(1j * (2.0 + w * t)),
                                   rtol=1e-12)
        x = np.linspace(0, 1, 9)
        np.testing.assert_allclose(data.u0(x), np.exp(2j * x), rtol=1e-12)

    def test_field_grid(self):
        x = np.linspace(0, 1, 5)
        t = np.linspace(0, 0.5, 4)
        f = plane_wave_field(AIRY, 2.0, x, t)
        assert f.values.shape == (5, 4)
        assert f.values[0, 0] == pytest.approx(1.0)


class TestSpecConstruction:
    def test_profile_presets(self):
        assert np.all(profile_from_spec({"preset": "zero"}, 1.0)(
            np.linspace(0, 1, 5)) == 0.0)
        g = profile_from_spec(
            {"preset": "gaussian", "center": 0.5, "width": 0.2}, 1.0)
        assert g(np.array([0.5]))[0] == pytest.approx(1.0)

    def test_series_presets(self):
        ser = series_from_spec({"preset": "bump"}, 0.5)
        assert ser(np.array([0.0]))[0] == 0.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigInvalid):
            profile_from_spec({"preset": "sawtooth"}, 1.0)
        with pytest.raises(ConfigInvalid):
            series_from_spec({}, 1.0)

    def test_csv_path(self, tmp_path):
        path = tmp_path / "profile.csv"
        x = np.linspace(0.0, 1.0, 33)
        vals = np.sin(np.pi * x)
        np.savetxt(path, np.column_stack([x, vals, np.zeros_like(vals)]),
                   delimiter=",", header="x,re,im", comments="")
        prof = profile_from_spec({"path": str(path)}, 1.0)
        np.testing.assert_allclose(prof(np.array([0.5])), [1.0], atol=1e-3)

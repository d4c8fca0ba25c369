"""Seeded property-verification suites.

Each suite draws a deterministic sample set from a seeded generator, checks a
family of structural identities or bounds, and reports per-property results:
name, pass/fail, sample count, tolerance, and the worst-case margin actually
observed (negative margin = violation).  Suites:

* ``symmetries``   — root identities of the dispersion relation.
* ``regions``      — sign laws and lower bounds of the region geometry.
* ``delta_bounds`` — the exponential-sum denominator lower bound with its
                     explicit constants.
* ``hardy``        — Laplace-transform L2 boundedness with constant sqrt(pi).
* ``rtotau``       — boundedness of (1+r^2)^3 / (1+omega(r)^2) on the axis.
* ``mvt``          — the two-term mean-value identity for the power
                     nonlinearity.
* ``global_relation`` — residual of the transform-side identity on the
                     manufactured plane wave, with a corrupted-field
                     negative control.
"""

from __future__ import annotations

import numpy as np

from .dispersion import (DispersionParams, branch_points, branch_sqrt,
                         mu_factors, omega, omega_prime, symmetry_roots)
from .fields import Field
from .linear import global_relation_residual
from .nonlinear import mvt_gap
from .presets import plane_wave_data, plane_wave_exact
from .regions import (DELTA_BOUND_C0, DELTA_BOUND_CPM, DOMINANT_ROOT,
                      RegionLabel, im_omega, r_delta, scaled_delta)
from .transforms import laplace_transform

# parameter sets spanning the discriminant signs (alpha^2 + 3 beta delta)
PARAM_SETS = (
    DispersionParams(1.0, 0.0, 0.0),    # zero (Airy)
    DispersionParams(1.0, 0.0, 3.0),    # positive
    DispersionParams(1.0, 0.0, -3.0),   # negative
    DispersionParams(0.5, 1.0, 1.0),    # positive, all coefficients active
    DispersionParams(2.0, 1.0, -1.0),   # negative, all coefficients active
)
REGION_PARAM_SETS = PARAM_SETS[:3]


def _prop(name, worst, tol, n, note=""):
    entry = {"name": name, "worst_margin": float(worst),
             "tolerance": float(tol), "samples": int(n),
             "passed": bool(worst >= -abs(tol) if tol else worst >= 0.0)}
    if note:
        entry["note"] = note
    return entry


def _sample_off_cut(params, rng, n):
    """Random k avoiding the branch cut and the real axis."""
    k = (rng.uniform(-12, 12, n) + 1j * rng.uniform(-12, 12, n))
    k = k[np.abs(k.imag) > 1e-2]
    bd = branch_points(params)
    if bd.discriminant < 0:
        # vertical cut between the branch points
        mask = ~((np.abs(k.real - params.center) < 1e-2)
                 & (np.abs(k.imag) < abs(bd.b_plus.imag) + 1e-2))
        k = k[mask]
    return k


def suite_symmetries(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n_per = 10_000
    props = []
    worst = {"omega_invariance": np.inf, "vieta_sum": np.inf,
             "im_sum_zero": np.inf, "omega_prime_mu": np.inf,
             "branch_sqrt_square": np.inf}
    total = 0
    for params in PARAM_SETS:
        k = _sample_off_cut(params, rng, n_per)
        total += len(k)
        roots = symmetry_roots(params, k)
        nu0, nup, num = roots
        wk = omega(params, k)
        scale = 1.0 + np.abs(wk)
        inv = np.maximum(np.abs(omega(params, nup) - wk),
                         np.abs(omega(params, num) - wk)) / scale
        worst["omega_invariance"] = min(worst["omega_invariance"],
                                        float(np.min(1e-10 - inv)))
        vieta = np.abs(nu0 + nup + num - params.alpha / params.beta)
        worst["vieta_sum"] = min(worst["vieta_sum"],
                                 float(np.min(1e-11 * np.abs(k).max() - vieta)))
        imsum = np.abs(nu0.imag + nup.imag + num.imag)
        worst["im_sum_zero"] = min(worst["im_sum_zero"],
                                   float(np.min(1e-11 * np.abs(k).max() - imsum)))
        _mu0, mu_plus, mu_minus = mu_factors(roots)
        wp = omega_prime(params, k)
        gap = np.abs(wp + params.beta * mu_plus * mu_minus) / (1.0 + np.abs(wp))
        worst["omega_prime_mu"] = min(worst["omega_prime_mu"],
                                      float(np.min(1e-10 - gap)))
        rad = ((k - params.center) ** 2
               - (4.0 / (9.0 * params.beta ** 2)) * params.discriminant)
        sq = branch_sqrt(params, k)
        sgap = np.abs(sq ** 2 - rad) / (1.0 + np.abs(rad))
        worst["branch_sqrt_square"] = min(worst["branch_sqrt_square"],
                                          float(np.min(1e-12 - sgap)))
    for name, w in worst.items():
        props.append(_prop(name, w, 0.0, total))

    # Airy scaling: nu_pm(k) = e^{+-2 pi i/3} k exactly for real k >= 0
    airy = PARAM_SETS[0]
    kr = rng.uniform(0.0, 20.0, 2000)
    _nu0, nup, num = symmetry_roots(airy, kr + 0.0j)
    rot = np.exp(2j * np.pi / 3.0)
    gap = max(float(np.max(np.abs(nup - rot * kr))),
              float(np.max(np.abs(num - np.conj(rot) * kr))))
    props.append(_prop("airy_scaling", 1e-12 * 20.0 - gap, 0.0, len(kr)))
    return _report("symmetries", seed, props)


def _region_samples(params, rng):
    """1000 points of each of closure(D0), closure(D+), closure(D-) with
    R_Delta <= |k - c0| <= 4 R_Delta."""
    n_per_region = 1000
    rd = r_delta(params)
    out = {RegionLabel.D0: [], RegionLabel.DPLUS: [], RegionLabel.DMINUS: []}
    for _ in range(200):
        if all(len(v) >= n_per_region for v in out.values()):
            break
        r = rng.uniform(rd, 4.0 * rd, 4 * n_per_region)
        th = rng.uniform(0.0, 2.0 * np.pi, 4 * n_per_region)
        k = params.center + r * np.exp(1j * th)
        w = im_omega(params, k)
        neg = w < -1e-9 * (1.0 + np.abs(w))
        up = k.imag > 1e-9
        down = k.imag < -1e-9
        right = k.real - params.center > 1e-9
        for label, mask in ((RegionLabel.D0, neg & up),
                            (RegionLabel.DPLUS, neg & down & right),
                            (RegionLabel.DMINUS, neg & down & ~right)):
            need = n_per_region - len(out[label])
            if need > 0:
                out[label].extend(k[mask][:need])
    return {lab: np.asarray(v, dtype=np.complex128) for lab, v in out.items()}


def suite_regions(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    props = []

    # sign law: sign(Im nu0 * Im nu+ * Im nu-) = -sign(Im omega)
    worst_sign = np.inf
    total = 0
    for params in REGION_PARAM_SETS:
        k = _sample_off_cut(params, rng, 10_000)
        w = im_omega(params, k)
        k = k[np.abs(w) > 1e-6]
        w = w[np.abs(w) > 1e-6]
        total += len(k)
        nu0, nup, num = symmetry_roots(params, k)
        prod = nu0.imag * nup.imag * num.imag
        agree = -np.sign(w) * np.sign(prod)  # +1 when the law holds
        worst_sign = min(worst_sign, float(np.min(agree)))
    props.append(_prop("sign_law", worst_sign, 0.0, total))

    # exclusivity: for k in D_n, exactly Im nu_n > 0, the other two < 0
    worst_excl = np.inf
    total = 0
    for params in REGION_PARAM_SETS:
        samples = _region_samples(params, rng)
        for label, k in samples.items():
            total += len(k)
            ims = [r.imag for r in symmetry_roots(params, k)]
            own = ims.pop(DOMINANT_ROOT[label])
            margin = np.minimum(own, np.minimum(-ims[0], -ims[1]))
            worst_excl = min(worst_excl, float(np.min(margin)))
    props.append(_prop("exclusivity", worst_excl, 0.0, total))

    # lower bounds: Im nu0 >= (sqrt23/(4 sqrt2)) |k-c0| on closure(D0),
    # Im nu_pm >= |k-c0|/4 on closure(D_pm), for |k-c0| >= R_Delta
    c0_const = np.sqrt(23.0) / (4.0 * np.sqrt(2.0))
    worst_lb = np.inf
    total = 0
    for params in REGION_PARAM_SETS:
        samples = _region_samples(params, rng)
        for label, k in samples.items():
            total += len(k)
            own = symmetry_roots(params, k)[DOMINANT_ROOT[label]].imag
            r = np.abs(k - params.center)
            bound = c0_const * r if label is RegionLabel.D0 else 0.25 * r
            worst_lb = min(worst_lb, float(np.min(own - bound)))
    props.append(_prop("im_nu_lower_bound", worst_lb, 0.0, total))
    return _report("regions", seed, props)


def suite_delta_bounds(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    props = []
    worst = np.inf
    total = 0
    for params in REGION_PARAM_SETS:
        samples = _region_samples(params, rng)
        for label, k in samples.items():
            total += len(k)
            roots = symmetry_roots(params, k)
            val = np.abs(scaled_delta(roots, roots[DOMINANT_ROOT[label]]))
            r = np.abs(k - params.center)
            c = DELTA_BOUND_C0 if label is RegionLabel.D0 else DELTA_BOUND_CPM
            worst = min(worst, float(np.min(val - c * r)))
    props.append(_prop("scaled_delta_lower_bound", worst, 0.0, total,
                       note="constants c0=%.6f, cpm=%.6f"
                       % (DELTA_BOUND_C0, DELTA_BOUND_CPM)))
    return _report("delta_bounds", seed, props)


def _l2_halfline(func):
    """L2(0, inf) norm of a decaying function via log-graded quadrature: 64
    uniform points on [0, 1e-6), 4001 geometric ones on [1e-6, 1e5]."""
    x = np.concatenate([np.linspace(0.0, 1e-6, 64, endpoint=False),
                        np.geomspace(1e-6, 1e5, 4001)])
    vals = np.abs(func(x)) ** 2
    return float(np.sqrt(np.trapezoid(vals, x)))


def suite_hardy(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sqrt_pi = np.sqrt(np.pi)
    worst = np.inf
    n_funcs = 100
    for _ in range(n_funcs):
        r_max = rng.uniform(0.5, 3.0)
        n = 129
        r = np.linspace(0.0, r_max, n)
        # smooth random profile: a few random Fourier modes, tapered ends
        modes = rng.integers(1, 6)
        phi = np.zeros(n, dtype=np.complex128)
        for _m in range(modes):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            freq = rng.uniform(0.5, 6.0)
            phi += a * np.sin(np.pi * freq * r / r_max)
        phi *= np.sin(np.pi * r / r_max) ** 2  # compact support taper
        lhs = _l2_halfline(laplace_transform(phi, r_max))
        rhs = sqrt_pi * float(np.sqrt(np.trapezoid(np.abs(phi) ** 2, r)))
        worst = min(worst, rhs - lhs)
    props = [_prop("laplace_l2_bound", worst, 0.0, n_funcs,
                   note="constant sqrt(pi)")]
    return _report("hardy", seed, props)


def suite_rtotau(seed: int) -> dict:
    props = []
    total = 0
    worst = np.inf
    for params in PARAM_SETS:
        r = np.linspace(-1e3, 1e3, 400_001)
        ratio = (1.0 + r ** 2) ** 3 / (1.0 + omega(params, r + 0.0j).real ** 2)
        total += len(r)
        finite = np.all(np.isfinite(ratio))
        r1 = r[int(np.argmax(ratio))]
        bound = max(2.0 / params.beta ** 2, (1.0 + r1 ** 2) ** 3)
        ok = finite and np.max(ratio) <= bound * (1.0 + 1e-12)
        worst = min(worst, float(bound - np.max(ratio)) if ok else -1.0)
    props.append(_prop("axis_ratio_bounded", worst, 0.0, total))
    return _report("rtotau", seed, props)


def suite_mvt(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    props = []
    for lam in (2.0, 2.5, 3.0, 4.0):
        worst = np.inf
        n_pairs = 1000
        for _ in range(n_pairs):
            u1 = complex(rng.standard_normal() + 1j * rng.standard_normal()) * 2.0
            u2 = complex(rng.standard_normal() + 1j * rng.standard_normal()) * 2.0
            direct = (abs(u1) ** (lam - 1.0) * u1
                      - abs(u2) ** (lam - 1.0) * u2)
            gap = abs(mvt_gap(u1, u2, lam) - direct)
            scale = 1.0 + abs(direct)
            worst = min(worst, 1e-9 - gap / scale)
        props.append(_prop("identity_lambda_%g" % lam, worst, 0.0, n_pairs))
    return _report("mvt", seed, props)


def suite_global_relation(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params = DispersionParams(1.0, 0.0, 0.0)
    horizon, a = 0.5, 2.0
    data = plane_wave_data(params, 1.0, horizon, a)
    x = np.linspace(0.0, 1.0, 161)
    t = np.linspace(0.0, horizon, 97)
    field = Field.from_callable(plane_wave_exact(params, a), x, t)
    k_samples = [complex(v) for v in rng.uniform(-4.0, 4.0, 6)]
    k_samples += [1.5 + 0.5j, -2.0 - 0.5j]
    res = global_relation_residual(field, data, k_samples)
    corrupted = Field(x, t, 2.0 * field.values)
    res_bad = global_relation_residual(corrupted, data, k_samples)
    props = [
        _prop("plane_wave_residual", 1e-6 - res, 0.0, len(k_samples),
              note="residual %.3e" % res),
        _prop("corrupted_negative_control", res_bad - 0.1, 0.0,
              len(k_samples), note="residual %.3e" % res_bad),
    ]
    return _report("global_relation", seed, props)


def _report(suite, seed, props):
    return {"suite": suite, "seed": int(seed),
            "passed": all(p["passed"] for p in props),
            "properties": props}


SUITES = {
    "symmetries": suite_symmetries,
    "regions": suite_regions,
    "delta_bounds": suite_delta_bounds,
    "hardy": suite_hardy,
    "rtotau": suite_rtotau,
    "mvt": suite_mvt,
    "global_relation": suite_global_relation,
}


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one named suite (or 'all') and return its JSON-ready report."""
    if name == "all":
        reports = [SUITES[s](seed) for s in SUITES]
        return {"suite": "all", "seed": int(seed),
                "passed": all(r["passed"] for r in reports),
                "suites": reports}
    if name not in SUITES:
        raise KeyError("unknown suite %r; choose from %s or 'all'"
                       % (name, sorted(SUITES)))
    return SUITES[name](seed)

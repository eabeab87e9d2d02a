"""completeness-audit: covariance fits, regime values and Holevo chi.

One job draws a pure Gaussian covariance (determinant 1/4) and a mixed one,
builds closed-form slices of both and sampled slices of the pure state at
position, momentum and two oblique directions drawn per job, and asks
``gaussian_completeness`` for all three regimes.  It also fits the mixed
covariance from four directions and computes ``holevo_chi`` for a random
two-member ensemble on a small grid.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from tomokit import completeness, core, transform

GRID = core.default_grid()
CHI_GRID = core.make_grid(-10.0, 10.0, 256)

VALUE_TOL = 1e-5
VARIANCE_RTOL = 1e-5
CROSS_TOL = 1e-4
DETERMINANT_TOL = 1e-12
CHI_TOL = 1e-6


def make_shared(rng):
    return {}


def _draw(rng):
    sxx = rng.uniform(0.3, 1.5)
    sxp = rng.uniform(0.1, 0.4) * rng.choice([-1.0, 1.0])
    pure = (sxx, (0.25 + sxp ** 2) / sxx, sxp)
    scale = rng.uniform(1.2, 2.5)
    return {"pure": pure,
            "mixed": tuple(scale * c for c in pure),
            "directions": [(1.0, 0.0), (0.0, 1.0), ref.oblique_direction(rng),
                           ref.oblique_direction(rng)],
            "members": [(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 0.9))
                        for _ in range(2)],
            "weight": rng.uniform(0.2, 0.8)}


def make_round(rng, shared):
    return [_draw(rng)]


def _measure(L, slices):
    return L("completeness.MeasurementSet", completeness.MeasurementSet, tuple(slices))


def _cov(est):
    return None if est is None else (est.sigma_xx, est.sigma_pp, est.sigma_xp)


def run_job(shared, inp, L):
    pure = L("transform.GaussianState", transform.GaussianState, *inp["pure"])
    mixed = L("transform.GaussianState", transform.GaussianState, *inp["mixed"])
    dirs = inp["directions"]
    closed_mixed = [L("transform.tomogram_gaussian", transform.tomogram_gaussian,
                      mixed, mu, nu, GRID) for mu, nu in dirs]
    closed_pure = [L("transform.tomogram_gaussian", transform.tomogram_gaussian,
                     pure, mu, nu, GRID) for mu, nu in dirs[:3]]
    psi = L("transform.sample_pure_gaussian", transform.sample_pure_gaussian, pure, GRID)
    sampled = [L("transform.tomogram", transform.tomogram, psi, mu, nu) for mu, nu in dirs[:3]]
    reports = {
        "position/mixed": L("completeness.gaussian_completeness",
                            completeness.gaussian_completeness,
                            _measure(L, closed_mixed[:1])),
        "position-momentum/mixed": L("completeness.gaussian_completeness",
                                     completeness.gaussian_completeness,
                                     _measure(L, closed_mixed[:2])),
        "position-momentum/sampled": L("completeness.gaussian_completeness",
                                       completeness.gaussian_completeness,
                                       _measure(L, sampled[:2])),
        "three/sampled": L("completeness.gaussian_completeness",
                           completeness.gaussian_completeness,
                           _measure(L, sampled), purity_assumed=True),
        "three/closed": L("completeness.gaussian_completeness",
                          completeness.gaussian_completeness,
                          _measure(L, closed_pure), purity_assumed=True),
    }
    fit = L("completeness.covariance_from_tomograms", completeness.covariance_from_tomograms,
            _measure(L, closed_mixed))
    members = tuple(L("core.sample_state", core.sample_state, core.GaussianPreset(*m), CHI_GRID)
                    for m in inp["members"])
    w = inp["weight"]
    ensemble = L("completeness.Ensemble", completeness.Ensemble, [w, 1.0 - w], members)
    return {"reports": {k: {"regime": r.regime, "value": r.value, "cov": _cov(r.covariances)}
                        for k, r in reports.items()},
            "fit": _cov(fit),
            "chi": L("completeness.holevo_chi", completeness.holevo_chi, ensemble)}


def _close(got, want, rtol, atol):
    return got is not None and abs(got - want) <= rtol * abs(want) + atol


def _expect_cov(v, label, got, want, components):
    if got is None:
        v.expect("fit", False, f"{label}: no covariance estimate")
        return
    for i in components:
        tol = (0.0, CROSS_TOL) if i == 2 else (VARIANCE_RTOL, 0.0)
        v.expect("fit", _close(got[i], want[i], *tol),
                 f"{label}: component {i} is {got[i]!r}, drawn {want[i]!r}")


def check(shared, inp, out, v):
    rep = out["reports"]
    mixed, pure = inp["mixed"], inp["pure"]
    regimes = {"position/mixed": "position-only",
               "position-momentum/mixed": "position-and-momentum",
               "position-momentum/sampled": "position-and-momentum",
               "three/sampled": "three-or-more", "three/closed": "three-or-more"}
    for key, regime in regimes.items():
        v.expect("regime_value", rep[key]["regime"] == regime,
                 f"{key}: regime {rep[key]['regime']!r}")
    v.expect("regime_value", rep["position/mixed"]["value"] is None,
             f"position only: value {rep['position/mixed']['value']!r}, not unbounded")
    for key, cov in (("position-momentum/mixed", mixed), ("position-momentum/sampled", pure)):
        want = ref.g_entropy(np.sqrt(cov[0] * cov[1]) - 0.5)
        v.expect("regime_value", _close(rep[key]["value"], want, 0.0, VALUE_TOL),
                 f"{key}: value {rep[key]['value']!r}, g gives {want!r}")
    _expect_cov(v, "position only", rep["position/mixed"]["cov"], mixed, (0,))
    _expect_cov(v, "position-momentum/mixed", rep["position-momentum/mixed"]["cov"], mixed, (0, 1))
    _expect_cov(v, "position-momentum/sampled", rep["position-momentum/sampled"]["cov"], pure, (0, 1))
    _expect_cov(v, "four-direction fit", out["fit"], mixed, (0, 1, 2))
    for key in ("three/sampled", "three/closed"):
        cov = rep[key]["cov"]
        _expect_cov(v, key, cov, pure, (0, 1, 2))
        det = None if cov is None else cov[0] * cov[1] - cov[2] ** 2
        v.expect("purity", rep[key]["value"] == 0.0 and det is not None
                 and abs(det - 0.25) <= DETERMINANT_TOL,
                 f"{key}: value {rep[key]['value']!r}, determinant {det!r}")
    x = CHI_GRID.points
    a, b = (ref.gaussian_amplitudes(x, *m) for m in inp["members"])
    w = inp["weight"]
    want = ref.mixture_entropy_two(w, 1.0 - w, np.vdot(a, b) * CHI_GRID.dx)
    v.expect("chi", abs(out["chi"] - want) <= CHI_TOL, f"chi {out['chi']!r}, 2x2 spectrum {want!r}")


def _nudge_value(out):
    out["reports"]["position-momentum/mixed"]["value"] += 1e-4


def _nudge_fit(out):
    sxx, spp, sxp = out["fit"]
    out["fit"] = (sxx, spp, sxp + 1e-3)


def _nudge_purity(out):
    rep = out["reports"]["three/closed"]
    sxx, spp, sxp = rep["cov"]
    rep["cov"] = (sxx, spp + 1e-9, sxp)


PERTURBATIONS = {
    "regime_value": _nudge_value,
    "fit": _nudge_fit,
    "purity": _nudge_purity,
    "chi": lambda out: out.update(chi=out["chi"] + 1e-5),
}

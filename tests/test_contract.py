"""Contract properties: every drawn valid input of a verb gives an output
within the documented tolerance of an independent reference, or exactly
one documented refusal."""

import contextlib
import math
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings

from tomokit import cli, completeness, core, io, transform
from tomokit.completeness import (MeasurementSet, REGIME_POSITION,
                                  REGIME_POSITION_MOMENTUM, REGIME_THREE_OR_MORE)
from tomokit.errors import ModelMismatchError, UnsupportedError
from tomokit.transform import GaussianState

import oracles
import strategies

# Each fitted component is within 1e-3 of the drawn one, relative to
# max(1, |component|): the fit's own residual limit (README).  A pure
# report sits on the purity manifold to roundoff.
COMPONENT_TOL = 1e-3
DETERMINANT_TOL = 1e-12
# A transform slice passes the unitarity check when its norm is within
# 1e-8 of 1 (README); each written slice is held to that 1e-8 as its L1
# distance from the direct quadrature of the drawn state's closed form,
# and so is that reference's norm on the slice's grid.  Over 600 random
# draws (453 written) the largest distance was 8.7e-14, and the largest
# norm deviation 9.8e-9: slices that pass the check close to its limit.
SLICE_TOL = 1e-8


def _refusal(case):
    """The one documented error of a measure run on ``case``, or None where
    it reports: three or more lines need purity, which a mixed state
    contradicts; fewer lines are position only, or position plus
    momentum."""
    dirs = case["directions"]
    has_pos = any(nu == 0.0 for _, nu in dirs)
    has_mom = any(mu == 0.0 for mu, _ in dirs)
    if len(dirs) >= 3:
        if not case["purity"]:
            return UnsupportedError
        return None if case["scale"] is None else ModelMismatchError
    if (len(dirs) == 2 and has_pos and has_mom) or (len(dirs) == 1 and has_pos):
        return None
    return UnsupportedError


def _close(got, want, tol=COMPONENT_TOL):
    return abs(got - want) <= tol * max(1.0, abs(want))


@settings(max_examples=300, deadline=None)
@given(case=strategies.gaussian_measurements())
# the mixed side of test_pure_report_refuses_exactly_the_mixed_side: purity
# once overwrote this fit instead of refusing it
@example(case={"sigma_xx": 0.7, "sigma_xp": 0.3, "scale": 1.2,
               "directions": [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)], "noise": 1e-4,
               "seed": 5, "purity": True})
def test_measure_reports_the_closed_form_or_refuses(grid, case):
    sxx, sxp, scale = case["sigma_xx"], case["sigma_xp"], case["scale"]
    pure = (sxx, sxp, (0.25 + sxp ** 2) / sxx)
    sxx, sxp, spp = pure if scale is None else (scale * c for c in pure)
    state = GaussianState(sxx, spp, sxp)
    slices = [transform.tomogram_gaussian(state, mu, nu, grid)
              for mu, nu in case["directions"]]
    if case["noise"]:
        slices = [cli._noisy(s, case["noise"], case["seed"], j) for j, s in enumerate(slices)]
    mset = MeasurementSet(tuple(slices))
    error = _refusal(case)
    if error is not None:
        with pytest.raises(error) as refused:
            completeness.gaussian_completeness(mset, purity_assumed=case["purity"])
        assert type(refused.value) is error
        return
    report = completeness.gaussian_completeness(mset, purity_assumed=case["purity"])
    cov = report.covariances
    assert report.purity_assumed is case["purity"]
    if len(case["directions"]) == 1:
        assert (report.regime, report.value) == (REGIME_POSITION, None)
        assert cov.present().keys() == {"sigma_xx"}
        assert _close(cov.sigma_xx, sxx)
    elif len(case["directions"]) == 2:
        # the bound takes the largest determinant the unseen sigma_xp
        # allows, sigma_xx sigma_pp: entropy at nbar = sqrt(det) - 1/2
        assert report.regime == REGIME_POSITION_MOMENTUM
        assert cov.present().keys() == {"sigma_xx", "sigma_pp"}
        assert _close(cov.sigma_xx, sxx) and _close(cov.sigma_pp, spp)
        fitted = math.sqrt(cov.sigma_xx * cov.sigma_pp) - 0.5
        assert report.value == pytest.approx(oracles.thermal_entropy(max(fitted, 0.0)),
                                             rel=1e-12, abs=1e-15)
        # and it lies between the entropies at the ends of those bounds
        low, high = (math.sqrt((sxx + k * COMPONENT_TOL * max(1.0, sxx))
                               * (spp + k * COMPONENT_TOL * max(1.0, spp))) - 0.5
                     for k in (-1, 1))
        assert (oracles.thermal_entropy(max(low, 0.0)) <= report.value
                <= oracles.thermal_entropy(high))
    else:
        # purity fixes |sigma_xp| through sigma_xx sigma_pp - 1/4 and takes
        # its sign from the fit
        assert (report.regime, report.value) == (REGIME_THREE_OR_MORE, 0.0)
        det = cov.sigma_xx * cov.sigma_pp - cov.sigma_xp ** 2
        assert abs(det - 0.25) <= DETERMINANT_TOL
        assert _close(cov.sigma_xx, sxx) and _close(cov.sigma_pp, spp)
        # sigma_xp^2 = sigma_xx sigma_pp - 1/4 carries both variances' errors
        assert _close(cov.sigma_xp ** 2, sxp ** 2, 2 * COMPONENT_TOL)
        assert cov.sigma_xp == 0.0 or abs(sxp) <= COMPONENT_TOL or (
            math.copysign(1.0, cov.sigma_xp) == math.copysign(1.0, sxp))


def _fock(n):
    return np.eye(n + 1)[n]


@settings(max_examples=80, deadline=None)
@given(run=strategies.simulate_runs())
# on the position axis, 1e-9 from it and oblique: written
@example(run={"coefficients": np.array([0.6, 0.0, 0.8j]), "grid": (-12.0, 12.0, 256),
              "directions": [(1.0, 1e-9), (0.9, -0.0), (-0.6, 0.8)]})
# refused by the unitarity check (the slice is narrower than dx), by the
# kernel's rate over the grid's Nyquist, and by the state's admission
@example(run={"coefficients": _fock(4), "grid": (-9.0, 9.0, 64), "directions": [(0.5, 1e-9)]})
@example(run={"coefficients": _fock(0), "grid": (-9.0, 9.0, 64), "directions": [(0.6, 0.8)]})
@example(run={"coefficients": _fock(5), "grid": (-16.0, 16.0, 64), "directions": [(1.5, 0.0)]})
def test_simulate_writes_the_direct_quadrature_or_refuses(tmp_path_factory, run):
    root = tmp_path_factory.mktemp("simulate")
    grid = core.make_grid(*run["grid"])
    amps = sum(cn * oracles.hermite_psi(n, grid.points)
               for n, cn in enumerate(run["coefficients"]))
    io.write_wavefunction_csv(root / "psi.csv", core.WaveFunction(grid, amps))
    out, err = root / "out", StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(["simulate", f"--state={root / 'psi.csv'}", f"--out={out}",
                           *(f"--direction={float(mu)!r},{float(nu)!r}"
                             for mu, nu in run["directions"])])
    if status != 0:
        # the grid under-resolves the state or a slice: one line, nothing written
        [line] = err.getvalue().splitlines()
        assert status == 4 and line.startswith("ERROR resolution-error: ")
        assert not out.exists()
        return
    assert err.getvalue() == ""
    for j, (mu, nu) in enumerate(run["directions"]):
        s = io.read_slice_csv(out / f"slice_{j:03d}.csv")
        want = oracles.hermite_tomogram(run["coefficients"], mu, nu, s.grid.points)
        distance = np.sum(np.abs(s.density - want)) * s.grid.dx
        assert distance <= SLICE_TOL
        # and the grid holds the slice: the reference keeps the unit norm
        # that the written slice was checked for, up to their distance
        assert abs(math.sqrt(np.sum(want) * s.grid.dx) - 1.0) <= SLICE_TOL + distance

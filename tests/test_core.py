import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import InterpolatedUnivariateSpline

from tomokit import cli, core, dynamics, reconstruct, transform
from tomokit.errors import (InvalidArgumentError, ResolutionError, TomokitError,
                            UnsupportedError)

import oracles


def test_grid_points_and_spacing():
    g = core.make_grid(-3.0, 3.0, 7)
    assert g.points[0] == -3.0
    assert g.points[-1] == 3.0
    assert g.dx == pytest.approx(1.0)
    assert g.x_max == pytest.approx(3.0)
    assert g.n_points == 7


def test_default_grid_shape():
    g = core.default_grid()
    assert g.n_points == 2048
    assert g.points[0] == -12.0
    assert g.x_max == pytest.approx(12.0)


def test_grid_points_read_only():
    g = core.make_grid(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        g.points[0] = 99.0


def test_grid_with_an_infinite_end_is_refused():
    with pytest.raises(InvalidArgumentError, match="finite"):
        core.SpatialGrid(0.0, 1e308, 3)


# edge values: the float range's ends, subnormals and non-finite numbers
_EDGES = st.sampled_from([-1e308, 1e308, -1.7976931348623157e308, 1.7976931348623157e308,
                          -5e-324, 5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1.0,
                          math.nan, math.inf, -math.inf])
_VALUES = st.lists(_EDGES | st.floats(), max_size=5)


def _accepted(make) -> bool:
    try:
        make()
    except InvalidArgumentError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(values=_VALUES | _VALUES.map(sorted))
@example(values=[-1e308, 1e308])
@example(values=[0.0, 1.0, math.inf])
@example(values=[math.nan])
@example(values=[1.0, 1.0])
@example(values=[6.606186373092659e16])
def test_ordered_axes_accept_exactly_the_finite_increasing_lists(values):
    # every caller of core._increasing, with every warning an error
    ordered = (all(map(math.isfinite, values))
               and all(a < b for a, b in zip(values, values[1:])))
    n = len(values)
    grid = core.make_grid(-8.0, 8.0, 128)
    psi = core.sample_state(core.GaussianPreset(), grid)
    pos = transform.tomogram(psi, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ordered == _accepted(lambda: core._increasing(values, "v"))
        if ordered:
            v = core._increasing(values, "v")
            assert v.dtype == np.float64 and v.tolist() == values
            assert not v.flags.writeable
        assert ordered == _accepted(lambda: reconstruct.PiecewiseState(
            values, np.ones(grid.n_points), np.zeros(n + 1), grid))
        assert (ordered and n >= 1) == _accepted(
            lambda: cli._parse_breakpoints(",".join(map(repr, values))))
        assert (ordered and n >= 1) == _accepted(
            lambda: dynamics.PositionHistory(values, [pos] * n))
        assert (ordered and n >= 2) == _accepted(lambda: dynamics.OscillatorTrajectory(
            values, [1.0] * n, [1j] * n, [0.0] * n))
        assert (ordered and n >= 1 and values[0] >= 0.0) == _accepted(
            lambda: dynamics.harmonic_position_history(psi, values))


@pytest.mark.parametrize("args", [(-1.0, 1.0, 1), (1.0, -1.0, 8), (0.0, 0.0, 8)])
def test_make_grid_rejects_bad_arguments(args):
    with pytest.raises(InvalidArgumentError):
        core.make_grid(*args)


def test_wavefunction_normalizes(grid):
    psi = core.WaveFunction(grid, np.exp(-grid.points ** 2))
    nrm = np.sqrt(np.sum(np.abs(psi.amplitudes) ** 2) * grid.dx)
    assert nrm == pytest.approx(1.0, abs=1e-12)


def test_wavefunction_verify_mode_rejects_unnormalized(grid):
    with pytest.raises(InvalidArgumentError):
        core.WaveFunction(grid, np.exp(-grid.points ** 2), normalize=False)


def test_wavefunction_amplitudes_read_only(vacuum):
    with pytest.raises(ValueError):
        vacuum.amplitudes[0] = 1.0


def test_wavefunction_fields_cannot_be_reassigned(vacuum):
    for name in ("grid", "amplitudes"):
        with pytest.raises(AttributeError):
            setattr(vacuum, name, getattr(vacuum, name))


def test_wavefunction_zero_amplitudes_rejected(grid):
    with pytest.raises(InvalidArgumentError):
        core.WaveFunction(grid, np.zeros(grid.n_points))


# a Gaussian on 64 samples at the default grid's spacing
_BUMP = np.exp(-0.5 * ((np.arange(64) - 32.0) / 6.0) ** 2).astype(complex)
_DEFAULT_DX = 24.0 / 2047


@settings(max_examples=300, deadline=None)
@given(scale=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       shape=arrays(complex, 64, elements=st.complex_numbers(
           max_magnitude=1.0, allow_nan=False, allow_infinity=False)),
       dx=st.floats(-3.0, 12.0).map(lambda e: 10.0 ** e))
@example(scale=1e200, shape=_BUMP, dx=_DEFAULT_DX)   # the squares overflow
@example(scale=1e-161, shape=_BUMP, dx=_DEFAULT_DX)  # the squares are subnormal
def test_wavefunction_has_unit_norm_or_is_rejected(scale, shape, dx):
    grid = core.SpatialGrid(0.0, dx, 64)
    with np.errstate(over="ignore", invalid="ignore"):
        amps = scale * shape
    try:
        psi = core.WaveFunction(grid, amps)
    except InvalidArgumentError:
        return
    nrm2 = math.fsum((np.abs(psi.amplitudes) ** 2).tolist()) * dx
    assert abs(nrm2 - 1.0) <= 1e-9


def test_inner_product_conjugate_symmetry(grid):
    rng = np.random.default_rng(3)
    a = core.WaveFunction(grid, rng.standard_normal(grid.n_points)
                          + 1j * rng.standard_normal(grid.n_points))
    b = core.WaveFunction(grid, rng.standard_normal(grid.n_points)
                          + 1j * rng.standard_normal(grid.n_points))
    assert a.inner(b) == pytest.approx(np.conj(b.inner(a)), abs=1e-12)


def test_inner_product_grid_mismatch(vacuum, small_grid):
    other = core.sample_state(core.GaussianPreset(), small_grid)
    with pytest.raises(InvalidArgumentError):
        vacuum.inner(other)


def test_vacuum_peak_density(vacuum):
    """The even default grid has no sample at x = 0, so interpolate."""
    x = vacuum.grid.points
    spline = InterpolatedUnivariateSpline(x, vacuum.density(), k=3)
    assert abs(float(spline(0.0)) - 1.0 / np.sqrt(np.pi)) < 1e-6


def test_gaussian_preset_center_and_momentum(grid):
    psi = core.sample_state(core.GaussianPreset(x0=1.5, p0=-0.7), grid)
    x = grid.points
    mean_x = float(np.sum(x * psi.density()) * grid.dx)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, grid.dx)
    spectrum = np.abs(np.fft.fft(psi.amplitudes)) ** 2
    mean_p = float(np.sum(k * spectrum) / np.sum(spectrum))
    assert mean_x == pytest.approx(1.5, abs=1e-9)
    assert mean_p == pytest.approx(-0.7, abs=1e-9)


def test_gaussian_preset_rejects_bad_sigma():
    with pytest.raises(InvalidArgumentError):
        core.GaussianPreset(sigma=0.0)


def test_fock_orthonormality(grid):
    states = [core.sample_state(core.FockPreset(n), grid) for n in range(6)]
    gram = np.array([[a.inner(b) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_fock_matches_hermite_oracle(grid):
    psi = core.sample_state(core.FockPreset(3), grid)
    ref = oracles.hermite_psi(3, grid.points)
    assert np.max(np.abs(psi.amplitudes - ref)) < 1e-12


def test_fock_cutoff_enforced(grid):
    core.sample_state(core.FockPreset(core.FOCK_N_MAX), grid)
    with pytest.raises(UnsupportedError):
        core.sample_state(core.FockPreset(core.FOCK_N_MAX + 1), grid)


def test_fock_preset_rejects_negative_index():
    with pytest.raises(InvalidArgumentError):
        core.FockPreset(-1)


def test_boundary_leak_warning(grid):
    with pytest.warns(core.BoundaryLeakWarning, match=r"\(limit 1e-08\)$") as record:
        core.sample_state(core.GaussianPreset(sigma=6.0), grid)
    # the warning points at the caller of sample_state
    assert [w.filename for w in record] == [__file__]


def test_undersampled_state_rejected():
    coarse = core.make_grid(-12.0, 12.0, 16)
    with pytest.raises(ResolutionError, match="n_points >= 32"):
        core.sample_state(core.GaussianPreset(), coarse)
    core.sample_state(core.GaussianPreset(), core.make_grid(-12.0, 12.0, 64))


@pytest.mark.parametrize("x_min", [-1e308, -1e200])
@pytest.mark.parametrize("preset", [core.GaussianPreset(), core.FockPreset(0),
                                    core.FockPreset(3)], ids=repr)
def test_grid_whose_squares_overflow_fails_without_numpy_warnings(preset, x_min):
    # pytest turns a numpy RuntimeWarning into an error here; all amplitudes
    # but the last, or all of them, are an exact 0
    with pytest.raises(TomokitError):
        core.sample_state(preset, core.make_grid(x_min, 12.0, 256))


@pytest.mark.parametrize("p0", [1e308, -1e308])
def test_momentum_past_the_float_range_is_unresolved(p0):
    with pytest.raises(ResolutionError, match="nan of the spectral energy"):
        core.sample_state(core.GaussianPreset(0.5, p0, 0.8),
                          core.make_grid(-12.0, 12.0, 256))


def test_unknown_preset_rejected(grid):
    with pytest.raises(InvalidArgumentError):
        core.sample_state("squeezed", grid)

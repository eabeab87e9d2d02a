import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tomokit import completeness, core, dynamics, io, reconstruct, transform
from tomokit.errors import (
    InvalidArgumentError,
    InvalidCovarianceError,
    ResolutionError,
)
from tomokit.transform import GaussianState, TomogramSlice

import oracles
import strategies


@pytest.fixture(scope="module")
def superposition(grid):
    """Fixed three-mode Fock superposition with nontrivial phases."""
    amps = (core.sample_state(core.FockPreset(0), grid).amplitudes
            + 0.5 * core.sample_state(core.FockPreset(2), grid).amplitudes
            + 0.25j * core.sample_state(core.FockPreset(3), grid).amplitudes)
    return core.WaveFunction(grid, amps)


@pytest.mark.parametrize("mu,nu", [(0.7, 0.7), (1.0, 0.3), (0.0, 1.0),
                                   (-0.5, 1.2)])
def test_transform_matches_direct_quadrature(superposition, mu, nu):
    grid = superposition.grid
    got = transform._transform_samples(superposition.amplitudes, grid, mu, nu,
                                       grid)
    want = oracles.direct_transform(superposition.amplitudes,
                                    superposition.grid.points, mu, nu,
                                    superposition.grid.points)
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("mu,nu", [(0.7, 0.7), (-0.5, 1.2)])
def test_transform_samples_onto_other_grid(superposition, mu, nu):
    out_grid = core.make_grid(-9.0, 11.0, 1500)
    got = transform._transform_samples(superposition.amplitudes,
                                       superposition.grid, mu, nu, out_grid)
    want = oracles.direct_transform(superposition.amplitudes,
                                    superposition.grid.points, mu, nu,
                                    out_grid.points)
    assert got.shape == (out_grid.n_points,)
    assert np.max(np.abs(got - want)) < 1e-9


def test_cached_plan_matches_cold_plan(superposition):
    args = (superposition.grid, 0.6, 0.8, superposition.grid)
    transform._plan.cache_clear()
    cold = transform._transform_samples(superposition.amplitudes, *args)
    warm = transform._transform_samples(superposition.amplitudes, *args)
    assert transform._plan.cache_info().hits >= 1
    assert np.array_equal(cold, warm)


def test_batched_transform_equals_single_calls(superposition, vacuum):
    grid = superposition.grid
    stack = np.stack([superposition.amplitudes, vacuum.amplitudes,
                      superposition.amplitudes.real])
    batched = transform._transform_samples(stack, grid, -0.3, 0.9, grid)
    assert batched.shape == stack.shape
    for row, values in zip(batched, stack):
        single = transform._transform_samples(values, grid, -0.3, 0.9, grid)
        assert np.array_equal(row, single)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("mu,nu", [(-0.6, 0.8), (0.999, 0.01)],
                         ids=["oblique", "near-axis"])
def test_transform_samples_equal_the_three_temporary_formula(
        superposition, vacuum, rows, mu, nu):
    # _quadrature hands _transform_samples the position samples, or near
    # the position axis the momentum samples at (nu, -mu)
    grid = superposition.grid
    stack = np.stack([superposition.amplitudes, vacuum.amplitudes,
                      superposition.amplitudes.real])[:rows]
    with mock.patch.object(transform, "_transform_samples",
                           wraps=transform._transform_samples) as spy:
        transform._quadrature(stack, grid, mu, nu, grid)
    [call] = spy.call_args_list
    values, in_grid, a, b, out_grid = call.args
    assert (in_grid == grid) == (abs(nu) > abs(mu))
    kept = values.copy()
    first = transform._transform_samples(*call.args)
    second = transform._transform_samples(*call.args)
    want = oracles.bluestein_reference(
        values, transform._plan(in_grid, a, b, out_grid), out_grid.n_points)
    assert np.array_equal(first, want)
    assert np.array_equal(second, want)
    assert np.array_equal(values, kept)
    assert not np.shares_memory(first, second)


def test_plan_arrays_are_read_only(grid):
    plan = transform._plan(grid, 0.7, 0.7, core.make_grid(-5.0, 5.0, 300))
    assert plan.ker.size == 4096
    for v in plan:
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0


@pytest.mark.parametrize("shape", ["equal", "wider-output", "momentum-samples"])
def test_plan_kernel_equals_the_two_exp_chirp(grid, vacuum, shape):
    mu, nu = 0.6, 0.8
    if shape == "equal":
        in_grid, out_grid = grid, grid
    elif shape == "wider-output":
        in_grid, out_grid = grid, core.make_grid(-9.0, 11.0, 3000)
    else:
        # _quadrature's momentum path: 4096 wavenumbers onto the grid
        in_grid, out_grid = transform._momentum(vacuum.amplitudes, grid, 4096)[1], grid
        mu, nu = nu, -mu
    n_in, n_out = in_grid.n_points, out_grid.n_points
    a = in_grid.dx * out_grid.dx / nu
    chirp = np.zeros(1 << (n_in + n_out - 2).bit_length(), dtype=complex)
    chirp[:n_out] = np.exp(0.5j * a * np.arange(n_out, dtype=float) ** 2)
    chirp[chirp.size - n_in + 1:] = np.exp(
        0.5j * a * np.arange(n_in - 1, 0, -1, dtype=float) ** 2)
    plan = transform._plan(in_grid, mu, nu, out_grid)
    assert np.array_equal(plan.ker, np.fft.fft(chirp))


def test_transform_preserves_norm(grid, superposition):
    rng = np.random.default_rng(7)
    for _ in range(5):
        theta = rng.uniform(0.2, np.pi - 0.2)
        r = rng.uniform(0.5, 1.3)
        s = transform.tomogram(superposition, r * np.cos(theta),
                               r * np.sin(theta))
        assert abs(np.sqrt(np.sum(s.density) * grid.dx) - 1.0) < 1e-8


def test_double_fourier_is_parity(vacuum, grid):
    """Applying the (0, 1) transform twice flips the argument."""
    psi = core.WaveFunction(
        grid, vacuum.amplitudes * np.exp(1j * 0.8 * grid.points))
    once = transform._transform_samples(psi.amplitudes, grid, 0.0, 1.0, grid)
    twice = transform._transform_samples(once, grid, 0.0, 1.0, grid)
    mirrored = psi.amplitudes[::-1]
    # Global phase is not fixed by the kernel; compare up to it.
    k = np.argmax(np.abs(mirrored))
    phase = mirrored[k] / twice[k]
    assert abs(abs(phase) - 1.0) < 1e-8
    assert np.max(np.abs(twice * phase - mirrored)) < 1e-7


def test_tomogram_scaling_branch_identity(vacuum):
    s = transform.tomogram(vacuum, 1.0, 0.0)
    assert np.max(np.abs(s.density - vacuum.density())) < 1e-12


def test_tomogram_scaling_branch_stretches(vacuum, grid):
    s = transform.tomogram(vacuum, 2.0, 0.0)
    want = np.exp(-grid.points ** 2 / 4.0) / (2.0 * np.sqrt(np.pi))
    assert np.max(np.abs(s.density - want)) < 1e-6


def test_tomogram_scaling_branch_overflow(grid):
    wide = core.sample_state(core.GaussianPreset(sigma=1.2), grid)
    with pytest.raises(ResolutionError):
        transform.tomogram(wide, 8.0, 0.0)


def test_tomogram_rejects_null_direction(vacuum):
    with pytest.raises(InvalidArgumentError):
        transform.tomogram(vacuum, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        transform.tomogram(vacuum, np.nan, 1.0)


@pytest.mark.parametrize("nu", [0.05, 1e-3, 1e-6, 0.99e-6, 1e-9, -1e-4])
def test_near_axis_tomogram_matches_closed_form(vacuum, grid, nu):
    # Unit directions between the position axis and about 0.07 rad, which
    # the position samples cannot resolve, come from the momentum samples.
    mu = np.sqrt(1.0 - nu ** 2)
    s = transform.tomogram(vacuum, mu, nu)
    want = oracles.gaussian_slice_density(0.5, 0.5, 0.0, mu, nu, grid.points)
    assert (s.mu, s.nu) == (mu, nu)
    assert np.max(np.abs(s.density - want)) < 1e-12


@pytest.mark.parametrize("mu,nu", [(0.0, 0.01), (1e-9, 0.01)])
def test_unresolvable_direction_suggests_grid(vacuum, mu, nu):
    with pytest.raises(ResolutionError, match="n_points >= 9172"):
        transform.tomogram(vacuum, mu, nu)


def test_resolution_precheck_suggests_larger_grid(vacuum):
    small = core.make_grid(-12.0, 12.0, 128)
    psi = core.sample_state(core.GaussianPreset(), small)
    with pytest.raises(ResolutionError, match="n_points"):
        transform.tomogram(psi, 0.04, 0.05)


def test_slice_rejects_negative_density(grid):
    dens = np.exp(-grid.points ** 2) / np.sqrt(np.pi)
    dens[10] = -1e-3
    with pytest.raises(InvalidArgumentError):
        TomogramSlice(1.0, 0.0, grid, dens)


def test_slice_rejects_unnormalized_density(grid):
    dens = np.exp(-grid.points ** 2)
    with pytest.raises(InvalidArgumentError):
        TomogramSlice(1.0, 0.0, grid, dens)
    s = TomogramSlice(1.0, 0.0, grid, dens / float(dens.sum() * grid.dx))
    assert float(np.sum(s.density) * grid.dx) == pytest.approx(1.0)


def test_slice_is_read_only(grid):
    # a relabelled slice would meet fits memoised under its old direction
    s = TomogramSlice(1.0, 0.0, grid, np.exp(-grid.points ** 2) / np.sqrt(np.pi))
    for name in ("mu", "nu", "grid", "density"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
    assert not s.density.flags.writeable


def test_slice_rejects_null_direction(grid):
    dens = np.exp(-grid.points ** 2) / np.sqrt(np.pi)
    with pytest.raises(InvalidArgumentError):
        TomogramSlice(0.0, 0.0, grid, dens)


def _direction_entry_points() -> tuple[str, ...]:
    """Every public callable of the library modules with both a ``mu`` and
    a ``nu`` parameter."""
    found = []
    for module in (core, transform, dynamics, reconstruct, completeness, io):
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # a warning class has no signature
                continue
            if {"mu", "nu"} <= params.keys():
                found.append(name)
    return tuple(sorted(found))


_ENTRY_POINTS = _direction_entry_points()


@pytest.fixture(scope="module")
def direction_entry_points():
    """Every public call that takes a direction, as f(mu, nu)."""
    grid = core.make_grid(-10.0, 10.0, 256)
    psi = core.sample_state(core.GaussianPreset(), grid)
    pos = transform.tomogram(psi, 1.0, 0.0)
    pieces = reconstruct.piecewise_from_position([], pos)
    history = dynamics.PositionHistory([0.8 / 0.6], [pos])  # reaches (0.6, 0.8)
    calls = {
        "TomogramSlice": lambda mu, nu: TomogramSlice(mu, nu, grid, pos.density),
        "tomogram": lambda mu, nu: transform.tomogram(psi, mu, nu),
        "tomogram_gaussian": lambda mu, nu: transform.tomogram_gaussian(
            GaussianState(0.5, 0.5), mu, nu, grid),
        "segment_transforms": lambda mu, nu: reconstruct.segment_transforms(
            pieces, grid, mu, nu),
        "initial_tomogram_from_position_history":
            lambda mu, nu: dynamics.initial_tomogram_from_position_history(
                history, mu, nu),
    }
    assert sorted(calls) == list(_ENTRY_POINTS)
    return calls


@pytest.mark.parametrize("direction", [(0.0, 0.0), (np.nan, 1.0), (1.0, np.inf)])
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_every_entry_point_applies_one_direction_rule(direction_entry_points,
                                                     entry, direction):
    call = direction_entry_points[entry]
    call(0.6, 0.8)  # a valid direction passes
    with pytest.raises(InvalidArgumentError) as exc:
        call(*direction)
    assert str(exc.value) == "direction (mu, nu) must be finite, not (0, 0)"


@pytest.mark.parametrize("bad", [
    dict(sigma_xx=-1.0, sigma_pp=1.0),
    dict(sigma_xx=1.0, sigma_pp=0.0),
    dict(sigma_xx=0.5, sigma_pp=0.4, sigma_xp=0.0),
    dict(sigma_xx=1.0, sigma_pp=1.0, sigma_xp=np.inf),
    dict(sigma_xx=1.0, sigma_pp=1.0, sigma_xp=1e200),  # sigma_xp ** 2 overflows
])
def test_gaussian_state_rejects_bad_covariances(bad):
    with pytest.raises(InvalidCovarianceError):
        GaussianState(**bad)


def test_gaussian_state_determinant():
    st = GaussianState(sigma_xx=1.0, sigma_pp=0.5, sigma_xp=0.25)
    assert st.determinant == pytest.approx(0.4375)


@pytest.mark.parametrize("mu,nu", [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)])
def test_gaussian_tomogram_closed_form(grid, mu, nu):
    st = GaussianState(sigma_xx=0.8, sigma_pp=0.45, sigma_xp=0.2)
    s = transform.tomogram_gaussian(st, mu, nu, grid)
    want = oracles.gaussian_slice_density(0.8, 0.45, 0.2, mu, nu, grid.points)
    assert np.max(np.abs(s.density - want)) < 1e-12


def test_gaussian_tomogram_rejects_narrow_grid():
    tight = core.make_grid(-2.0, 2.0, 256)
    st = GaussianState(sigma_xx=4.0, sigma_pp=1.0)
    with pytest.raises(ResolutionError):
        transform.tomogram_gaussian(st, 1.0, 0.0, tight)


@pytest.mark.parametrize("state, mu, nu", [
    (GaussianState(0.5, 0.5), 1e200, 0.0),   # mu ** 2 overflows
    (GaussianState(0.5, 0.5), 0.0, -1e200),  # nu ** 2 overflows
    (GaussianState(1e300, 1.0), 1e5, 0.0),   # the product overflows
])
def test_gaussian_tomogram_overflowing_variance(grid, state, mu, nu):
    with pytest.raises(ResolutionError, match=r"quadrature variance at .* overflows"):
        transform.tomogram_gaussian(state, mu, nu, grid)


def test_sampled_pure_gaussian_matches_closed_form(grid):
    sxx, sxp = 0.7, 0.3
    spp = (0.25 + sxp ** 2) / sxx
    st = GaussianState(sigma_xx=sxx, sigma_pp=spp, sigma_xp=sxp)
    psi = transform.sample_pure_gaussian(st, grid)
    for mu, nu in [(1.0, 0.0), (0.0, 1.0), (0.8, 0.6)]:
        s = transform.tomogram(psi, mu, nu)
        ref = transform.tomogram_gaussian(st, mu, nu, grid)
        assert np.max(np.abs(s.density - ref.density)) < 1e-8


def test_sample_pure_gaussian_rejects_mixed_covariance(grid):
    with pytest.raises(InvalidArgumentError):
        transform.sample_pure_gaussian(
            GaussianState(sigma_xx=1.0, sigma_pp=1.0), grid)


def test_fresnel_matches_transform_path(grid, vacuum):
    for nu in (0.5, 1.0):
        direct = oracles.fresnel_tomogram(vacuum.amplitudes, grid.points, nu)
        via = transform.tomogram(vacuum, 1.0, nu)
        assert np.max(np.abs(direct - via.density)) < 1e-9


# ---------------------------------------------------------------- properties
# Every direction, |nu| down to 1e-9, nu = 0 with mu != 1, and mu < 0.


@settings(max_examples=40, deadline=None)
@given(d=strategies.directions(), x0=st.floats(-1.5, 1.5),
       p0=st.floats(-1.5, 1.5), sigma=st.floats(0.6, 0.9))
def test_displaced_gaussian_slices_match_closed_form(grid, d, x0, p0, sigma):
    mu, nu = d
    mean = mu * x0 + nu * p0
    var = (mu * sigma) ** 2 + (nu / (2.0 * sigma)) ** 2
    assume(abs(mean) + 8.0 * np.sqrt(var) < 12.0)
    psi = core.sample_state(core.GaussianPreset(x0, p0, sigma), grid)
    s = transform.tomogram(psi, mu, nu)
    want = (np.exp(-(grid.points - mean) ** 2 / (2.0 * var))
            / np.sqrt(2.0 * np.pi * var))
    assert np.max(np.abs(s.density - want)) < 1e-11


@settings(max_examples=40, deadline=None)
@given(d=strategies.directions(), sxx=st.floats(0.3, 1.0), sxp=st.floats(-0.3, 0.3))
def test_squeezed_gaussian_slices_match_tomogram_gaussian(grid, d, sxx, sxp):
    state = GaussianState(sxx, (0.25 + sxp ** 2) / sxx, sxp)
    psi = transform.sample_pure_gaussian(state, grid)
    s = transform.tomogram(psi, *d)
    ref = transform.tomogram_gaussian(state, *d, grid)
    assert np.max(np.abs(s.density - ref.density)) < 1e-11


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 8), d=strategies.directions())
def test_fock_slices_are_rotation_invariant(grid, n, d):
    # w(X; mu, nu) = |h_n(X/r)|^2 / r with r = |(mu, nu)|
    r = np.hypot(*d)
    psi = core.sample_state(core.FockPreset(n), grid)
    s = transform.tomogram(psi, *d)
    want = oracles.hermite_psi(n, grid.points / r) ** 2 / r
    assert np.max(np.abs(s.density - want)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(d=strategies.directions(),
       coeffs=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=4, max_size=4))
def test_reflected_direction_reflects_slice(grid, d, coeffs):
    # w(X; -mu, -nu) = w(-X; mu, nu); the default grid is symmetric about 0
    c = np.array([a + 1j * b for a, b in coeffs])
    assume(np.sum(np.abs(c) ** 2) > 0.01)
    amps = sum(cn * core.sample_state(core.FockPreset(n), grid).amplitudes
               for n, cn in enumerate(c))
    psi = core.WaveFunction(grid, amps)
    mu, nu = d
    there = transform.tomogram(psi, mu, nu).density
    back = transform.tomogram(psi, -mu, -nu).density
    assert np.max(np.abs(back - there[::-1])) < 1e-12

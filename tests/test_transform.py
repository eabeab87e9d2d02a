import dataclasses
import inspect
import sys
import threading
import weakref
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
    # fewer outputs than one 64-index block of the output phase, fewer
    # than the inputs, and more
    for n_out in (37, 1500, 3000):
        out_grid = core.make_grid(-9.0, 11.0, n_out)
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


def test_reused_work_buffer_never_leaks(superposition, vacuum):
    # one plan, stacks of 1, 3 and 2 rows in turn: no result is a view of
    # the work buffer, and no later call moves an earlier result
    grid = superposition.grid
    rows = [superposition.amplitudes, vacuum.amplitudes, superposition.amplitudes.real]
    results, kept = [], []
    for count in (1, 3, 2):
        results.append(transform._transform_samples(np.stack(rows[:count]), grid,
                                                    0.6, 0.8, grid))
        kept.append(results[-1].copy())
        for got, want in zip(results, kept):
            assert not np.shares_memory(got, transform._work.array)
            assert np.array_equal(got, want)


def test_threads_do_not_share_the_work_buffer(superposition, vacuum):
    # transforms of different stacks on one plan, run concurrently, each
    # equal to its single-threaded result
    grid = superposition.grid
    stacks = [np.stack([superposition.amplitudes, vacuum.amplitudes][:1 + j % 2]) * (j + 1)
              for j in range(4)]
    want = [transform._transform_samples(s, grid, 0.6, 0.8, grid) for s in stacks]
    wrong = []

    def work(j):
        for _ in range(40):
            got = transform._transform_samples(stacks[j], grid, 0.6, 0.8, grid)
            if not np.array_equal(got, want[j]):
                wrong.append(j)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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


@pytest.mark.parametrize("shape", ["equal", "wider-output", "narrower-output",
                                   "momentum-samples", "short"])
def test_plan_post_matches_the_decimal_phase(grid, vacuum, shape):
    mu, nu = 0.6, 0.8
    in_grid, out_grid = grid, grid
    if shape == "wider-output":
        out_grid = core.make_grid(-9.0, 11.0, 3000)
    elif shape == "narrower-output":
        out_grid = core.make_grid(-5.0, 5.0, 300)
    elif shape == "momentum-samples":
        in_grid = transform._momentum(vacuum.amplitudes, grid, 4096)[1]
        mu, nu = nu, -mu
    elif shape == "short":
        in_grid, out_grid = core.make_grid(-3.0, 3.0, 40), core.make_grid(-2.0, 2.5, 37)
    n_out = out_grid.n_points
    ks = np.unique(np.linspace(0, n_out - 1, 129).astype(int))
    assert ks[0] == 0 and ks[-1] == n_out - 1 and ks.size >= min(64, n_out)
    want, phase = oracles.plan_post_reference(in_grid, nu, out_grid, ks)
    w = in_grid.dx / np.sqrt(2.0 * np.pi * abs(nu))
    bound = 8 * np.finfo(float).eps * (1.0 + np.abs(phase).max()) * w
    got = transform._plan(in_grid, mu, nu, out_grid).post[ks]
    assert np.max(np.abs(got - want)) < bound
    # the bound also holds the single-exponential formula
    a = in_grid.dx * out_grid.dx / nu
    one_exp = np.exp(-1j * (0.5 * a * ks.astype(float) ** 2
                            + out_grid.points[ks] * in_grid.x_min / nu)) * w
    assert np.max(np.abs(one_exp - want)) < bound


def test_cold_plan_evaluates_two_full_length_exponentials(grid):
    # the input chirp and the kernel chirp; the output vector reuses the
    # kernel chirp and adds a few short exponentials
    exp = np.exp
    count = []

    def counted(x, *args, **kwargs):
        out = exp(x, *args, **kwargs)
        if np.iscomplexobj(out):
            count.append(np.size(out))
        return out

    with mock.patch.object(np, "exp", counted):
        transform._plan.__wrapped__(grid, 0.6, 0.8, grid)
    assert 2 * grid.n_points <= sum(count) <= 4193


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


def test_slices_are_distinct_by_identity(grid):
    # the weak memos key on the slice object, never on its fields
    dens = np.exp(-grid.points ** 2) / np.sqrt(np.pi)
    a, b = (TomogramSlice(1.0, 0.0, grid, dens) for _ in range(2))
    assert a != b and a == a
    assert hash(a) != hash(b)
    assert weakref.ref(a)() is a


def test_replaced_slice_runs_the_checks(grid):
    s = TomogramSlice(1.0, 0.0, grid, np.exp(-grid.points ** 2) / np.sqrt(np.pi))
    with pytest.raises(InvalidArgumentError, match="integrates to"):
        dataclasses.replace(s, density=2.0 * s.density)


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
    history = dynamics.PositionHistory([0.8 / 0.6], [pos])  # reaches (0.6, 0.8)
    calls = {
        "TomogramSlice": lambda mu, nu: TomogramSlice(mu, nu, grid, pos.density),
        "tomogram": lambda mu, nu: transform.tomogram(psi, mu, nu),
        "tomogram_gaussian": lambda mu, nu: transform.tomogram_gaussian(
            GaussianState(0.5, 0.5), mu, nu, grid),
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


@pytest.mark.parametrize("ratio", [0.9, 1.1])
def test_gaussian_tomogram_refuses_a_slice_narrower_than_dx(grid, ratio):
    # the analyser's width rule: a slice it would refuse is not generated
    sxx = (ratio * grid.dx) ** 2
    state = GaussianState(sxx, 0.25 / sxx)
    if ratio < 1.0:
        with pytest.raises(ResolutionError, match=r"^slice at \(1\.0, 0\.0\) is narrower "
                           r"than dx: dx is 1\.11 standard deviations \(limit 1\.0\)$"):
            transform.tomogram_gaussian(state, 1.0, 0.0, grid)
    else:
        s = transform.tomogram_gaussian(state, 1.0, 0.0, grid)
        est = completeness.covariance_from_tomograms(completeness.MeasurementSet((s,)))
        assert est.sigma_xx == pytest.approx(sxx, rel=1e-9)


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


@pytest.mark.parametrize("x_min", [-1e308, -1e200])
def test_sample_pure_gaussian_where_squares_overflow(x_min):
    state = GaussianState(1.0, 0.3125, 0.25)
    narrow = core.make_grid(-2.0, 2.0, 256)
    with pytest.warns(core.BoundaryLeakWarning) as record:
        transform.sample_pure_gaussian(state, narrow)
    assert [w.filename for w in record] == [__file__]
    # exp(-inf + i nan) is 0, with no numpy warning: one nonzero sample is
    # refused as under-resolved, as sample_state refuses it on this grid
    with pytest.raises(ResolutionError, match="of the spectral energy"):
        transform.sample_pure_gaussian(state, core.make_grid(x_min, 12.0, 256))


def test_sample_pure_gaussian_refuses_an_aliased_chirp(grid):
    # exp(50 i x^2) runs at 1200 rad per unit at the edge, past the grid's
    # Nyquist rate of 268: unrefused, the slice at (1, 1e-3) had variance
    # 1.186 against the closed form's 1.210
    chirp = GaussianState(1.0, 10000.25, 100.0)
    with pytest.raises(ResolutionError, match=r"^sample_pure_gaussian\(.*n_points >= 4096"):
        transform.sample_pure_gaussian(chirp, grid)


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


def hermite_state(grid, c):
    return core.WaveFunction(grid, sum(cn * oracles.hermite_psi(n, grid.points)
                                       for n, cn in enumerate(c)))


@settings(max_examples=40, deadline=None)
@given(c=strategies.hermite_coefficients(), d=strategies.directions(r_max=2.0))
def test_slice_moments_are_the_quadrature_moments(grid, c, d):
    # mean mu<x> + nu<p>, variance _variance_row(mu, nu) . (sigma_xx,
    # sigma_xp, sigma_pp), the state's moments from its ladder matrices.
    # Over 300 random draws the mean was off by at most 1.4e-9 and the
    # variance by 1.5e-8 of itself (n = 6 at r = 2, whose slice tails the
    # grid cuts at +-12); the bounds are about 4x those.
    mu, nu = d
    density = transform.tomogram(hermite_state(grid, c), mu, nu).density
    mean, var = oracles.sampled_moments(density, grid.points)
    mx, mp, sigma = oracles.ladder_moments(c)
    want = float(np.dot(transform._variance_row(mu, nu), sigma))
    assert abs(mean - (mu * mx + nu * mp)) < 5e-9
    assert abs(var - want) < 5e-8 * want


@settings(max_examples=40, deadline=None)
@given(c=strategies.hermite_coefficients(), d=strategies.directions(r_max=2.0))
def test_slices_are_homogeneous(c, d):
    # w(X; lam mu, lam nu) = w(X/lam; mu, nu)/|lam|, lam = 2 up to r = 1 and
    # 1/2 above, so both slices keep r in [0.5, 2].  On 2049 points
    # symmetric about 0, X = j dx and 2j dx are both samples.  Worst of 300
    # random draws: 2.1e-13.
    grid = core.make_grid(-12.0, 12.0, 2049)
    psi = hermite_state(grid, c)
    mu, nu = d
    lam = 2.0 if np.hypot(mu, nu) <= 1.0 else 0.5
    base = transform.tomogram(psi, mu, nu).density
    scaled = transform.tomogram(psi, lam * mu, lam * nu).density
    j = np.arange(-512, 513)
    at_x, at_2x = grid.n_points // 2 + j, grid.n_points // 2 + 2 * j
    if lam == 2.0:
        assert np.max(np.abs(scaled[at_2x] - base[at_x] / 2.0)) < 1e-12
    else:
        assert np.max(np.abs(scaled[at_x] - 2.0 * base[at_2x])) < 1e-12


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

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid

from tomokit import core, dynamics, transform
from tomokit.errors import (
    DegenerateDirectionError,
    InvalidArgumentError,
    OutOfRangeError,
    ResolutionError,
    StepSizeError,
)
from tomokit.dynamics import OscillatorSpec, PositionHistory

import oracles


def make_spec(omega=1.0, force=0.0, t_max=2.0, dt=1e-3):
    return OscillatorSpec(dynamics.constant_rate(omega),
                          dynamics.constant_rate(force), t_max, dt)


# ---------------------------------------------------------------- presets


def test_rate_presets_evaluate():
    assert dynamics.constant_rate(2.0)(17.0) == 2.0
    assert dynamics.linear_ramp(1.0, 0.5)(2.0) == pytest.approx(2.0)
    assert dynamics.cosine_modulated(1.0, 0.2, 3.0)(0.0) == pytest.approx(1.2)
    assert np.isnan(dynamics.cosine_modulated(1.0, 0.2, 1e308)(2.0))


def test_presets_carry_their_name_and_float_params():
    for name, params in [("constant", (2,)), ("linear-ramp", (0.5, 2)),
                         ("cosine-modulated", (1, 0.2, 3))]:
        preset = dynamics.rate_preset(name, params)
        assert preset.name == name
        assert preset.params == params
        assert all(type(p) is float for p in preset.params)


def test_rate_preset_lookup():
    f = dynamics.rate_preset("linear-ramp", [0.5, 2.0])
    assert f(1.0) == pytest.approx(2.5)
    with pytest.raises(InvalidArgumentError, match="unknown preset"):
        dynamics.rate_preset("exponential", [1.0])
    with pytest.raises(InvalidArgumentError, match="parameter"):
        dynamics.rate_preset("constant", [1.0, 2.0])


@pytest.mark.parametrize("kwargs", [
    dict(t_max=0.0), dict(t_max=np.inf), dict(dt=-1.0), dict(dt=3.0),
    dict(t_max=1e10, dt=1e-10),
])
def test_oscillator_spec_rejects_bad_stepping(kwargs):
    with pytest.raises(InvalidArgumentError):
        make_spec(**kwargs)


def test_oscillator_spec_requires_callables():
    with pytest.raises(InvalidArgumentError):
        OscillatorSpec(1.0, dynamics.constant_rate(0.0), 1.0, 1e-3)


# ---------------------------------------------------------------- integrator


def test_constant_frequency_solution_is_exponential():
    traj = dynamics.solve_epsilon_delta(make_spec())
    want = np.exp(1j * traj.times)
    assert np.max(np.abs(traj.epsilon - want)) < 1e-10
    assert np.max(np.abs(traj.epsilon_dot - 1j * want)) < 1e-10
    assert np.max(np.abs(traj.delta)) == 0.0
    assert np.max(np.abs(traj.wronskian() - 1.0)) < 1e-12


def test_final_step_lands_on_t_max():
    traj = dynamics.solve_epsilon_delta(make_spec(t_max=1.0005, dt=1e-3))
    assert traj.times[-1] == 1.0005
    assert np.max(np.abs(traj.epsilon - np.exp(1j * traj.times))) < 1e-10


def test_constant_force_closed_form():
    # delta(t) = -(c/sqrt(2)) (e^{it} - 1) for omega = 1, force = c
    c = 0.3
    traj = dynamics.solve_epsilon_delta(make_spec(force=c, t_max=np.pi))
    want = -(c / np.sqrt(2.0)) * (np.exp(1j * traj.times) - 1.0)
    assert np.max(np.abs(traj.delta - want)) < 1e-10
    assert abs(traj.at(np.pi)[2] - np.sqrt(2.0) * c) < 1e-10


def test_trajectory_interpolates_between_steps():
    traj = dynamics.solve_epsilon_delta(make_spec(dt=1e-2))
    t = 0.7351
    eps, epsd, _ = traj.at(t)
    assert abs(eps - np.exp(1j * t)) < 1e-8
    assert abs(epsd - 1j * np.exp(1j * t)) < 1e-8


def test_trajectory_range_checked():
    traj = dynamics.solve_epsilon_delta(make_spec(t_max=1.0))
    with pytest.raises(OutOfRangeError):
        traj.at(1.1)
    with pytest.raises(OutOfRangeError):
        traj.at(-0.1)


def test_non_finite_times_raise(vacuum):
    traj = dynamics.solve_epsilon_delta(make_spec(t_max=1.0))
    hist = dynamics.harmonic_position_history(vacuum, [0.0, 0.5])
    with pytest.raises(OutOfRangeError):
        traj.at(np.nan)
    with pytest.raises(OutOfRangeError):
        hist.density_at(np.nan)


def test_coarse_step_raises():
    with pytest.raises(StepSizeError, match="reduce dt"):
        dynamics.solve_epsilon_delta(make_spec(omega=5.0, t_max=4.0, dt=0.5))


def oracle_rate(rate):
    """A preset's formula written out in tests/oracles.py; any other
    callable as it is."""
    if isinstance(rate, dynamics._Preset):
        return oracles.preset_rate(rate.name, rate.params)
    return rate


def assert_within_rk4_error(run, ref):
    """Each of epsilon, epsilon' and delta within sqrt(n) eps max(1, max|ref|)
    of the reference iterate: the rounding a stepwise loop accumulates."""
    n = ref[0].size - 1
    for got, want in zip(run, ref):
        bound = np.sqrt(n) * np.finfo(float).eps * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= bound


def assert_matches_rk4_oracle(spec):
    """The package against the stepwise float RK4 and its 50-digit iterate:
    the same times, the float loop's first step exactly, and both within the
    loop's rounding error of the 50-digit iterate everywhere."""
    traj = dynamics.solve_epsilon_delta(spec)
    omega, force = oracle_rate(spec.omega), oracle_rate(spec.force)
    stepwise = oracles.rk4_epsilon_delta(omega, force, spec.t_max, spec.dt)
    ref = oracles.rk4_reference(omega, force, spec.t_max, spec.dt)
    run = (traj.epsilon, traj.epsilon_dot, traj.delta)
    assert np.array_equal(traj.times, stepwise[0])
    assert np.array_equal(traj.times, ref[0])
    for got, want in zip(run[:2], stepwise[1:3]):
        assert np.array_equal(got[:2], want[:2])
    assert_within_rk4_error(run, ref[1:])
    assert_within_rk4_error(stepwise[1:], ref[1:])
    return traj


@pytest.mark.parametrize("omega", [
    dynamics.constant_rate(1.3),
    dynamics.linear_ramp(0.8, 0.4),
    dynamics.cosine_modulated(1.0, 0.3, 2.5),
], ids=["constant", "linear-ramp", "cosine-modulated"])
@pytest.mark.parametrize("force, t_max", [
    (dynamics.constant_rate(0.0), 2.0),
    (dynamics.cosine_modulated(0.4, 0.5, 1.7), 1.0005),
], ids=["free-2.0", "driven-1.0005"])
def test_integrator_matches_rk4_oracle_bit_for_bit(omega, force, t_max):
    assert_matches_rk4_oracle(OscillatorSpec(omega, force, t_max, 1e-3))


@pytest.mark.parametrize("omega, force, first_bad", [
    (lambda t: np.nan if t > 0.5 else 1.0, dynamics.constant_rate(0.0),
     "0.5000000000000003"),
    (dynamics.constant_rate(1.0), lambda t: np.inf if t > 0.25 else 0.0,
     "0.25000000000000017"),
], ids=["omega-nan", "force-inf"])
def test_non_finite_rate_names_first_stage_time(omega, force, first_bad):
    spec = OscillatorSpec(omega, force, 1.0, 1e-3)
    with pytest.raises(InvalidArgumentError) as exc:
        dynamics.solve_epsilon_delta(spec)
    assert str(exc.value) == f"omega/force not finite at t = {first_bad}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega, t_max, dt, error, message", [
    # the coarse steps fail before the rate turns nan at t > 3
    (lambda t: np.nan if t > 3.0 else 5.0, 4.0, 0.5, StepSizeError,
     "Wronskian drifted to 0.25825330946180547 at t = 0.5; reduce dt (limit 1e-06)"),
    # the first step fails; epsilon would overflow long before t_max
    (dynamics.constant_rate(40.0), 60.0, 0.1, StepSizeError,
     "Wronskian drifted to 57.888888888888886 at t = 0.1; reduce dt (limit 1e-06)"),
    (lambda t: np.nan, 1.0, 1e-3, InvalidArgumentError,
     "omega/force not finite at t = 0.0"),
], ids=["nan-after-coarse-steps", "diverging", "nan-everywhere"])
def test_earliest_failure_is_raised(omega, t_max, dt, error, message):
    spec = OscillatorSpec(omega, dynamics.constant_rate(0.0), t_max, dt)
    with pytest.raises(error) as exc:
        dynamics.solve_epsilon_delta(spec)
    assert str(exc.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_delta_raises():
    with pytest.raises(InvalidArgumentError) as exc:
        dynamics.solve_epsilon_delta(make_spec(force=1e308, t_max=1.0))
    assert str(exc.value) == (
        "delta overflowed at t = 0.001; the force is too large")


def test_overflowing_rate_raises_step_size_error():
    # omega^2 overflows, so the first step leaves a nan Wronskian behind
    with pytest.raises(StepSizeError, match="drifted to nan at t = 0.001"):
        dynamics.solve_epsilon_delta(make_spec(omega=1e200, t_max=1.0))


@settings(max_examples=25, deadline=None)
@given(omega=st.floats(0.3, 3.0), force=st.floats(-1.0, 1.0),
       dt=st.floats(5e-4, 5e-3), t_max=st.floats(0.5, 3.0))
def test_constant_rate_integration_properties(omega, force, dt, t_max):
    traj = assert_matches_rk4_oracle(
        make_spec(omega=omega, force=force, t_max=t_max, dt=dt))
    assert np.max(np.abs(traj.wronskian() - 1.0)) <= 1e-6
    if (omega * dt) ** 4 * omega * t_max <= 1e-8:
        t = traj.times
        exact = np.cos(omega * t) + 1j * np.sin(omega * t) / omega
        assert np.max(np.abs(traj.epsilon - exact)) <= 1e-6


_SLOW_RATES = st.floats(0.5, 1.5)


@settings(max_examples=25, deadline=None)
@given(omega=st.one_of(
           st.builds(dynamics.linear_ramp, _SLOW_RATES, st.floats(-0.2, 0.3)),
           st.builds(dynamics.cosine_modulated, _SLOW_RATES, st.floats(0.0, 0.5),
                     st.floats(0.2, 3.0))),
       force=st.one_of(
           st.builds(dynamics.constant_rate,
                     st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)),
           st.builds(dynamics.cosine_modulated, st.floats(-1.0, 1.0),
                     st.floats(0.0, 0.5), st.floats(0.2, 3.0))),
       dt=st.floats(5e-4, 5e-3), n_steps=st.integers(100, 600),
       tail=st.floats(0.05, 0.95))
def test_time_dependent_rates_match_rk4_oracle(omega, force, dt, n_steps, tail):
    # t_max leaves a short final step of about tail * dt
    t_max = (n_steps + tail) * dt
    traj = assert_matches_rk4_oracle(OscillatorSpec(omega, force, t_max, dt))
    assert 0.0 < traj.times[-1] - traj.times[-2] < dt


def test_plain_callables_match_rk4_oracle_bit_for_bit():
    # callables that are not presets are called once per stage time
    assert_matches_rk4_oracle(OscillatorSpec(
        lambda t: 0.8 + 0.3 * np.sin(t), lambda t: 0.2 * t, 1.0005, 1e-3))


_SLOW_PRESETS = st.one_of(
    st.builds(dynamics.constant_rate, st.floats(0.3, 3.0)),
    st.builds(dynamics.linear_ramp, _SLOW_RATES, st.floats(-0.2, 0.3)),
    st.builds(dynamics.cosine_modulated, _SLOW_RATES, st.floats(0.0, 0.5),
              st.floats(0.2, 3.0)))


@settings(max_examples=20, deadline=None)
@given(omega=_SLOW_PRESETS,
       force=st.one_of(
           st.builds(dynamics.constant_rate, st.floats(-1.0, 1.0)),
           st.builds(dynamics.cosine_modulated, st.floats(-1.0, 1.0),
                     st.floats(0.0, 0.5), st.floats(0.2, 3.0))),
       dt=st.floats(5e-4, 5e-3), t_max=st.floats(0.5, 3.0))
# every step matrix equal: a scan that stores M = I + N rounds 1 + N the
# same way in every step, so its error grows with n, not sqrt(n)
@example(omega=dynamics.constant_rate(1.3), force=dynamics.constant_rate(0.0),
         dt=1e-3, t_max=2.5)
def test_step_product_stays_within_the_loops_rounding(omega, force, dt, t_max):
    spec = OscillatorSpec(omega, force, t_max, dt)
    traj = dynamics.solve_epsilon_delta(spec)
    omega, force = oracle_rate(omega), oracle_rate(force)
    ref = oracles.rk4_reference(omega, force, t_max, dt)
    stepwise = oracles.rk4_epsilon_delta(omega, force, t_max, dt)
    n = ref[0].size - 1
    # RK4 does not keep W = 1 exactly; the iterate's own W is the reference
    w_ref = np.imag(np.conj(ref[1]) * ref[2])
    w_bound = np.sqrt(n) * np.finfo(float).eps * max(1.0, np.max(np.abs(ref[1]))) ** 2
    for run in ((traj.epsilon, traj.epsilon_dot, traj.delta), stepwise[1:]):
        assert_within_rk4_error(run, ref[1:])
        assert np.max(np.abs(np.imag(np.conj(run[0]) * run[1]) - w_ref)) <= w_bound


def stage_times(t_max, dt):
    """The stage times at which solve_epsilon_delta samples the rates."""
    seen = []

    def force(t):
        seen.append(t)
        return 0.0
    dynamics.solve_epsilon_delta(
        OscillatorSpec(dynamics.constant_rate(0.0), force, t_max, dt))
    return np.array(seen)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(rate=st.one_of(
           st.tuples(st.just("constant"), st.tuples(st.floats())),
           st.tuples(st.just("linear-ramp"), st.tuples(st.floats(), st.floats())),
           st.tuples(st.just("cosine-modulated"),
                     st.tuples(st.floats(), st.floats(), st.floats()))),
       t_max=st.floats(0.01, 5.0), dt=st.floats(1e-3, 0.1))
@example(rate=("linear-ramp", (1.0, 1e308)), t_max=3.0, dt=1e-3)
@example(rate=("cosine-modulated", (1.0, 0.5, 1e308)), t_max=3.0, dt=1e-3)
def test_preset_sample_equals_scalar_calls(rate, t_max, dt):
    # the reference is the scalar formula written out in tests/oracles.py
    assume(dt <= t_max)
    preset, scalar = dynamics.rate_preset(*rate), oracles.preset_rate(*rate)
    ts = stage_times(t_max, dt)
    got = preset.sample(ts)
    want = np.array([scalar(t) for t in ts.tolist()])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)
    # a scalar call runs the same formula on a 0-d array
    some = ts[::max(1, ts.size // 40)].tolist()
    calls = [preset(t) for t in some]
    assert all(type(c) is float for c in calls)
    assert np.array_equal(calls, [scalar(t) for t in some], equal_nan=True)


# The steps after each failure overflow; the Wronskian is checked after them.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega, t_max, dt, error, message", [
    (lambda t: 1.0 if t < 1.0 else 30.0, 60.0, 0.05, StepSizeError,
     "Wronskian drifted to 1.0000778388206832 at t = 1.0000000000000002; "
     "reduce dt (limit 1e-06)"),
    (dynamics.linear_ramp(1.0, 20.0), 60.0, 0.05, StepSizeError,
     "Wronskian drifted to 0.9999988642462881 at t = 0.1; reduce dt (limit 1e-06)"),
    (dynamics.linear_ramp(1.0, 1e308), 3.0, 1e-3, StepSizeError,
     "Wronskian drifted to nan at t = 0.001; reduce dt (limit 1e-06)"),
    (dynamics.cosine_modulated(1.0, 0.5, 1e308), 3.0, 1e-3,
     InvalidArgumentError, "omega/force not finite at t = 1.7979999999999128"),
], ids=["step-up", "steep-ramp", "ramp-overflow", "cosine-overflow"])
def test_failure_in_mid_run_names_its_first_step(omega, t_max, dt, error,
                                                 message):
    spec = OscillatorSpec(omega, dynamics.constant_rate(0.0), t_max, dt)
    with pytest.raises(error) as exc:
        dynamics.solve_epsilon_delta(spec)
    assert str(exc.value) == message


def test_trajectory_rejects_wrong_start():
    t = np.array([0.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        dynamics.OscillatorTrajectory(t, [2.0, 1.0], [1j, 1j], [0.0, 0.0])


def test_increasing_times_are_compared_not_subtracted(vacuum):
    # a gap that overflows is still an increase, with no RuntimeWarning
    # (an error here); nan is no increase
    t = [-1e308, 1e308]
    assert dynamics.OscillatorTrajectory(t, [1, 2], [1j, 1j], [0, 0]).times.tolist() == t
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    assert PositionHistory(t, [pos, pos]).times.tolist() == t
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        dynamics.OscillatorTrajectory([0.0, np.nan], [1, 2], [1j, 1j], [0, 0])


@pytest.mark.parametrize("times, n", [([np.nan], 1), ([0.0, np.inf], 2),
                                      ([0.0, 1.0, np.inf], 3)])
def test_non_finite_times_are_refused(vacuum, times, n):
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError, match="finite 1D"):
        PositionHistory(times, [pos] * n)
    if n >= 2:
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            dynamics.OscillatorTrajectory(times, [1.0] * n, [1j] * n, [0.0] * n)


def test_trajectory_arrays_are_read_only_copies():
    arrays = [np.array([0.0, 1.0]), np.array([1.0, 0.5j]),
              np.array([1j, 2.0 + 0j]), np.array([0j, 0.25 + 0j])]
    traj = dynamics.OscillatorTrajectory(*arrays)
    for a in arrays:
        a[1] = 7.0
    held = (traj.times, traj.epsilon, traj.epsilon_dot, traj.delta)
    assert [a[1] for a in held] == [1.0, 0.5j, 2.0, 0.25]
    for a in held:
        with pytest.raises(ValueError, match="read-only"):
            a[1] = 7.0
    solved = dynamics.solve_epsilon_delta(make_spec(t_max=0.1))
    assert not any(a.flags.writeable for a in (
        solved.times, solved.epsilon, solved.epsilon_dot, solved.delta))


# ---------------------------------------------------------------- histories


def gaussian_density(x, mean, var):
    return np.exp(-(x - mean) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def test_free_flight_spreads_vacuum(grid, vacuum):
    t = 1.5
    hist = dynamics.harmonic_position_history(vacuum, [0.0, t], 0.0)
    var = float(np.sum(grid.points ** 2 * hist.density_at(t)) * grid.dx)
    assert abs(var - 0.5 * (1.0 + t ** 2)) < 1e-8
    assert np.array_equal(hist.density_at(0.0), vacuum.density())


def test_free_flight_composes():
    g = core.make_grid(-16.0, 16.0, 2048)
    psi = core.sample_state(core.GaussianPreset(), g)
    flown = core.WaveFunction(
        g, oracles.free_propagate(psi.amplitudes, g.points, 0.4))
    one = transform.tomogram(flown, 1.0, 0.6)
    two = dynamics.harmonic_position_history(psi, [1.0], 0.0)
    assert np.max(np.abs(one.density - two.density_at(1.0))) < 1e-12


def test_free_flight_detects_edge_leak(grid):
    kicked = core.sample_state(core.GaussianPreset(p0=8.0), grid)
    with pytest.raises(ResolutionError, match="wider extent"):
        dynamics.harmonic_position_history(kicked, [1.2], 0.0)


def test_harmonic_history_matches_split_step_oracle(grid):
    psi = core.sample_state(core.GaussianPreset(x0=1.0), grid)
    hist = dynamics.harmonic_position_history(psi, [0.7], 1.3)
    want = oracles.split_step_kinetic_first(psi.amplitudes, grid.points,
                                            0.7, 1.3, 2000)
    assert np.max(np.abs(hist.density_at(0.7) - np.abs(want) ** 2)) < 1e-5


def test_harmonic_coherent_center_oscillates(grid):
    psi = core.sample_state(core.GaussianPreset(x0=1.0), grid)
    hist = dynamics.harmonic_position_history(psi, [np.pi / 2, np.pi])
    for t in (np.pi / 2, np.pi):
        mean = float(np.sum(grid.points * hist.density_at(t)) * grid.dx)
        assert abs(mean - np.cos(t)) < 1e-5


def test_harmonic_full_period_fidelity(grid):
    psi = core.sample_state(core.GaussianPreset(x0=1.0), grid)
    hist = dynamics.harmonic_position_history(psi, [2.0 * np.pi])
    assert np.max(np.abs(hist.density_at(2.0 * np.pi) - psi.density())) < 1e-10


def test_vacuum_history_is_stationary_at_large_times(vacuum):
    # the direction stays on the unit circle however large t is; off it,
    # these slices were off by 3.3e-5 and 1.7
    times = [1e12, 6.606186373092659e16]
    hist = dynamics.harmonic_position_history(vacuum, times)
    for t in times:
        assert np.max(np.abs(hist.density_at(t) - vacuum.density())) < 1e-12


@settings(max_examples=30, deadline=None)
@given(omega=st.floats(0.0, 2.0), frac=st.floats(0.0, 1.0),
       x0=st.floats(-1.5, 1.5), p0=st.floats(-1.0, 1.0),
       sigma=st.floats(0.6, 0.9))
@example(omega=1.0, frac=0.5, x0=1.0, p0=0.5, sigma=0.5)
@example(omega=0.7, frac=1.0, x0=-1.0, p0=0.3, sigma=0.7)
@example(omega=2.0, frac=0.25, x0=0.5, p0=-0.5, sigma=0.8)
@example(omega=0.0, frac=0.5, x0=0.5, p0=0.2, sigma=0.8)
@example(omega=5e-324, frac=0.75, x0=0.5, p0=0.2, sigma=0.8)
def test_harmonic_history_matches_closed_form(grid, omega, frac, x0, p0, sigma):
    # t in [0, 2 pi/omega], or in [0, 2] near free flight; frac = 1/2 and 1
    # are t = pi/omega and 2 pi/omega
    t = frac * (2.0 * np.pi / omega if omega > 0.05 else 2.0)
    mu, nu = np.cos(omega * t), t * np.sinc(omega * t / np.pi)
    mean = mu * x0 + nu * p0
    var = (mu * sigma) ** 2 + (nu / (2.0 * sigma)) ** 2
    assume(abs(mean) + 8.0 * np.sqrt(var) < 12.0)
    psi = core.sample_state(core.GaussianPreset(x0, p0, sigma), grid)
    hist = dynamics.harmonic_position_history(psi, [t], omega)
    want = gaussian_density(grid.points, mean, var)
    assert np.max(np.abs(hist.density_at(t) - want)) < 1e-11


def test_position_history_validates(grid, vacuum):
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    mom = transform.tomogram(vacuum, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        PositionHistory([0.0, 1.0], [pos])
    with pytest.raises(InvalidArgumentError):
        PositionHistory([0.0, 0.0], [pos, pos])
    with pytest.raises(InvalidArgumentError):
        PositionHistory([0.0, 1.0], [pos, mom])
    with pytest.raises(InvalidArgumentError, match="TomogramSlice"):
        PositionHistory([0.0], [None])
    with pytest.raises(InvalidArgumentError, match="TomogramSlice"):
        PositionHistory([0.0, 1.0], [pos, None])


def test_position_history_holds_a_read_only_copy(vacuum):
    times = np.array([0.0, 1.0])
    slices = [transform.tomogram(vacuum, 1.0, 0.0)] * 2
    hist = PositionHistory(times, slices)
    times[1] = 5.0
    slices.pop()
    assert hist.times.tolist() == [0.0, 1.0]
    assert isinstance(hist.slices, tuple) and len(hist.slices) == 2
    assert np.array_equal(hist.density_at(1.0), slices[0].density)
    with pytest.raises(ValueError, match="read-only"):
        hist.times[1] = 5.0


def test_position_history_reads_recorded_times(vacuum):
    times = np.linspace(0.0, 1.0, 21)
    hist = dynamics.harmonic_position_history(vacuum, times, 0.0)
    t = times[9]
    direct = transform.tomogram(vacuum, 1.0, t).density
    assert np.max(np.abs(hist.density_at(t) - direct)) <= 1e-12
    for bad in (0.475, 1.5):
        with pytest.raises(OutOfRangeError, match="not a recorded time"):
            hist.density_at(bad)


@pytest.mark.parametrize("times", [0.5, [[0.1, 0.2]], [[0.1], [0.2]],
                                   [0.0, np.inf], [0.0, np.nan]])
def test_harmonic_history_needs_finite_1d_times(vacuum, times):
    with pytest.raises(InvalidArgumentError, match="finite 1D"):
        dynamics.harmonic_position_history(vacuum, times)


def test_free_history_recovers_initial_tomogram(vacuum):
    hist = dynamics.harmonic_position_history(vacuum, [0.5], 0.0)
    for mu, nu in [(1.0, 0.5), (2.0, 1.0)]:
        rec = dynamics.initial_tomogram_from_position_history(hist, mu, nu)
        ref = transform.tomogram(vacuum, mu, nu)
        assert np.max(np.abs(rec.density - ref.density)) < 1e-8


def test_free_history_rejects_pure_momentum(vacuum):
    hist = dynamics.harmonic_position_history(vacuum, [0.0, 0.5], 0.0)
    with pytest.raises(InvalidArgumentError):
        dynamics.initial_tomogram_from_position_history(hist, 0.0, 1.0)


def test_oscillator_recovery_at_time_zero_is_exact(grid):
    psi = core.sample_state(core.GaussianPreset(x0=1.0), grid)
    hist = dynamics.harmonic_position_history(psi, np.linspace(0.0, 1.2, 25))
    traj = dynamics.solve_epsilon_delta(make_spec(t_max=1.2))
    rec = dynamics.initial_tomogram_from_oscillator(hist, traj, 0.0)
    assert rec.mu == 1.0
    assert rec.nu == 0.0
    assert np.max(np.abs(rec.density - hist.slices[0].density)) < 1e-12


def test_oscillator_recovery_matches_direct_tomogram(grid):
    psi = core.sample_state(core.GaussianPreset(x0=1.0), grid)
    # fine-step split-step density, independent of the transform
    flown = oracles.split_step_kinetic_first(psi.amplitudes, grid.points,
                                             1.0, 1.0, 1000)
    hist = PositionHistory([1.0], [transform.TomogramSlice(
        1.0, 0.0, grid, np.abs(flown) ** 2)])
    traj = dynamics.solve_epsilon_delta(make_spec(t_max=1.2))
    rec = dynamics.initial_tomogram_from_oscillator(hist, traj, 1.0)
    assert rec.mu == pytest.approx(np.cos(1.0), abs=1e-12)
    assert rec.nu == pytest.approx(np.sin(1.0), abs=1e-12)
    ref = transform.tomogram(psi, np.cos(1.0), np.sin(1.0))
    assert np.max(np.abs(rec.density - ref.density)) < 5e-4


@pytest.mark.parametrize("c, t, x0, p0, sigma", [
    (0.4, 1.3, 0.5, -0.3, 0.7),
    (-0.7, 1.3, 0.5, -0.3, 0.7),
    # squeezed packets carried 17.9 units, 3/4 of the grid width
    (9.0, 3.0, 9.0, 0.0, 0.27),
    (-9.0, 3.0, -9.0, 0.0, 0.27),
])
def test_constant_force_recovery_matches_closed_form(grid, c, t, x0, p0, sigma):
    # omega = 1, force c: the packet's centre gains c (1 - cos t), so the
    # position density at t is the initial (cos t, sin t) slice moved by it
    mu, nu = np.cos(t), np.sin(t)
    mean = mu * x0 + nu * p0
    var = (mu * sigma) ** 2 + (nu / (2.0 * sigma)) ** 2
    x = grid.points
    hist = PositionHistory([t], [transform.TomogramSlice(
        1.0, 0.0, grid, gaussian_density(x, mean + c * (1.0 - mu), var))])
    traj = dynamics.solve_epsilon_delta(make_spec(force=c, t_max=t))
    rec = dynamics.initial_tomogram_from_oscillator(hist, traj, t)
    assert (rec.mu, rec.nu) == pytest.approx((mu, nu), abs=1e-10)
    assert np.max(np.abs(rec.density - gaussian_density(x, mean, var))) < 1e-8


def test_forced_shift_off_the_grid_raises(grid, vacuum):
    # force 6 moves the density 12 units at t = pi: with no zero padding
    # the FFT shift would wrap all of it back onto [-12, 12]
    hist = PositionHistory([np.pi], [transform.tomogram(vacuum, 1.0, 0.0)])
    traj = dynamics.solve_epsilon_delta(make_spec(force=6.0, t_max=np.pi))
    with pytest.raises(ResolutionError, match="leaves the grid"):
        dynamics.initial_tomogram_from_oscillator(hist, traj, np.pi)


def test_shift_wider_than_the_grid_raises_before_the_fft(grid, vacuum):
    # force 50 moves the density 100 units at t = pi, past the whole grid
    hist = PositionHistory([np.pi], [transform.tomogram(vacuum, 1.0, 0.0)])
    traj = dynamics.solve_epsilon_delta(make_spec(force=50.0, t_max=np.pi))
    with pytest.raises(ResolutionError, match="past the grid width"):
        dynamics.initial_tomogram_from_oscillator(hist, traj, np.pi)


def test_evolve_distribution_free_flight(grid, vacuum):
    spec = OscillatorSpec(dynamics.constant_rate(0.0),
                          dynamics.constant_rate(0.0), 2.0, 1e-3)
    traj = dynamics.solve_epsilon_delta(spec)

    def initial(X, mu, nu):
        s = transform.tomogram(vacuum, mu, nu)
        cdf = cumulative_trapezoid(s.density, grid.points, initial=0.0)
        return float(np.interp(X, grid.points, cdf))

    t, mu, nu = 0.8, 1.0, 0.3
    flown = oracles.free_propagate(vacuum.amplitudes, grid.points, t)
    later = transform.tomogram(core.WaveFunction(grid, flown), mu, nu)
    cdf_t = cumulative_trapezoid(later.density, grid.points, initial=0.0)
    for X in (-1.0, 0.0, 0.7, 2.0):
        got = oracles.transported_distribution(initial, traj.at(t), X, mu, nu)
        assert abs(got - float(np.interp(X, grid.points, cdf_t))) < 1e-8


def test_vanishing_epsilon_raises_degenerate_direction(vacuum):
    # a hand-built trajectory through epsilon = 0 (epsilon' = i) at t = 2
    traj = dynamics.OscillatorTrajectory(
        np.arange(5.0), [1, 0, 0, 0, 0], [1j] * 5, [0] * 5)
    hist = PositionHistory([2.0], [transform.tomogram(vacuum, 1.0, 0.0)])
    with pytest.raises(DegenerateDirectionError, match="epsilon vanished"):
        dynamics.initial_tomogram_from_oscillator(hist, traj, 2.0)

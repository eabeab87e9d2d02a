"""Classical oscillator pair, position histories and tomogram transport.

A classical trajectory pair (epsilon, delta) solved from

    epsilon'' + omega(t)^2 epsilon = 0,   epsilon(0) = 1, epsilon'(0) = i
    delta'    = -(i/sqrt 2) epsilon f(t), delta(0) = 0

carries the cumulative quadrature distribution along characteristics, and a
position history recorded over time yields initial-state tomograms in
directions the trajectory visited (Mancini, Man'ko & Tombesi 1996).  Read
the other way, the position density at time t is an initial tomogram, so
histories are built as transform slices and amplitudes are never
propagated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SpatialGrid, WaveFunction
from .errors import (
    DegenerateDirectionError,
    InvalidArgumentError,
    OutOfRangeError,
    ResolutionError,
    StepSizeError,
)
from .transform import TomogramSlice, _direction, _quadrature, tomogram

__all__ = [
    "OscillatorSpec",
    "OscillatorTrajectory",
    "PositionHistory",
    "constant_rate",
    "linear_ramp",
    "cosine_modulated",
    "rate_preset",
    "harmonic_position_history",
    "initial_tomogram_from_position_history",
    "solve_epsilon_delta",
    "evolve_distribution",
    "initial_tomogram_from_oscillator",
]

# Wronskian drift at which fixed-step integration is rejected.
_WRONSKIAN_RAISE = 1e-6


class _Preset:
    """A named rate shape: called with a float t, or sampled at a float64
    array of times with the same float operations elementwise."""

    def __init__(self, at, sample):
        self._at, self._sample = at, sample

    def __call__(self, t):
        return self._at(t)

    def sample(self, times: np.ndarray) -> np.ndarray:
        # the scalar forms overflow to inf and nan without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return self._sample(times)


def constant_rate(value: float) -> Callable[[float], float]:
    """Preset: t -> value."""
    value = float(value)
    return _Preset(lambda t: value, lambda ts: np.full(ts.shape, value))


def linear_ramp(start: float, slope: float) -> Callable[[float], float]:
    """Preset: t -> start + slope * t."""
    start, slope = float(start), float(slope)
    return _Preset(lambda t: start + slope * t, lambda ts: start + slope * ts)


def cosine_modulated(base: float, depth: float, rate: float) -> Callable[[float], float]:
    """Preset: t -> base * (1 + depth * cos(rate * t)); nan where rate * t
    overflows."""
    base, depth, rate = float(base), float(depth), float(rate)

    def at(t):
        try:
            return base * (1.0 + depth * math.cos(rate * t))
        except ValueError:
            return math.nan

    def sample(ts):
        # math.cos, as the scalar form uses: np.cos need not match libm
        arg = rate * ts
        finite = np.isfinite(arg)
        c = np.fromiter(map(math.cos, np.where(finite, arg, 0.0).tolist()),
                        float, arg.size)
        return np.where(finite, base * (1.0 + depth * c), math.nan)
    return _Preset(at, sample)


_PRESETS = {
    "constant": (constant_rate, 1),
    "linear-ramp": (linear_ramp, 2),
    "cosine-modulated": (cosine_modulated, 3),
}


def rate_preset(name: str, params: Sequence[float]) -> Callable[[float], float]:
    """Look up a named rate preset (constant, linear-ramp, cosine-modulated)."""
    if name not in _PRESETS:
        raise InvalidArgumentError(
            f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    factory, arity = _PRESETS[name]
    if len(params) != arity:
        raise InvalidArgumentError(
            f"preset {name!r} takes {arity} parameter(s), got {len(params)}")
    return factory(*params)


@dataclass(frozen=True)
class OscillatorSpec:
    """Time-dependent oscillator omega(t) with linear drive f(t).

    ``omega`` and ``force`` are callables of time; use the preset factories
    for the named shapes.  Integration runs over [0, t_max] with fixed step
    ``dt`` (the final step may be shorter to land exactly on t_max).
    """

    omega: Callable[[float], float]
    force: Callable[[float], float]
    t_max: float
    dt: float

    def __post_init__(self):
        if not callable(self.omega) or not callable(self.force):
            raise InvalidArgumentError("omega and force must be callables of t")
        if not np.isfinite(self.t_max) or self.t_max <= 0:
            raise InvalidArgumentError("t_max must be finite and positive")
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise InvalidArgumentError("dt must be finite and positive")
        if self.dt > self.t_max:
            raise InvalidArgumentError("dt must not exceed t_max")
        if not self.t_max / self.dt < sys.maxsize:
            raise InvalidArgumentError(
                "t_max/dt must be a finite step count that fits an index")


class OscillatorTrajectory:
    """Sampled (epsilon, epsilon', delta), interpolated in t by the cubic
    through the four samples around t."""

    def __init__(self, times, epsilon, epsilon_dot, delta):
        t = np.asarray(times, dtype=float)
        eps = np.asarray(epsilon, dtype=complex)
        epsd = np.asarray(epsilon_dot, dtype=complex)
        dlt = np.asarray(delta, dtype=complex)
        if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0):
            raise InvalidArgumentError("times must be strictly increasing, >= 2 samples")
        for arr in (eps, epsd, dlt):
            if arr.shape != t.shape:
                raise InvalidArgumentError("trajectory arrays must match times")
        if abs(eps[0] - 1.0) > 1e-12 or abs(epsd[0] - 1j) > 1e-12 or abs(dlt[0]) > 1e-12:
            raise InvalidArgumentError(
                "trajectory must start from epsilon=1, epsilon'=i, delta=0")
        self.times = t
        self.epsilon = eps
        self.epsilon_dot = epsd
        self.delta = dlt

    def wronskian(self) -> np.ndarray:
        """Im(conj(epsilon) epsilon') at the sample times; identically 1 in
        exact arithmetic."""
        return np.imag(np.conj(self.epsilon) * self.epsilon_dot)

    def at(self, t: float) -> tuple[complex, complex, complex]:
        """(epsilon, epsilon', delta) at time t by Lagrange interpolation
        through the four samples around t (all of them when fewer); a
        sample time returns that sample exactly."""
        t = float(t)
        lo, hi = self.times[0], self.times[-1]
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise OutOfRangeError(
                f"t = {t!r} outside trajectory range [{lo!r}, {hi!r}]")
        t = min(max(t, lo), hi)
        m = min(4, self.times.size)
        i = min(max(int(np.searchsorted(self.times, t)) - 2, 0), self.times.size - m)
        nodes = self.times[i:i + m]
        weights = [math.prod((t - b) / (a - b) for b in nodes if b != a) for a in nodes]
        return tuple(complex(np.dot(weights, arr[i:i + m]))
                     for arr in (self.epsilon, self.epsilon_dot, self.delta))


def _sample_rate(rate: Callable[[float], float], stages: np.ndarray,
                 stage_t: list[float]) -> np.ndarray:
    """A rate at every stage time: a preset in one pass over the array, any
    other callable once per stage with a float argument."""
    if isinstance(rate, _Preset):
        return rate.sample(stages)
    return np.fromiter(map(float, map(rate, stage_t)), float, len(stage_t))


def solve_epsilon_delta(spec: OscillatorSpec) -> OscillatorTrajectory:
    """Integrate the classical pair with fixed-step RK4.

    The rates do not depend on the state, so every stage time (the start,
    midpoint and end of each step; a step's end is the next step's start)
    is sampled before the first step, omega and then force.  A preset is
    sampled at all stages in one pass, with the float operations of its
    scalar form; any other callable is called once per stage with a float
    argument, so any scalar callable works.  Steps run up to the first
    stage with a non-finite rate.  Only epsilon and epsilon' are stepped,
    on Python complex scalars.  After the loop the Wronskian
    Im(conj(epsilon) epsilon') is checked at the end of every step: at the
    first step where it drifts beyond 1e-6, or is no longer a number,
    StepSizeError names that step's end time.  Otherwise a non-finite rate
    raises InvalidArgumentError naming its stage time.  delta does not
    feed back, so its RK4 stages are rebuilt as arrays after the loop, in
    the loop's operation order, and summed; a delta that overflows raises
    InvalidArgumentError.
    """
    ratio = spec.t_max / spec.dt
    n_full = int(round(ratio))
    if abs(ratio - n_full) > 1e-9 or n_full == 0:
        n_full = int(np.floor(ratio))
    remainder = spec.t_max - n_full * spec.dt
    try:
        h = np.full(n_full, spec.dt)
        if remainder > 1e-12 * max(1.0, spec.t_max):
            h = np.append(h, remainder)
        ends = np.cumsum(h)
        stages = np.empty(2 * h.size + 1)
    except MemoryError:
        raise InvalidArgumentError(
            f"{n_full} steps of dt = {spec.dt!r} do not fit in memory; "
            "raise dt") from None
    stages[0] = 0.0
    stages[2::2] = ends
    stages[1::2] = stages[0:-1:2] + 0.5 * h
    stage_t = stages.tolist()
    ws = _sample_rate(spec.omega, stages, stage_t)
    f = _sample_rate(spec.force, stages, stage_t)
    finite = np.isfinite(ws) & np.isfinite(f)
    first_bad = None if finite.all() else int(np.argmin(finite))
    n_ok = h.size if first_bad is None else max(0, (first_bad - 1) // 2)
    # an overflow is -inf, as in Python float arithmetic
    with np.errstate(over="ignore"):
        v = -(ws * ws)

    # The real factors are held as complex with a zero imaginary part,
    # which is what Python promotes a float factor to, so every product is
    # the same; complex * complex just skips the float's fallback.  Complex
    # arithmetic never raises on inf or nan, so the loop always runs n_ok
    # steps and the Wronskian is checked afterwards.
    two = 2.0 + 0j
    e, ed = 1.0 + 0j, 1j
    es, eds = [e], [ed]
    es_append, eds_append = es.append, eds.append
    vc = v.astype(complex).tolist()
    for h1, h2, h6, v0, vm, v1 in zip(
            h[:n_ok].astype(complex).tolist(),
            (0.5 * h[:n_ok]).astype(complex).tolist(),
            (h[:n_ok] / 6.0).astype(complex).tolist(),
            vc[0::2], vc[1::2], vc[2::2]):
        b1 = v0 * e
        e2, ed2 = e + h2 * ed, ed + h2 * b1
        b2 = vm * e2
        e3, ed3 = e + h2 * ed2, ed + h2 * b2
        b3 = vm * e3
        e4, ed4 = e + h1 * ed3, ed + h1 * b3
        b4 = v1 * e4
        e = e + h6 * (ed + two * ed2 + two * ed3 + ed4)
        ed = ed + h6 * (b1 + two * b2 + two * b3 + b4)
        es_append(e)
        eds_append(ed)
    eps, epsd = np.array(es), np.array(eds)
    with np.errstate(over="ignore", invalid="ignore"):
        w = eps.real[1:] * epsd.imag[1:] - eps.imag[1:] * epsd.real[1:]
        drifted = ~(np.abs(w - 1.0) <= _WRONSKIAN_RAISE)
    if drifted.any():
        i = int(np.argmax(drifted))
        raise StepSizeError(
            f"Wronskian drifted to {float(w[i])!r} at t = {stage_t[2 * i + 2]!r}; "
            "reduce dt")
    if first_bad is not None:
        raise InvalidArgumentError(
            f"omega/force not finite at t = {stage_t[first_bad]!r}")

    # numpy promotes a float array factor as Python promotes a float, so
    # these are the loop's stage values, and cumsum adds in step order.
    e, ed = eps[:-1], epsd[:-1]
    v0, vm, f0, fm, f1 = v[0:-1:2], v[1::2], f[0:-1:2], f[1::2], f[2::2]
    h2 = 0.5 * h
    e2 = e + h2 * ed
    e3 = e + h2 * (ed + h2 * (v0 * e))
    e4 = e + h * (ed + h2 * (vm * e2))
    drive = -1j / np.sqrt(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        c = (drive * e * f0 + 2.0 * (drive * e2 * fm) + 2.0 * (drive * e3 * fm)
             + drive * e4 * f1)
        delta = np.cumsum(np.concatenate(([0j], h / 6.0 * c)))
    times = np.concatenate(([0.0], ends))
    times[-1] = spec.t_max
    if not np.isfinite(delta[-1]):
        t = times[np.argmin(np.isfinite(delta))]
        raise InvalidArgumentError(
            f"delta overflowed at t = {float(t)!r}; the force is too large")
    return OscillatorTrajectory(times, eps, epsd, delta)


class PositionHistory:
    """Position-density snapshots rho(t_i, x) at the recorded times.

    All slices must be position tomograms ((mu, nu) = (1, 0) to 1e-12) on
    one shared grid, at strictly increasing times.
    """

    def __init__(self, times, slices: Sequence[TomogramSlice]):
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or t.size == 0 or t.size != len(slices):
            raise InvalidArgumentError("need one time per slice")
        if not np.all(np.diff(t) > 0):
            raise InvalidArgumentError("times must be strictly increasing")
        if not all(isinstance(s, TomogramSlice) for s in slices):
            raise InvalidArgumentError("slices must be TomogramSlice objects")
        grid = slices[0].grid
        for s in slices:
            if not s.is_position:
                raise InvalidArgumentError(
                    f"history slice at ({s.mu!r}, {s.nu!r}) is not a position tomogram")
            if s.grid != grid:
                raise InvalidArgumentError("history slices must share one grid")
        self.times = t
        self.slices = list(slices)
        self._grid = grid

    @property
    def grid(self) -> SpatialGrid:
        return self._grid

    def density_at(self, t: float) -> np.ndarray:
        """Position density recorded at time t, matched to 1e-12 relative;
        any other time raises OutOfRangeError."""
        t = float(t)
        hit = np.nonzero(np.abs(self.times - t) <= 1e-12 * max(1.0, abs(t)))[0]
        if hit.size == 0:
            raise OutOfRangeError(
                f"t = {t!r} is not a recorded time; the history holds "
                f"{self.times.tolist()!r}")
        return self.slices[hit[0]].density


def harmonic_position_history(psi0: WaveFunction, times,
                              omega: float = 1.0) -> PositionHistory:
    """Record |psi(t, x)|^2 under H = p^2/2 + omega^2 x^2/2.

    The position density at time t is the initial tomogram at
    (cos omega t, sin omega t/omega), so each slice is one transform of
    psi0, relabelled (1, 0).  The second component is written
    t sinc(omega t/pi), which is exact at omega = 0 (free flight).  The
    transform's unitarity check raises ResolutionError when the evolved
    state leaves the grid.
    """
    times = np.asarray(times, dtype=float)
    if not np.isfinite(omega):
        raise InvalidArgumentError("omega must be finite")
    if times.size and not times[0] >= 0:
        raise InvalidArgumentError("history times must start at t >= 0")
    slices = []
    for t in times:
        s = tomogram(psi0, np.cos(omega * t), t * np.sinc(omega * t / np.pi))
        slices.append(TomogramSlice(1.0, 0.0, psi0.grid, s.density))
    return PositionHistory(times, slices)


def _recorded(history: PositionHistory, t: float, mu: float, nu: float,
              scale: float, shift: float) -> TomogramSlice:
    """The (mu, nu) slice of density rho_t((X - shift)/scale)/|scale|.

    The recorded rho_t, placed on the grid moved by shift/scale, is read at
    X/scale by the transform at (scale, 0), whose plan serves every shift.
    It must integrate to 1 within 1e-5 (else ResolutionError), then is
    divided by its integral.
    """
    dens = history.density_at(t)
    grid = history.grid
    if scale == 1.0 and shift == 0.0:
        out = dens
    else:
        moved = SpatialGrid(grid.x_min + shift / scale, grid.dx, grid.n_points)
        out = np.abs(_quadrature(dens, moved, scale, 0.0, grid)) / np.sqrt(abs(scale))
    integral = float(out.sum() * grid.dx)
    if abs(integral - 1.0) > 1e-5:
        raise ResolutionError(
            f"recovered slice at ({mu!r}, {nu!r}) integrates to {integral!r}; "
            "the scaled or shifted support leaves the grid")
    return TomogramSlice(mu, nu, grid, out / integral)


def initial_tomogram_from_position_history(history: PositionHistory, mu: float,
                                           nu: float) -> TomogramSlice:
    """Initial-state tomogram at (mu, nu) read off free-flight position data.

    Free flight reaches the direction (mu, nu) at time t* = nu/mu through
    density(X) = rho(t*, X/mu) / |mu|, so the history must hold t*.
    """
    mu, nu = _direction(mu, nu)
    if mu == 0.0:
        raise InvalidArgumentError(
            "mu = 0 is not reachable from free-flight position data")
    return _recorded(history, nu / mu, mu, nu, mu, 0.0)


def evolve_distribution(initial: Callable[[float, float, float], float],
                        traj: OscillatorTrajectory, t: float, X: float,
                        mu: float, nu: float) -> float:
    """Cumulative quadrature distribution at time t from the initial one.

    ``initial(X, mu, nu)`` must return the t = 0 cumulative distribution.
    The value at time t follows by substituting the transported argument
    and direction:

        X  -> X + sqrt(2) Re((mu eps + nu eps') conj(delta))
        mu -> mu Re eps + nu Re eps'
        nu -> mu Im eps + nu Im eps'
    """
    mu, nu = _direction(mu, nu)
    eps, epsd, delta = traj.at(t)
    mu_t = mu * eps.real + nu * epsd.real
    nu_t = mu * eps.imag + nu * epsd.imag
    if np.hypot(mu_t, nu_t) < 1e-12:
        raise DegenerateDirectionError(
            f"transported direction collapsed at t = {t!r}")
    shift = np.sqrt(2.0) * ((mu * eps + nu * epsd) * np.conj(delta)).real
    return float(initial(float(X) + shift, mu_t, nu_t))


def initial_tomogram_from_oscillator(history: PositionHistory,
                                     traj: OscillatorTrajectory,
                                     t: float) -> TomogramSlice:
    """Initial-state tomogram in the direction (Re eps(t), Im eps(t)).

    The position density at time t with its argument shifted by
    -sqrt(2) Re(eps conj(delta)); under zero force the shift is 0 and the
    slice is relabelled as recorded.  Mass shifted off the grid is lost,
    not wrapped, and a shift wider than the grid raises ResolutionError
    before any transform.
    """
    eps, _epsd, delta = traj.at(t)
    if np.hypot(eps.real, eps.imag) < 1e-12:
        raise DegenerateDirectionError(f"epsilon vanished at t = {t!r}")
    grid = history.grid
    shift = float(np.sqrt(2.0) * (eps * np.conj(delta)).real)
    if not abs(shift) <= grid.x_max - grid.x_min:
        raise ResolutionError(
            f"recovered slice at t = {t!r} is shifted by {shift!r}, "
            "past the grid width; the shifted support leaves the grid")
    return _recorded(history, t, eps.real, eps.imag, 1.0, shift)

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

from .core import SpatialGrid, WaveFunction, _increasing
from .errors import (
    DegenerateDirectionError,
    InvalidArgumentError,
    OutOfRangeError,
    ResolutionError,
    StepSizeError,
    check,
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
    "initial_tomogram_from_oscillator",
]

# Wronskian drift at which fixed-step integration is rejected.
_WRONSKIAN_RAISE = 1e-6


class _Preset:
    """A named rate shape with one float64 formula: sampled at an array of
    times, or called with a float t, which runs the formula on a 0-d array."""

    def __init__(self, name: str, params: tuple[float, ...], formula):
        self.name, self.params, self._formula = name, params, formula

    def __call__(self, t) -> float:
        return float(self.sample(np.asarray(t, dtype=float)))

    def sample(self, times: np.ndarray) -> np.ndarray:
        # overflow gives inf and nan, as in Python float arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            return self._formula(times)


def constant_rate(value: float) -> Callable[[float], float]:
    """Preset: t -> value."""
    value = float(value)
    return _Preset("constant", (value,), lambda ts: np.full(ts.shape, value))


def linear_ramp(start: float, slope: float) -> Callable[[float], float]:
    """Preset: t -> start + slope * t."""
    start, slope = float(start), float(slope)
    return _Preset("linear-ramp", (start, slope), lambda ts: start + slope * ts)


def cosine_modulated(base: float, depth: float, rate: float) -> Callable[[float], float]:
    """Preset: t -> base * (1 + depth * cos(rate * t)); nan where rate * t
    overflows."""
    base, depth, rate = float(base), float(depth), float(rate)
    return _Preset("cosine-modulated", (base, depth, rate),
                   lambda ts: base * (1.0 + depth * np.cos(rate * ts)))


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
    through the four samples around t; the arrays are read-only copies."""

    def __init__(self, times, epsilon, epsilon_dot, delta):
        t = _increasing(times, "times", min_size=2)
        eps, epsd, dlt = (np.array(a, dtype=complex) for a in (epsilon, epsilon_dot, delta))
        for arr in (eps, epsd, dlt):
            if arr.shape != t.shape:
                raise InvalidArgumentError("trajectory arrays must match times")
        if abs(eps[0] - 1.0) > 1e-12 or abs(epsd[0] - 1j) > 1e-12 or abs(dlt[0]) > 1e-12:
            raise InvalidArgumentError(
                "trajectory must start from epsilon=1, epsilon'=i, delta=0")
        for arr in (eps, epsd, dlt):
            arr.flags.writeable = False
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


def _stages(h, v0, vm, e, ed):
    """RK4's stage values e2, e3, e4 of epsilon from (e, ed) at each step's
    start, with v = -omega^2 at its start and midpoint, and the
    accelerations b1, b2 and slopes ed2, ed3 formed on the way."""
    h2 = 0.5 * h
    b1 = v0 * e
    e2, ed2 = e + h2 * ed, ed + h2 * b1
    b2 = vm * e2
    e3, ed3 = e + h2 * ed2, ed + h2 * b2
    return e2, e3, e + h * ed3, (b1, b2, ed2, ed3)


def _step_increments(h, v0, vm, v1) -> np.ndarray:
    """N with M = I + N the RK4 step of (epsilon, epsilon'), (2, 2, steps):
    the stages run once on each basis column (1, 0) and (0, 1)."""
    e, ed = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    e2, e3, e4, (b1, b2, ed2, ed3) = _stages(h, v0, vm, e, ed)
    b3 = vm * e3
    ed4, b4 = ed + h * b3, v1 * e4
    return h / 6.0 * np.stack((ed + 2.0 * ed2 + 2.0 * ed3 + ed4,
                               b1 + 2.0 * b2 + 2.0 * b3 + b4))


def solve_epsilon_delta(spec: OscillatorSpec) -> OscillatorTrajectory:
    """Integrate the classical pair with fixed-step RK4.

    The rates do not depend on the state, so every stage time (the start,
    midpoint and end of each step; a step's end is the next step's start)
    is sampled before the first step, omega and then force.  A preset runs
    its one formula on the array of all stages; any other callable is
    called once per stage with a float argument, so any scalar callable
    works.  Steps run up to the first stage with a non-finite rate.

    Only epsilon and epsilon' are stepped.  Their system is linear with
    real coefficients, so each step is a real 2x2 matrix M = I + N, and
    (epsilon, epsilon') after step n is M_n ... M_1 applied to (1, i).  N
    holds the RK4 increment alone: M itself would round 1 + N the same way
    in every step, and on a constant rate those roundings add up in phase.
    The prefix products are composed by recursive doubling, in log2(n)
    passes of (I + X)(I + Y) = I + X + Y + XY, the later step on the left.
    Then the Wronskian Im(conj(epsilon) epsilon') is checked at the end of
    every step: at the first step where it drifts beyond 1e-6, or is no
    longer a number, StepSizeError names that step's end time.  Otherwise
    a non-finite rate raises InvalidArgumentError naming its stage time.
    delta does not feed back, so its RK4 stages are rebuilt as arrays from
    epsilon and summed in step order; a delta that overflows raises
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
        stages[0] = 0.0
        stages[2::2] = ends
        stages[1::2] = stages[0:-1:2] + 0.5 * h
        stage_t = stages.tolist()
        ws = _sample_rate(spec.omega, stages, stage_t)
        f = _sample_rate(spec.force, stages, stage_t)
        finite = np.isfinite(ws) & np.isfinite(f)
        first_bad = None if finite.all() else int(np.argmin(finite))
        n_ok = h.size if first_bad is None else max(0, (first_bad - 1) // 2)
        # an overflow is -inf, as in Python float arithmetic; inf and nan
        # run on through the steps, and the Wronskian is checked after them
        with np.errstate(over="ignore", invalid="ignore"):
            v = -(ws * ws)
            n = _step_increments(h[:n_ok], v[0:2 * n_ok:2], v[1:2 * n_ok:2],
                                 v[2:2 * n_ok + 1:2])
            s = 1
            while s < n_ok:
                x, y = n[:, :, s:], n[:, :, :-s]
                n[:, :, s:] = x + y + (x[:, :1] * y[:1] + x[:, 1:] * y[1:])
                s *= 2
            eps, epsd = np.empty(n_ok + 1, complex), np.empty(n_ok + 1, complex)
            eps[0], epsd[0] = 1.0, 1j
            eps.real[1:], eps.imag[1:] = 1.0 + n[0, 0], n[0, 1]
            epsd.real[1:], epsd.imag[1:] = n[1, 0], 1.0 + n[1, 1]
            w = eps.real[1:] * epsd.imag[1:] - eps.imag[1:] * epsd.real[1:]
    except MemoryError:
        raise InvalidArgumentError(
            f"{n_full} steps of dt = {spec.dt!r} do not fit in memory; "
            "raise dt") from None
    check(np.abs(w - 1.0), _WRONSKIAN_RAISE, StepSizeError, lambda i: "Wronskian drifted to "
          f"{float(w[i])!r} at t = {stage_t[2 * i + 2]!r}; reduce dt")
    if first_bad is not None:
        raise InvalidArgumentError(
            f"omega/force not finite at t = {stage_t[first_bad]!r}")

    # the stages the steps ran, on the complex (epsilon, epsilon'); cumsum
    # adds in step order
    e, f0, fm, f1 = eps[:-1], f[0:-1:2], f[1::2], f[2::2]
    e2, e3, e4, _ = _stages(h, v[0:-1:2], v[1::2], e, epsd[:-1])
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
    one shared grid, at strictly increasing times.  ``times`` is a
    read-only copy and ``slices`` a tuple.
    """

    def __init__(self, times, slices: Sequence[TomogramSlice]):
        t = _increasing(times, "times", min_size=1)
        if t.size != len(slices):
            raise InvalidArgumentError("need one time per slice")
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
        self.slices = tuple(slices)
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
    psi0, relabelled (1, 0).  Both components take the one rounded phase
    omega*t, so the direction stays on that ellipse however large t is;
    the second is written t sin(omega t)/(omega t), which is t when omega t
    rounds to 0 (free flight, or a subnormal omega).  The
    transform's unitarity check raises ResolutionError when the evolved
    state leaves the grid.
    """
    times = _increasing(times, "history times")
    if not np.isfinite(omega):
        raise InvalidArgumentError("omega must be finite")
    if times.size and not times[0] >= 0:
        raise InvalidArgumentError("history times must start at t >= 0")
    slices = []
    for t in times:
        phase = omega * t
        s = tomogram(psi0, np.cos(phase), t * (np.sin(phase) / phase) if phase else t)
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
    check(abs(integral - 1.0), 1e-5, ResolutionError, lambda: "recovered slice at "
          f"({mu!r}, {nu!r}) integrates to {integral!r}; the scaled or shifted support "
          "leaves the grid")
    return TomogramSlice(mu, nu, grid, out / integral)


def initial_tomogram_from_position_history(history: PositionHistory, mu: float,
                                           nu: float) -> TomogramSlice:
    """Initial-state tomogram at (mu, nu) read off free-flight position data.

    Free flight reaches the direction (mu, nu) at time t* = nu/mu through
    density(X) = rho(t*, X/mu) / |mu|, so the history must hold t*.  A
    library call: ``evolve`` recovers through the oscillator pair instead.
    """
    mu, nu = _direction(mu, nu)
    if mu == 0.0:
        raise InvalidArgumentError(
            "mu = 0 is not reachable from free-flight position data")
    return _recorded(history, nu / mu, mu, nu, mu, 0.0)


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
    check(abs(shift), grid.x_max - grid.x_min, ResolutionError, lambda: "recovered slice at "
          f"t = {t!r} is shifted by {shift!r}, past the grid width; the shifted support "
          "leaves the grid")
    return _recorded(history, t, eps.real, eps.imag, 1.0, shift)

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


def constant_rate(value: float) -> Callable[[float], float]:
    """Preset: t -> value."""
    value = float(value)
    return lambda t: value


def linear_ramp(start: float, slope: float) -> Callable[[float], float]:
    """Preset: t -> start + slope * t."""
    start, slope = float(start), float(slope)
    return lambda t: start + slope * t


def cosine_modulated(base: float, depth: float, rate: float) -> Callable[[float], float]:
    """Preset: t -> base * (1 + depth * cos(rate * t)); nan where rate * t
    overflows."""
    base, depth, rate = float(base), float(depth), float(rate)

    def at(t):
        try:
            return base * (1.0 + depth * math.cos(rate * t))
        except ValueError:
            return math.nan
    return at


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


def solve_epsilon_delta(spec: OscillatorSpec) -> OscillatorTrajectory:
    """Integrate the classical pair with fixed-step RK4.

    The rates do not depend on the state, so every stage time (the start,
    midpoint and end of each step; a step's end is the next step's start)
    is sampled before the first step: omega at all stages, then force,
    each with a scalar float argument, so any scalar callable works.
    Steps run up to the first stage with a non-finite rate, which then
    raises InvalidArgumentError naming its time.  Only epsilon and
    epsilon' are stepped, on Python complex scalars, and the Wronskian
    Im(conj(epsilon) epsilon') is checked after every step: drift beyond
    1e-6, or a Wronskian that is no longer a number, raises StepSizeError
    naming the failing time.  delta does not feed back, so its RK4 stages
    are rebuilt as arrays after the loop, in the loop's operation order,
    and summed; a delta that overflows raises InvalidArgumentError.
    """
    ratio = spec.t_max / spec.dt
    n_full = int(round(ratio))
    if abs(ratio - n_full) > 1e-9 or n_full == 0:
        n_full = int(np.floor(ratio))
    remainder = spec.t_max - n_full * spec.dt
    h = np.full(n_full, spec.dt)
    if remainder > 1e-12 * max(1.0, spec.t_max):
        h = np.append(h, remainder)
    ends = np.cumsum(h)
    stages = np.empty(2 * h.size + 1)
    stages[0] = 0.0
    stages[2::2] = ends
    stages[1::2] = stages[0:-1:2] + 0.5 * h
    stage_t = stages.tolist()
    ws = [float(spec.omega(t)) for t in stage_t]
    f = np.array([float(spec.force(t)) for t in stage_t])
    finite = np.isfinite(ws) & np.isfinite(f)
    first_bad = None if finite.all() else int(np.argmin(finite))
    n_ok = h.size if first_bad is None else max(0, (first_bad - 1) // 2)
    # squared in Python, where an overflow is -inf and not a warning
    v = np.array([-(w * w) for w in ws])

    # The real factors are held as complex with a zero imaginary part,
    # which is what Python promotes a float factor to, so every product is
    # the same; complex * complex just skips the float's fallback.
    two = 2.0 + 0j
    e, ed = 1.0 + 0j, 1j
    es, eds = [e], [ed]
    vc = v.astype(complex).tolist()
    for h1, h2, h6, v0, vm, v1, t in zip(
            h[:n_ok].astype(complex).tolist(),
            (0.5 * h[:n_ok]).astype(complex).tolist(),
            (h[:n_ok] / 6.0).astype(complex).tolist(),
            vc[0::2], vc[1::2], vc[2::2], stage_t[2::2]):
        b1 = v0 * e
        e2, ed2 = e + h2 * ed, ed + h2 * b1
        b2 = vm * e2
        e3, ed3 = e + h2 * ed2, ed + h2 * b2
        b3 = vm * e3
        e4, ed4 = e + h1 * ed3, ed + h1 * b3
        b4 = v1 * e4
        e = e + h6 * (ed + two * ed2 + two * ed3 + ed4)
        ed = ed + h6 * (b1 + two * b2 + two * b3 + b4)
        w = e.real * ed.imag - e.imag * ed.real
        if not abs(w - 1.0) <= _WRONSKIAN_RAISE:
            raise StepSizeError(
                f"Wronskian drifted to {w!r} at t = {t!r}; reduce dt")
        es.append(e)
        eds.append(ed)
    if first_bad is not None:
        raise InvalidArgumentError(
            f"omega/force not finite at t = {stage_t[first_bad]!r}")

    # numpy promotes a float array factor as Python promotes a float, so
    # these are the loop's stage values, and cumsum adds in step order.
    eps, epsd = np.array(es), np.array(eds)
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


def initial_tomogram_from_position_history(history: PositionHistory, mu: float,
                                           nu: float) -> TomogramSlice:
    """Initial-state tomogram at (mu, nu) read off free-flight position data.

    Free flight reaches the direction (mu, nu) at time t* = nu/mu through
    density(X) = rho(t*, X/mu) / |mu|, so the history must hold t*.  The
    resampling at X/mu is the band-limited one of the transform at
    (mu, 0); the result is checked to stay normalized within 1e-5 and then
    rescaled exactly.
    """
    mu, nu = _direction(mu, nu)
    if mu == 0.0:
        raise InvalidArgumentError(
            "mu = 0 is not reachable from free-flight position data")
    dens_t = history.density_at(nu / mu)
    grid = history.grid
    if mu == 1.0:
        out = dens_t
    else:
        out = np.abs(_quadrature(dens_t, grid, mu, 0.0, grid)) / np.sqrt(abs(mu))
    integral = float(out.sum() * grid.dx)
    if abs(integral - 1.0) > 1e-5:
        raise ResolutionError(
            f"recovered slice at ({mu!r}, {nu!r}) integrates to {integral!r}; "
            "the scaled support leaves the grid")
    return TomogramSlice(mu, nu, grid, out, renormalize=True)


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

    Reads the position slice at time t and shifts its argument by
    -sqrt(2) Re(eps conj(delta)).  A zero shift, as under zero force, is a
    relabelling and returns the slice as recorded.  Otherwise the density
    is shifted spectrally; the FFT is zero-padded to at least 2N samples
    and past the shift, so mass carried off the grid lands in the padding
    instead of wrapping back onto the grid.  A shift wider than the grid
    leaves nothing on it and raises ResolutionError before the FFT is
    sized.  The result is normalized within 1e-5 and rescaled exactly.
    """
    eps, _epsd, delta = traj.at(t)
    if np.hypot(eps.real, eps.imag) < 1e-12:
        raise DegenerateDirectionError(f"epsilon vanished at t = {t!r}")
    dens_t = history.density_at(t)
    grid = history.grid
    shift = np.sqrt(2.0) * (eps * np.conj(delta)).real
    if shift == 0.0:
        return TomogramSlice(eps.real, eps.imag, grid, dens_t, renormalize=True)
    if not abs(shift) <= grid.x_max - grid.x_min:
        raise ResolutionError(
            f"recovered slice at t = {t!r} is shifted by {float(shift)!r}, "
            "past the grid width; the shifted support leaves the grid")
    n = 1 << (2 * grid.n_points + int(abs(shift) / grid.dx) - 1).bit_length()
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    out = np.fft.ifft(np.fft.fft(dens_t, n) * np.exp(-1j * k * shift))
    out = out[:grid.n_points].real
    out = np.where(out < 0.0, 0.0, out)
    integral = float(out.sum() * grid.dx)
    if abs(integral - 1.0) > 1e-5:
        raise ResolutionError(
            f"recovered slice at t = {t!r} integrates to {integral!r}; the "
            "shifted support leaves the grid")
    return TomogramSlice(eps.real, eps.imag, grid, out, renormalize=True)

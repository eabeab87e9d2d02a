"""Grids, wavefunctions and state presets.

Everything downstream works with uniformly sampled complex amplitudes on a
:class:`SpatialGrid`.  Inner products and norms carry the grid weight ``dx``,
so a normalized :class:`WaveFunction` satisfies ``sum |psi|^2 dx = 1``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, ResolutionError, UnsupportedError, check

__all__ = [
    "SpatialGrid",
    "WaveFunction",
    "GaussianPreset",
    "FockPreset",
    "BoundaryLeakWarning",
    "make_grid",
    "default_grid",
    "sample_state",
    "FOCK_N_MAX",
]

# Highest Fock index the recurrence is validated for.
FOCK_N_MAX = 20

# Smallest normal float: a squared norm below it has lost digits.
_TINY = np.finfo(float).tiny

# Relative boundary amplitude above which a sampled state is flagged as
# leaking out of its grid.
_BOUNDARY_LEAK_REL = 1e-8

# Share of the spectral energy |fft(psi)|^2 in the upper half of the band,
# |frequency| >= 1/4 per sample, above which a sampled state is rejected as
# under-resolved.  A vacuum on [-12, 12] carries 0.19 there at 16 points,
# 1.4e-8 at 64 points and 1e-31 at 2048 points.
_ALIAS_SHARE_LIMIT = 1e-6


class BoundaryLeakWarning(UserWarning):
    """A sampled state has non-negligible amplitude at the grid edge."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform spatial grid x_k = x_min + k dx, k = 0 .. n_points-1."""

    x_min: float
    dx: float
    n_points: int

    def __post_init__(self):
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 2:
            raise InvalidArgumentError("n_points must be an integer >= 2")
        if not (np.isfinite(self.x_min) and np.isfinite(self.dx) and np.isfinite(self.x_max)):
            raise InvalidArgumentError("grid parameters must be finite")
        if self.dx <= 0:
            raise InvalidArgumentError("dx must be positive")

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n_points)
        x.flags.writeable = False
        return x


def _increasing(values, what: str, min_size: int = 0) -> np.ndarray:
    """A read-only float64 copy of ``values``: at least ``min_size`` finite
    numbers, each above the one before (compared, so a gap may overflow)."""
    v = np.array(values, dtype=float)
    if not (v.ndim == 1 and v.size >= min_size and np.all(np.isfinite(v))
            and np.all(v[1:] > v[:-1])):
        size = f", of {min_size} or more values" if min_size else ""
        raise InvalidArgumentError(
            f"{what} must be a finite 1D sequence, strictly increasing{size}")
    v.flags.writeable = False
    return v


def make_grid(x_min: float, x_max: float, n_points: int) -> SpatialGrid:
    """Build the grid covering [x_min, x_max] with n_points samples."""
    if not (np.isfinite(x_min) and np.isfinite(x_max)) or x_max <= x_min:
        raise InvalidArgumentError("need finite x_min < x_max")
    if not isinstance(n_points, (int, np.integer)) or n_points < 2:
        raise InvalidArgumentError("n_points must be an integer >= 2")
    return SpatialGrid(float(x_min), (float(x_max) - float(x_min)) / (n_points - 1), int(n_points))


def default_grid() -> SpatialGrid:
    """The default working window, [-12, 12] with 2048 samples."""
    return make_grid(-12.0, 12.0, 2048)


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitudes on a grid, normalized so sum |psi|^2 dx = 1.

    Parameters
    ----------
    grid : SpatialGrid
    amplitudes : array_like of complex, matching ``grid.n_points``
    normalize : bool
        Rescale to unit norm (default).  When False the input must already
        be normalized to within 1e-9.

    The sum of |psi|^2, with and without dx, must be a normal float: one
    that overflows or is subnormal has lost the digits normalizing needs.
    The amplitudes are a read-only copy; equality is by identity.
    """

    grid: SpatialGrid
    amplitudes: np.ndarray
    normalize: InitVar[bool] = True

    def __post_init__(self, normalize: bool):
        if not isinstance(self.grid, SpatialGrid):
            raise InvalidArgumentError("grid must be a SpatialGrid")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n_points,):
            raise InvalidArgumentError(
                f"amplitudes must have shape ({self.grid.n_points},), got {amps.shape}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise InvalidArgumentError("amplitudes must be finite")
        with np.errstate(over="ignore"):
            squares = float(np.sum(np.abs(amps) ** 2))
        nrm2 = squares * self.grid.dx
        if not (_TINY <= squares and _TINY <= nrm2 < np.inf):
            raise InvalidArgumentError(
                f"amplitudes have squared norm {nrm2!r}, not a normal float")
        if normalize:
            amps = amps / np.sqrt(nrm2)
        elif abs(nrm2 - 1.0) > 1e-9:
            raise InvalidArgumentError(
                f"amplitudes not normalized: sum |psi|^2 dx = {nrm2!r}")
        else:
            amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> np.ndarray:
        """Position density |psi(x_k)|^2."""
        return np.abs(self.amplitudes) ** 2

    def inner(self, other: "WaveFunction") -> complex:
        """<self|other> with the dx weight."""
        if other.grid != self.grid:
            raise InvalidArgumentError("wavefunctions live on different grids")
        return complex(np.sum(np.conj(self.amplitudes) * other.amplitudes) * self.grid.dx)


@dataclass(frozen=True)
class GaussianPreset:
    """Gaussian packet centered at x0 with mean momentum p0 and position
    spread sigma (so sigma_xx = sigma^2)."""

    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 2.0 ** -0.5

    def __post_init__(self):
        if not (np.isfinite(self.x0) and np.isfinite(self.p0) and np.isfinite(self.sigma)):
            raise InvalidArgumentError("gaussian preset parameters must be finite")
        if not (self.sigma > 0 and 0.0 < self.sigma * self.sigma < np.inf):
            raise InvalidArgumentError("sigma must be positive, with a nonzero finite square")


@dataclass(frozen=True)
class FockPreset:
    """Harmonic oscillator number state."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise InvalidArgumentError("fock index must be a nonnegative integer")


def _hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions h_0..h_n_max by the stable recurrence."""
    h = np.zeros((n_max + 1, x.size))
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is exact
        h[0] = np.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    if n_max >= 1:
        h[1] = np.sqrt(2.0) * x * h[0]
    for n in range(2, n_max + 1):
        h[n] = np.sqrt(2.0 / n) * x * h[n - 1] - np.sqrt((n - 1.0) / n) * h[n - 2]
    return h


def _admit(amps: np.ndarray, what: str) -> None:
    """The one admission rule for a sampled state, run on its amplitudes as
    sampled or read, never re-normalised: more than 1e-6 of the spectral
    energy at frequencies of at least a quarter per sample raises
    ResolutionError, then an edge amplitude above 1e-8 of the peak warns
    with BoundaryLeakWarning at the line that called the public function."""
    power = np.abs(np.fft.fft(amps)) ** 2
    total = power.sum()  # 0 if every amplitude underflowed; WaveFunction rejects it
    share = power[np.abs(np.fft.fftfreq(amps.size)) >= 0.25].sum() / total if total else 0.0
    check(share, _ALIAS_SHARE_LIMIT, ResolutionError, lambda: f"{what}: {share:.2e} of the "
          "spectral energy lies in the upper half of the band; the grid under-resolves "
          f"the state, suggest n_points >= {2 * amps.size}")
    peak = np.abs(amps).max()
    edge = max(abs(amps[0]), abs(amps[-1])) / peak if peak > 0 else 0.0
    check(edge, _BOUNDARY_LEAK_REL, BoundaryLeakWarning, lambda: f"{what}: boundary "
          f"amplitude {edge:.2e} of peak; grid may be too narrow")


def sample_state(preset: GaussianPreset | FockPreset, grid: SpatialGrid) -> WaveFunction:
    """Realize a preset on a grid as a normalized WaveFunction.

    The samples pass the admission rule of :func:`_admit` first.
    """
    x = grid.points
    if isinstance(preset, GaussianPreset):
        s2 = preset.sigma ** 2
        with np.errstate(over="ignore", invalid="ignore"):  # exp(-inf) = 0; nan fails below
            amps = ((2.0 * np.pi * s2) ** -0.25
                    * np.exp(-((x - preset.x0) ** 2) / (4.0 * s2) + 1j * preset.p0 * x))
    elif isinstance(preset, FockPreset):
        if preset.n > FOCK_N_MAX:
            raise UnsupportedError(
                f"fock index {preset.n} above validated maximum {FOCK_N_MAX}")
        amps = _hermite_functions(preset.n, x)[preset.n].astype(np.complex128)
    else:
        raise InvalidArgumentError(f"unknown state preset {preset!r}")
    _admit(amps, f"sample_state({preset!r})")
    return WaveFunction(grid, amps)

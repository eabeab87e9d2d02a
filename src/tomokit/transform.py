"""Quadrature transform, tomogram slices and Gaussian closed forms.

The central object is the two-parameter unitary transform

    (F psi)(X) = (2 pi |nu|)^(-1/2) integral exp(-i X y/nu + i mu y^2/(2 nu)) psi(y) dy

whose squared modulus is the tomographic density of the quadrature
mu*x + nu*p.  The discrete sum over the input grid is evaluated directly
on the output grid by Bluestein's chirp-z algorithm (Bluestein 1970;
Rabiner, Schafer & Rader 1969): the product x_k y_n splits into chirps
in n and k and one in k - n, so the sum becomes a single FFT convolution.
The two chirp vectors and the transformed kernel form a plan that depends
only on the grids and the direction; plans are cached, so a repeated
direction costs two FFTs.  The sum is exact to rounding; no intermediate
resampling is involved.  Near the position axis, where the grid cannot
sample the chirp, the same sum runs over the momentum samples at
(nu, -mu): the Fourier transform maps (x, p) to (p, -x), so this gives the
transform up to an X-dependent phase, and the tomogram exactly (Koc,
Ozaktas, Candan & Kutay 2008).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import SpatialGrid, WaveFunction, _check_boundary
from .errors import InvalidArgumentError, InvalidCovarianceError, ResolutionError

__all__ = [
    "TomogramSlice",
    "GaussianState",
    "tomogram",
    "tomogram_gaussian",
    "sample_pure_gaussian",
]

# Amplitudes below this fraction of the peak do not count toward the
# effective support used in resolution checks.
_SUPPORT_REL = 1e-12

# Components of a unit line direction within this of zero are exactly zero,
# and two lines within it componentwise are one line.
_LINE_ATOL = 1e-9


def _direction(mu, nu) -> tuple[float, float]:
    """The one check of a measurement direction: finite and not (0, 0)."""
    mu, nu = float(mu), float(nu)
    if not (math.isfinite(mu) and math.isfinite(nu)) or mu == nu == 0.0:
        raise InvalidArgumentError("direction (mu, nu) must be finite, not (0, 0)")
    return mu, nu


class TomogramSlice:
    """Tomographic density of the quadrature mu*x + nu*p on a grid.

    Invariants: (mu, nu) finite and != (0, 0); density >= 0;
    sum(density) dx = 1 within 1e-6.
    """

    def __init__(self, mu: float, nu: float, grid: SpatialGrid, density):
        mu, nu = _direction(mu, nu)
        if not isinstance(grid, SpatialGrid):
            raise InvalidArgumentError("grid must be a SpatialGrid")
        d = np.asarray(density, dtype=float)
        if d.shape != (grid.n_points,):
            raise InvalidArgumentError(
                f"density must have shape ({grid.n_points},), got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise InvalidArgumentError("density must be finite")
        peak = d.max() if d.size else 0.0
        if peak <= 0.0:
            raise InvalidArgumentError("density must be positive somewhere")
        if d.min() < -1e-9 * peak:
            raise InvalidArgumentError(
                f"density has negative values down to {d.min()!r}")
        d = np.where(d < 0.0, 0.0, d)
        integral = float(d.sum() * grid.dx)
        if abs(integral - 1.0) > 1e-6:
            raise InvalidArgumentError(
                f"density integrates to {integral!r}, off 1 beyond 1e-6")
        d.flags.writeable = False
        self._mu = mu
        self._nu = nu
        self._grid = grid
        self._density = d

    @property
    def mu(self) -> float:
        return self._mu

    @property
    def nu(self) -> float:
        return self._nu

    @property
    def grid(self) -> SpatialGrid:
        return self._grid

    @property
    def density(self) -> np.ndarray:
        return self._density

    @property
    def line(self) -> tuple[float, float]:
        """Unit representative (u, v) of the undirected line through
        (mu, nu): components within 1e-9 of 0 are exactly 0, and v > 0, or
        v = 0 and u > 0.  Opposite directions share a line."""
        r = math.hypot(self.mu, self.nu)
        u, v = self.mu / r, self.nu / r
        if v < -_LINE_ATOL or (v <= _LINE_ATOL and u < 0.0):
            u, v = -u, -v
        return (0.0 if abs(u) <= _LINE_ATOL else u,
                0.0 if abs(v) <= _LINE_ATOL else v)

    @property
    def is_position(self) -> bool:
        """Whether this is the position tomogram, (mu, nu) = (1, 0) to 1e-12."""
        return abs(self.mu - 1.0) <= 1e-12 and abs(self.nu) <= 1e-12


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state given by its covariances.

    The uncertainty bound sigma_xx*sigma_pp - sigma_xp^2 >= 1/4 is enforced
    at construction (with 1e-10 slack for roundoff).
    """

    sigma_xx: float
    sigma_pp: float
    sigma_xp: float = 0.0

    def __post_init__(self):
        for v in (self.sigma_xx, self.sigma_pp, self.sigma_xp):
            if not np.isfinite(v):
                raise InvalidCovarianceError("covariances must be finite")
        if self.sigma_xx <= 0 or self.sigma_pp <= 0:
            raise InvalidCovarianceError("diagonal covariances must be positive")
        try:
            det = self.determinant
        except OverflowError:  # sigma_xp ** 2
            raise InvalidCovarianceError(
                f"cross covariance {self.sigma_xp!r} overflows the "
                "determinant") from None
        if det < 0.25 - 1e-10:
            raise InvalidCovarianceError(
                f"covariance determinant {det!r} violates the "
                "uncertainty bound 1/4")

    @property
    def determinant(self) -> float:
        return self.sigma_xx * self.sigma_pp - self.sigma_xp ** 2


def _reach(values: np.ndarray, points: np.ndarray) -> float:
    """Largest |point| where a row of the (..., N) stack ``values`` carries
    amplitude above 1e-12 of that row's peak."""
    mag = np.abs(values)
    above = mag > _SUPPORT_REL * mag.max(axis=-1, keepdims=True)
    return float(np.abs(points[np.nonzero(above)[-1]]).max())


def _kernel_rate(values, grid: SpatialGrid, mu: float, nu: float,
                 out_grid: SpatialGrid) -> float:
    """Fastest local frequency of the kernel exp(i mu y^2/(2 nu) - i X y/nu)
    over the support of ``values`` and the output grid; infinite at nu = 0."""
    if nu == 0.0:
        return np.inf
    x_abs = max(abs(out_grid.x_min), abs(out_grid.x_max))
    return (abs(mu) * _reach(values, grid.points) + x_abs) / abs(nu)


def _undersampled(grid: SpatialGrid, mu: float, nu: float, rate: float) -> str:
    nyquist = np.pi / grid.dx
    need = np.ceil(grid.n_points * rate / nyquist)  # inf if the rate overflowed
    return (f"kernel at (mu={mu!r}, nu={nu!r}) oscillates at {rate:.1f} rad "
            f"per unit, above the grid Nyquist {nyquist:.1f}; "
            f"suggest n_points >= {need:.0f}")


class _Plan(NamedTuple):
    """Read-only vectors of one Bluestein transform between two grids."""

    pre: np.ndarray   # (N,) input chirp, start phase and half-chirp
    ker: np.ndarray   # (L,) FFT of the conjugate half-chirp, L = 2^ceil(log2(N+M-1))
    post: np.ndarray  # (M,) half-chirp, output phase and quadrature weight


@lru_cache(maxsize=32)
def _plan(grid: SpatialGrid, mu: float, nu: float, out_grid: SpatialGrid) -> _Plan:
    """Bluestein plan for dy sum_n v_n exp(i mu y_n^2/(2 nu) - i x_k y_n/nu).

    With y_n = y0 + n dy, x_k = x0 + k dx and a = dx dy/nu the phase
    x_k y_n/nu is x_k y0/nu + n dy x0/nu + a nk, and
    nk = (n^2 + k^2 - (k - n)^2)/2 turns the a nk term into a convolution.
    """
    n_in, n_out = grid.n_points, out_grid.n_points
    a = grid.dx * out_grid.dx / nu
    n = np.arange(n_in, dtype=float)
    k = np.arange(n_out, dtype=float)
    y = grid.points
    pre = np.exp(1j * (mu * y ** 2 / (2.0 * nu) - n * grid.dx * out_grid.x_min / nu
                       - 0.5 * a * n ** 2))
    # exp(i a j^2/2) at lags j = 0 .. M-1, then j = -(N-1) .. -1 wrapped;
    # a negative lag takes its absolute value's chirp
    c = np.exp(0.5j * a * (n if n_in >= n_out else k) ** 2)
    chirp = np.zeros(1 << (n_in + n_out - 2).bit_length(), dtype=complex)
    chirp[:n_out] = c[:n_out]
    chirp[chirp.size - n_in + 1:] = c[n_in - 1:0:-1]
    ker = np.fft.fft(chirp)
    post = (np.exp(-1j * (0.5 * a * k ** 2 + out_grid.points * grid.x_min / nu))
            * (grid.dx / np.sqrt(2.0 * np.pi * abs(nu))))
    for v in (pre, ker, post):
        v.flags.writeable = False
    return _Plan(pre, ker, post)


def _transform_samples(values: np.ndarray, grid: SpatialGrid, mu: float,
                       nu: float, out_grid: SpatialGrid) -> np.ndarray:
    """Discrete transform of raw samples; no normalization checks.

    Evaluates dy * sum_n values_n exp(i mu y_n^2/(2 nu) - i x_k y_n/nu)
    divided by sqrt(2 pi |nu|) on the output grid, along the last axis of
    a (..., N) stack, with the cached plan of (grid, mu, nu, out_grid).
    The convolution runs in place in one zero-padded (..., L) buffer.
    """
    plan = _plan(grid, mu, nu, out_grid)
    buf = np.zeros(np.shape(values)[:-1] + plan.ker.shape, dtype=complex)
    np.multiply(values, plan.pre, out=buf[..., :grid.n_points])
    np.fft.fft(buf, out=buf)
    buf *= plan.ker
    np.fft.ifft(buf, out=buf)
    return buf[..., :out_grid.n_points] * plan.post


def _quadrature(values: np.ndarray, grid: SpatialGrid, mu: float, nu: float,
                out_grid: SpatialGrid) -> np.ndarray:
    """Transform a (..., N) stack at (mu, nu) onto ``out_grid``, up to an
    X-dependent phase shared by every row.

    The position samples serve when the kernel rate is within pi/dx.
    Otherwise, for |nu| <= |mu|, the unitary momentum samples on n >= 2N
    wavenumbers are transformed at (nu, -mu).  That sum is periodic in
    X/mu with period n dx; the samples vanish off their grid, so the result
    is kept where X/mu is on the grid.  The kernel's spread
    |nu| k_max/|mu| (at most pi/dx) sets n so that no periodic image
    reaches the grid; hard-edged rows, whose spectra run to pi/dx, need
    more than 2N.  Further from the axis the position side's
    ResolutionError is raised.
    """
    rate = _kernel_rate(values, grid, mu, nu, out_grid)
    if rate <= np.pi / grid.dx:
        return _transform_samples(values, grid, mu, nu, out_grid)
    if abs(nu) > abs(mu):
        raise ResolutionError(_undersampled(grid, mu, nu, rate))
    n = 1 << (2 * grid.n_points - 1).bit_length()
    phi, kgrid = _momentum(values, grid, n)
    spread = abs(nu) * _reach(phi, kgrid.points) / abs(mu)
    if not spread < np.inf:
        raise ResolutionError(_undersampled(grid, mu, nu, rate))
    wide = grid.n_points + int(spread / grid.dx)
    if wide > n:
        n = 1 << (wide - 1).bit_length()
        phi, kgrid = _momentum(values, grid, n)
        spread = abs(nu) * _reach(phi, kgrid.points) / abs(mu)
    if not spread < (n - grid.n_points + 1) * grid.dx:
        raise ResolutionError(_undersampled(grid, mu, nu, rate))
    y = out_grid.points / mu
    return np.where((y >= grid.x_min) & (y <= grid.x_max),
                    _transform_samples(phi, kgrid, nu, -mu, out_grid), 0.0)


def _momentum(values: np.ndarray, grid: SpatialGrid,
              n: int) -> tuple[np.ndarray, SpatialGrid]:
    """Unitary momentum samples of a (..., N) stack on n wavenumbers of
    spacing 2 pi/(n dx), centred on k = 0, with the wavenumber grid."""
    dk = 2.0 * np.pi / (n * grid.dx)
    kgrid = SpatialGrid(-0.5 * n * dk, dk, n)
    phi = (np.fft.fftshift(np.fft.fft(values, n), axes=-1)
           * (np.exp(-1j * kgrid.points * grid.x_min)
              * (grid.dx / np.sqrt(2.0 * np.pi))))
    return phi, kgrid


def _check_norm(out: np.ndarray, density: np.ndarray, grid: SpatialGrid) -> None:
    """Unitarity: a transformed state ``out``, whose squared modulus is
    ``density``, keeps norm 1 within 1e-8.

    Norm lost with amplitude at a grid edge means the output spills off
    the grid; norm lost with none there (or no output at all) means the
    slice is narrower than dx, and w(X; l mu, l nu) = w(X/l; mu, nu)/|l|.
    """
    nrm = float(np.sqrt(np.sum(density) * grid.dx))
    if abs(nrm - 1.0) <= 1e-8:
        return
    mag = np.abs(out)
    if max(mag[0], mag[-1]) > 1e-8 * mag.max():
        advice = (f"output grid cannot contain the transformed state, suggest "
                  f"n_points >= {2 * grid.n_points} with a wider extent")
    else:
        advice = ("the slice is narrower than the grid spacing, suggest a "
                  "finer grid or a longer direction")
    raise ResolutionError(f"transform norm {nrm!r} off 1 beyond 1e-8; {advice}")


def tomogram(psi: WaveFunction, mu: float, nu: float) -> TomogramSlice:
    """Tomographic density of mu*x + nu*p for a pure state: |psi|^2 at
    (1, 0), elsewhere |F psi|^2 with the norm of F psi checked to 1e-8."""
    mu, nu = _direction(mu, nu)
    grid = psi.grid
    if (mu, nu) == (1.0, 0.0):
        return TomogramSlice(mu, nu, grid, psi.density())
    out = _quadrature(psi.amplitudes, grid, mu, nu, grid)
    density = np.abs(out) ** 2
    _check_norm(out, density, grid)
    return TomogramSlice(mu, nu, grid, density)


def tomogram_gaussian(state: GaussianState, mu: float, nu: float,
                      grid: SpatialGrid) -> TomogramSlice:
    """Closed-form Gaussian tomogram with variance
    v = sigma_xx mu^2 + 2 sigma_xp mu nu + sigma_pp nu^2.  A v that is
    not finite raises ResolutionError: no grid extent holds it."""
    mu, nu = _direction(mu, nu)
    try:
        v = (state.sigma_xx * mu ** 2 + 2.0 * state.sigma_xp * mu * nu
             + state.sigma_pp * nu ** 2)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ResolutionError(
            f"quadrature variance at ({mu!r}, {nu!r}) overflows")
    if v <= 0.0:
        raise InvalidCovarianceError(
            f"quadrature variance {v!r} not positive at ({mu!r}, {nu!r})")
    x = grid.points
    density = np.exp(-x ** 2 / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
    integral = float(density.sum() * grid.dx)
    if abs(integral - 1.0) > 1e-6:
        raise ResolutionError(
            f"Gaussian slice with variance {v!r} integrates to {integral!r} "
            "on this grid; widen the extent")
    return TomogramSlice(mu, nu, grid, density)


def sample_pure_gaussian(state: GaussianState, grid: SpatialGrid) -> WaveFunction:
    """Realize a pure Gaussian state (determinant exactly 1/4) on a grid.

    The wavefunction exp(-(alpha + i beta) x^2 / 2) with alpha = 1/(2 sigma_xx)
    and beta = -sigma_xp/sigma_xx reproduces all three covariances.
    """
    if abs(state.determinant - 0.25) > 1e-8:
        raise InvalidArgumentError(
            f"determinant {state.determinant!r} != 1/4: not a pure state")
    alpha = 1.0 / (2.0 * state.sigma_xx)
    beta = -state.sigma_xp / state.sigma_xx
    x = grid.points
    amps = np.exp(-0.5 * (alpha + 1j * beta) * x ** 2)
    _check_boundary(amps, f"sample_pure_gaussian({state!r})")
    return WaveFunction(grid, amps)

"""Quadrature transform, tomogram slices and Gaussian closed forms.

The central object is the two-parameter unitary transform

    (F psi)(X) = (2 pi |nu|)^(-1/2) integral exp(-i X y/nu + i mu y^2/(2 nu)) psi(y) dy

whose squared modulus is the tomographic density of the quadrature
mu*x + nu*p.  The discrete sum over the input grid is evaluated directly
on the output grid by Bluestein's chirp-z algorithm (Bluestein 1970;
Rabiner, Schafer & Rader 1969): the product x_k y_n splits into chirps
in n and k and one in k - n, so the sum becomes a single FFT convolution.
The input chirp, the transformed kernel chirp and the output vector form a
plan that depends only on the grids and the direction.  The output vector
is the kernel chirp's conjugate times a linear phase separable in the
output index, so a plan costs two exponential passes and one FFT; plans
are cached, so a repeated direction costs two FFTs.  The sum is exact to
rounding; no intermediate resampling is involved.  Near the position
axis, where the grid cannot sample the chirp, the same sum runs over the
momentum samples at (nu, -mu): the Fourier transform maps (x, p) to
(p, -x), so this gives the transform up to an X-dependent phase, and the
tomogram exactly (Koc, Ozaktas, Candan & Kutay 2008).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import SpatialGrid, WaveFunction, _admit
from .errors import InvalidArgumentError, InvalidCovarianceError, ResolutionError, check

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


@dataclass(frozen=True, eq=False)
class TomogramSlice:
    """Tomographic density of the quadrature mu*x + nu*p on a grid.

    Invariants: (mu, nu) finite and != (0, 0); density real, finite and
    positive somewhere; no sample below -1e-9 of the peak, and negative
    ones clamped to 0; sum(density) dx = 1 within 1e-6.  The density is a
    read-only copy.
    Equality and hashing are by identity, which the weak memos key on.
    """

    mu: float
    nu: float
    grid: SpatialGrid
    density: np.ndarray

    def __post_init__(self):
        mu, nu = _direction(self.mu, self.nu)
        if not isinstance(self.grid, SpatialGrid):
            raise InvalidArgumentError("grid must be a SpatialGrid")
        if np.iscomplexobj(self.density):
            raise InvalidArgumentError("density must be real")
        d = np.asarray(self.density, dtype=float)
        if d.shape != (self.grid.n_points,):
            raise InvalidArgumentError(
                f"density must have shape ({self.grid.n_points},), got {d.shape}")
        # nan carries through both extremes and +-inf shows in one, so two
        # finite extremes mean every sample is finite
        peak, low = d.max(), d.min()
        if not (np.isfinite(peak) and np.isfinite(low)):
            raise InvalidArgumentError("density must be finite")
        if peak <= 0.0:
            raise InvalidArgumentError("density must be positive somewhere")
        if low < -1e-9 * peak:
            raise InvalidArgumentError(
                f"density has negative values down to {low!r}")
        # a copy either way, which keeps -0.0 as the clamp does
        d = np.where(d < 0.0, 0.0, d) if low < 0.0 else d.copy()
        integral = float(d.sum() * self.grid.dx)
        if abs(integral - 1.0) > 1e-6:
            raise InvalidArgumentError(
                f"density integrates to {integral!r}, off 1 beyond 1e-6")
        d.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "density", d)

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
    over the output grid and the input's whole extent, when that is within
    pi/dx (the support of ``values`` lies in the extent), else over that
    support; infinite at nu = 0."""
    if nu == 0.0:
        return np.inf
    x_abs = max(abs(out_grid.x_min), abs(out_grid.x_max))
    bound = (abs(mu) * max(abs(grid.x_min), abs(grid.x_max)) + x_abs) / abs(nu)
    if bound <= np.pi / grid.dx:
        return bound
    return (abs(mu) * _reach(values, grid.points) + x_abs) / abs(nu)


def _figure(value: float, decimals: int) -> str:
    """A positive figure for a message: fixed point with ``decimals``
    below 1e9, else 4 significant digits, so no figure runs to hundreds."""
    return f"{value:.{decimals}f}" if value < 1e9 else f"{value:.4g}"


def _undersampled(grid: SpatialGrid, mu: float, nu: float, rate: float) -> str:
    nyquist = np.pi / grid.dx
    need = np.ceil(grid.n_points * rate / nyquist)  # inf if the rate overflowed
    return (f"kernel at (mu={mu!r}, nu={nu!r}) oscillates at {_figure(rate, 1)} rad "
            f"per unit, above the grid Nyquist {nyquist:.1f}; "
            f"suggest n_points >= {_figure(need, 0)}")


class _Plan(NamedTuple):
    """Read-only vectors of one Bluestein transform between two grids."""

    pre: np.ndarray   # (N,) input chirp, start phase and half-chirp
    ker: np.ndarray   # (L,) FFT of the conjugate half-chirp, L = 2^ceil(log2(N+M-1))
    post: np.ndarray  # (M,) half-chirp, output phase and quadrature weight


# Output indices k = _BLOCK q + r: the output's linear phase is the outer
# product of one exponential per block q and one per offset r.
_BLOCK = 64


@lru_cache(maxsize=8)
def _index_terms(grid: SpatialGrid, out_grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """The direction-free terms of a plan between two grids, read-only: the
    index squares j^2 for j = 0 .. max(N, M)-1 and the offset ramp
    (n dx) x0 of the output's start x0 for n = 0 .. N-1."""
    j2 = np.arange(max(grid.n_points, out_grid.n_points), dtype=float) ** 2
    ramp = np.arange(grid.n_points, dtype=float) * grid.dx * out_grid.x_min
    for v in (j2, ramp):
        v.flags.writeable = False
    return j2, ramp


@lru_cache(maxsize=32)
def _plan(grid: SpatialGrid, mu: float, nu: float, out_grid: SpatialGrid) -> _Plan:
    """Bluestein plan for dy sum_n v_n exp(i mu y_n^2/(2 nu) - i x_k y_n/nu).

    With y_n = y0 + n dy, x_k = x0 + k dx and a = dx dy/nu the phase
    x_k y_n/nu is x_k y0/nu + n dy x0/nu + a nk, and
    nk = (n^2 + k^2 - (k - n)^2)/2 turns the a nk term into a convolution.
    The kernel chirp c_j = exp(i a j^2/2) covers every output index, so
    post_k = exp(-i(a k^2/2 + x_k y0/nu)) w, with w = dy/sqrt(2 pi |nu|),
    is conj(c_k) times the linear phase exp(-i x_k y0/nu) w, the outer
    product of short exponentials in q and r for k = _BLOCK q + r.  Only
    ``pre`` and ``c`` are full-length exponentials; y_n^2, n^2 and the
    ramp n dy x0 are the grids' own (see :func:`_index_terms`), so only
    the phases that scale with the direction are formed here.
    """
    n_in, n_out = grid.n_points, out_grid.n_points
    a = grid.dx * out_grid.dx / nu
    j2, ramp = _index_terms(grid, out_grid)
    pre = np.exp(1j * (mu * grid._squares / (2.0 * nu) - ramp / nu - 0.5 * a * j2[:n_in]))
    # exp(i a j^2/2) at lags j = 0 .. M-1, then j = -(N-1) .. -1 wrapped;
    # a negative lag takes its absolute value's chirp
    c = np.exp(0.5j * a * j2)
    ker = np.zeros(1 << (n_in + n_out - 2).bit_length(), dtype=complex)
    ker[:n_out] = c[:n_out]
    ker[ker.size - n_in + 1:] = c[n_in - 1:0:-1]
    np.fft.fft(ker, out=ker)
    slope = grid.x_min / nu
    offsets = np.exp(-1j * slope * (out_grid.x_min
                                    + out_grid.dx * np.arange(_BLOCK, dtype=float)))
    offsets *= grid.dx / np.sqrt(2.0 * np.pi * abs(nu))
    blocks = np.exp(-1j * (slope * _BLOCK * out_grid.dx)
                    * np.arange(-(-n_out // _BLOCK), dtype=float))
    post = np.conj(c[:n_out])
    post *= np.outer(blocks, offsets).ravel()[:n_out]
    for v in (pre, ker, post):
        v.flags.writeable = False
    return _Plan(pre, ker, post)


# The work array of _transform_samples, one per thread so that concurrent
# callers never share it; never handed out.
_work = threading.local()


def _transform_samples(values: np.ndarray, grid: SpatialGrid, mu: float,
                       nu: float, out_grid: SpatialGrid) -> np.ndarray:
    """Discrete transform of raw samples; no normalization checks.

    Evaluates dy * sum_n values_n exp(i mu y_n^2/(2 nu) - i x_k y_n/nu)
    divided by sqrt(2 pi |nu|) on the output grid, along the last axis of
    a (..., N) stack, with the cached plan of (grid, mu, nu, out_grid).
    The convolution runs in place in one zero-padded (..., L) buffer, a
    view of the thread's work array, which grows to the largest stack seen
    and is kept between calls; the result is always a fresh array.
    """
    plan = _plan(grid, mu, nu, out_grid)
    shape = np.shape(values)[:-1] + plan.ker.shape
    size = math.prod(shape)
    buf = getattr(_work, "array", None)
    if buf is None or buf.size < size:
        buf = _work.array = np.empty(size, dtype=complex)
    buf = buf[:size].reshape(shape)
    np.multiply(values, plan.pre, out=buf[..., :grid.n_points])
    buf[..., grid.n_points:] = 0.0
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
    more than 2N.  A spread the padding cannot hold, or a padding that no
    array can hold, raises ResolutionError naming the spread; further from
    the axis the position side's ResolutionError is raised.  When no X/mu
    is on the grid, as at a direction so short that X/mu overflows, or the
    plan's largest phase overflows, the result is zero and no plan is built.
    """
    rate = _kernel_rate(values, grid, mu, nu, out_grid)
    if rate <= np.pi / grid.dx:
        return _transform_samples(values, grid, mu, nu, out_grid)
    if abs(nu) > abs(mu):
        raise ResolutionError(_undersampled(grid, mu, nu, rate))
    n = 1 << (2 * grid.n_points - 1).bit_length()
    phi, kgrid = _momentum(values, grid, n)
    spread = abs(nu) * _reach(phi, kgrid.points) / abs(mu)
    steps = spread / grid.dx
    if steps < np.inf and grid.n_points + int(steps) > n:
        n = 1 << (grid.n_points + int(steps) - 1).bit_length()
        try:
            phi, kgrid = _momentum(values, grid, n)
        except (MemoryError, ValueError):  # numpy refuses what no array can hold
            raise ResolutionError(
                f"near-axis padding of (mu={mu!r}, nu={nu!r}) to {n} wavenumbers, "
                f"for a kernel spread of {spread:.3g}, does not fit in memory; "
                "suggest a longer direction or a coarser grid") from None
        spread = abs(nu) * _reach(phi, kgrid.points) / abs(mu)
    room = (n - grid.n_points + 1) * grid.dx
    if not spread < room:
        raise ResolutionError(
            f"near-axis kernel at (mu={mu!r}, nu={nu!r}) spreads the samples by "
            f"{spread:.3g}, not within the room (n - N + 1) dx = {room:.3g} of "
            f"n = {n} wavenumbers; suggest a longer direction or a coarser grid")
    with np.errstate(over="ignore"):  # an X/mu past the largest float is off the grid
        y = out_grid.points / mu
        # the largest phase of the momentum-side plan, whose rate is dk dx/mu
        top = max(n, out_grid.n_points)
        x_abs = max(abs(out_grid.x_min), abs(out_grid.x_max))
        phase = kgrid.dx * top * (top * out_grid.dx + x_abs) / abs(mu)
    inside = (y >= grid.x_min) & (y <= grid.x_max)
    if not (inside.any() and phase < np.inf):
        return np.zeros(np.shape(values)[:-1] + (out_grid.n_points,), complex)
    return np.where(inside, _transform_samples(phi, kgrid, nu, -mu, out_grid), 0.0)


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
    check(abs(nrm - 1.0), 1e-8, ResolutionError, lambda: f"transform norm {nrm!r} off 1; " + (
        "output grid cannot contain the transformed state, suggest n_points >= "
        f"{2 * grid.n_points} with a wider extent"
        if max(abs(out[0]), abs(out[-1])) > 1e-8 * np.abs(out).max() else
        "the slice is narrower than the grid spacing, suggest a finer grid or a longer direction"))


def _density(psi: WaveFunction, mu: float, nu: float) -> np.ndarray:
    """The tomographic density of mu*x + nu*p for a pure state, not yet
    admitted as a slice: |psi|^2 at (1, 0), elsewhere |F psi|^2 with the
    norm of F psi checked to 1e-8 (see :func:`_check_norm`).  The direction
    is checked first, as a slice checks it."""
    mu, nu = _direction(mu, nu)
    if (mu, nu) == (1.0, 0.0):
        return psi.density()
    out = _quadrature(psi.amplitudes, psi.grid, mu, nu, psi.grid)
    density = np.abs(out) ** 2
    _check_norm(out, density, psi.grid)
    return density


def tomogram(psi: WaveFunction, mu: float, nu: float) -> TomogramSlice:
    """Tomographic density of mu*x + nu*p for a pure state, admitted as a
    slice at (mu, nu): the density of :func:`_density`, |psi|^2 at (1, 0)
    and |F psi|^2 with its norm checked to 1e-8 elsewhere."""
    return TomogramSlice(mu, nu, psi.grid, _density(psi, mu, nu))


def _variance_row(mu: float, nu: float) -> tuple[float, float, float]:
    """The coefficients of (sigma_xx, sigma_xp, sigma_pp) in the variance
    v = sigma_xx mu^2 + 2 sigma_xp mu nu + sigma_pp nu^2 of the quadrature
    mu*x + nu*p; products of floats, so an overflow is inf or nan."""
    return mu * mu, 2.0 * mu * nu, nu * nu


def _check_width(mu: float, nu: float, dx: float, variance: float, error) -> None:
    """The one resolution rule for a Gaussian slice of positive ``variance``
    at (mu, nu): a standard deviation below the spacing dx raises ``error``."""
    spacing = dx / math.sqrt(variance)
    check(spacing, 1.0, error, lambda: f"slice at ({mu!r}, {nu!r}) is "
          f"narrower than dx: dx is {spacing:.3g} standard deviations")


def tomogram_gaussian(state: GaussianState, mu: float, nu: float,
                      grid: SpatialGrid) -> TomogramSlice:
    """Closed-form Gaussian tomogram with variance
    v = sigma_xx mu^2 + 2 sigma_xp mu nu + sigma_pp nu^2.  A v that is
    not finite raises ResolutionError: no grid extent holds it; so does a
    slice narrower than dx (see :func:`_check_width`)."""
    mu, nu = _direction(mu, nu)
    a, b, c = _variance_row(mu, nu)
    v = state.sigma_xx * a + state.sigma_xp * b + state.sigma_pp * c
    if not math.isfinite(v):
        raise ResolutionError(
            f"quadrature variance at ({mu!r}, {nu!r}) overflows")
    if v <= 0.0:
        raise InvalidCovarianceError(
            f"quadrature variance {v!r} not positive at ({mu!r}, {nu!r})")
    _check_width(mu, nu, grid.dx, v, ResolutionError)
    density = np.exp(-grid._squares / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)
    integral = float(density.sum() * grid.dx)
    check(abs(integral - 1.0), 1e-6, ResolutionError, lambda: "Gaussian slice with variance "
          f"{v!r} integrates to {integral!r} on this grid; widen the extent")
    return TomogramSlice(mu, nu, grid, density)


def sample_pure_gaussian(state: GaussianState, grid: SpatialGrid) -> WaveFunction:
    """Realize a pure Gaussian state (determinant exactly 1/4) on a grid.

    The wavefunction exp(-(alpha + i beta) x^2 / 2) with alpha = 1/(2 sigma_xx)
    and beta = -sigma_xp/sigma_xx reproduces all three covariances.  The
    samples pass the admission rule of ``sample_state`` first.
    """
    if abs(state.determinant - 0.25) > 1e-8:
        raise InvalidArgumentError(
            f"determinant {state.determinant!r} != 1/4: not a pure state")
    alpha = 1.0 / (2.0 * state.sigma_xx)
    beta = -state.sigma_xp / state.sigma_xx
    with np.errstate(over="ignore", invalid="ignore"):  # exp(-inf + i nan) = 0
        amps = np.exp(-0.5 * (alpha + 1j * beta) * grid._squares)
    _admit(amps, f"sample_pure_gaussian({state!r})")
    return WaveFunction(grid, amps)

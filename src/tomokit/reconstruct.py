"""Phase recovery for states known only through incomplete tomogram sets.

A state whose density is known but whose phase is constant on segments
(between nodes of the density, or on an imposed fragmentation) is fixed by
a handful of extra tomogram directions.  Writing m_j for the nonnegative
magnitude windowed to segment j and w_j for its quadrature transform, each
extra slice obeys

    omega(X) - sum_j |w_j(X)|^2 = sum_{j<k} 2 Re(u_jk w_j(X) conj(w_k(X)))

with unit-modulus unknowns u_jk = exp(i(phi_j - phi_k)).  Both solvers
assemble this as a real least-squares problem over all X samples of all
supplied slices; they differ in how the unit-modulus structure is used.
Phases are read off the dominant eigenvector of the Hermitian matrix of
pairwise products, gauged so the first segment has phase zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpatialGrid, WaveFunction
from .errors import (
    InconsistentTomogramsError,
    InsufficientDataError,
    InvalidArgumentError,
    ResolutionError,
)
from .transform import TomogramSlice, _direction, _quadrature

__all__ = [
    "PiecewiseState",
    "PhaseRecoveryResult",
    "piecewise_from_position",
    "segment_transforms",
    "assemble_state",
    "detect_nodes",
    "recover_phases_nodes",
    "recover_phases_piecewise",
    "quasi_uniform_directions",
]

# Density below this is treated as an exact zero when magnitudes are read
# off measured position data.
_DENSITY_CLAMP = 1e-14

# Least-squares diagnostics: condition estimate above which the result is
# flagged, and residual above which the slices cannot come from one state.
_CONDITION_LIMIT = 1e8
_RESIDUAL_LIMIT = 1e-2

# Largest standard error of the pairwise products, and (piecewise) largest
# distance of the solved products from the unit circle.
_UNIT_MODULUS_SLACK = 0.1

# Largest deviation of the segment transforms' Gram matrix from
# diag(segment masses).
_ORTHOGONALITY_LIMIT = 1e-6


def _segment_index(breakpoints: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Segment of each sample; a sample exactly on a breakpoint belongs to
    the segment on its left."""
    return np.searchsorted(breakpoints, x, side="left")


class PiecewiseState:
    """Magnitudes on a fragmentation of the line plus one phase per segment.

    ``breakpoints`` are the K-1 interior cut positions (possibly none);
    segment j covers (breakpoint[j-1], breakpoint[j]] with open ends at
    +-infinity.  Each magnitude is a nonnegative array on ``grid`` vanishing
    outside its segment.  The assembled state sum_j exp(i phi_j) m_j is
    normalized at construction (or verified to be, with normalize=False).
    """

    def __init__(self, breakpoints, magnitudes, phases, grid: SpatialGrid,
                 normalize: bool = True):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1:
            raise InvalidArgumentError("breakpoints must be a 1D sequence")
        if bp.size and (not np.all(np.isfinite(bp)) or np.any(np.diff(bp) <= 0)):
            raise InvalidArgumentError("breakpoints must be finite, strictly increasing")
        if not isinstance(grid, SpatialGrid):
            raise InvalidArgumentError("grid must be a SpatialGrid")
        k = bp.size + 1
        if len(magnitudes) != k:
            raise InvalidArgumentError(
                f"{bp.size} breakpoints define {k} segments, got "
                f"{len(magnitudes)} magnitudes")
        ph = np.asarray(phases, dtype=float)
        if ph.shape != (k,) or not np.all(np.isfinite(ph)):
            raise InvalidArgumentError(f"need {k} finite phases")
        mags = []
        for m in magnitudes:
            arr = np.asarray(m, dtype=float)
            if arr.shape != (grid.n_points,):
                raise InvalidArgumentError("each magnitude must match the grid")
            if not np.all(np.isfinite(arr)) or arr.min() < 0.0:
                raise InvalidArgumentError("magnitudes must be finite and nonnegative")
            mags.append(arr)
        seg = _segment_index(bp, grid.points)
        peak = max(m.max() for m in mags)
        if peak <= 0.0:
            raise InvalidArgumentError("all magnitudes are zero")
        for j, m in enumerate(mags):
            stray = m[seg != j]
            if stray.size and stray.max() > 1e-12 * peak:
                raise InvalidArgumentError(
                    f"magnitude {j} has support outside its segment")
        nrm2 = sum(float(np.sum(m ** 2)) for m in mags) * grid.dx
        if normalize:
            scale = 1.0 / np.sqrt(nrm2)
            mags = [m * scale for m in mags]
        elif abs(nrm2 - 1.0) > 1e-8:
            raise InvalidArgumentError(
                f"assembled state has squared norm {nrm2!r}, off 1 beyond 1e-8")
        for m in mags:
            m.flags.writeable = False
        self.breakpoints = bp
        self.magnitudes = mags
        self.phases = np.mod(ph, 2.0 * np.pi)
        self.grid = grid

    @property
    def n_segments(self) -> int:
        return len(self.magnitudes)


def piecewise_from_position(breakpoints, position: TomogramSlice,
                            phases=None) -> PiecewiseState:
    """Window sqrt(position density) by the fragmentation.

    Density below 1e-14 is clamped to zero before the square root.  Phases
    default to all zero; this is the reference state both solvers measure
    phase differences against.
    """
    _require_position(position)
    bp = np.asarray(breakpoints, dtype=float)
    grid = position.grid
    mag = np.sqrt(np.where(position.density < _DENSITY_CLAMP, 0.0, position.density))
    seg = _segment_index(bp, grid.points)
    mags = [np.where(seg == j, mag, 0.0) for j in range(bp.size + 1)]
    if phases is None:
        phases = np.zeros(bp.size + 1)
    return PiecewiseState(bp, mags, phases, grid, normalize=True)


def segment_transforms(state: PiecewiseState, grid: SpatialGrid, mu: float,
                       nu: float) -> np.ndarray:
    """Transform the windowed magnitudes at (mu, nu) onto ``grid`` in one
    batched call, returned read-only with one row per segment; one side of
    the transform serves every segment, so its X-dependent phase cancels in
    every |w_j|^2 and w_j conj(w_k).

    Unitarity turns the disjoint supports into orthogonality: the Gram
    matrix of the rows must be diag(segment masses) within 1e-6, otherwise
    the grid truncated too much of the transforms and a ResolutionError is
    raised.
    """
    mu, nu = _direction(mu, nu)
    if not isinstance(grid, SpatialGrid):
        raise InvalidArgumentError("grid must be a SpatialGrid")
    mags = np.stack(state.magnitudes)
    waves = _quadrature(mags, state.grid, mu, nu, grid)
    gram = (waves.conj() @ waves.T) * grid.dx
    masses = np.sum(mags ** 2, axis=1) * state.grid.dx
    dev = np.abs(gram - np.diag(masses)).max()
    if not dev <= _ORTHOGONALITY_LIMIT:
        raise ResolutionError(
            f"segment transforms at ({mu!r}, {nu!r}) lost orthogonality "
            f"(max Gram deviation {dev:.2e}); the grid truncates their "
            "tails, widen the extent or cut nearer the nodes")
    # A copy, not the transform's own buffer: returning that buffer made the
    # state-tomography benchmark about 8 % slower on 2 CPUs (more minor page
    # faults); the values are the same.
    waves = np.array(waves)
    waves.flags.writeable = False
    return waves


def assemble_state(state: PiecewiseState, grid: SpatialGrid) -> WaveFunction:
    """Phase-weighted sum of the segment magnitudes as a WaveFunction."""
    if grid != state.grid:
        raise InvalidArgumentError("state was sampled on a different grid")
    amps = np.zeros(grid.n_points, dtype=complex)
    for phi, m in zip(state.phases, state.magnitudes):
        amps += np.exp(1j * phi) * m
    return WaveFunction(grid, amps)


def _require_position(s: TomogramSlice) -> None:
    if not s.is_position:
        raise InvalidArgumentError(
            f"expected a position tomogram (1, 0), got ({s.mu!r}, {s.nu!r})")


def detect_nodes(position: TomogramSlice, rel_threshold: float = 1e-3) -> np.ndarray:
    """Locate density dips below rel_threshold * max between populated regions.

    Returns the X of the deepest sample in each dip, sorted.  Tails at the
    grid edges are not nodes.
    """
    _require_position(position)
    if not (0.0 < rel_threshold < 1.0):
        raise InvalidArgumentError("rel_threshold must be in (0, 1)")
    d = position.density
    above = d >= rel_threshold * d.max()
    idx = np.nonzero(above)[0]
    x = position.grid.points
    nodes = []
    for lo, hi in zip(idx[:-1], idx[1:]):
        if hi > lo + 1:
            gap = slice(lo + 1, hi)
            nodes.append(x[gap][np.argmin(d[gap])])
    return np.asarray(nodes)


@dataclass(frozen=True)
class PhaseRecoveryResult:
    """Recovered per-segment phases (first gauged to zero, all in [0, 2pi))
    plus least-squares diagnostics."""

    phases: np.ndarray
    residual: float
    condition_estimate: float
    status: str

    def __post_init__(self):
        if not np.isfinite(self.residual):
            raise InvalidArgumentError("residual must be finite")


def _pair_list(k: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(k) for q in range(p + 1, k)]


def _phases_from_pairs(u: np.ndarray, k: int) -> np.ndarray:
    """Dominant-eigenvector phase read-out from pairwise products."""
    mat = np.eye(k, dtype=complex)
    for (p, q), val in zip(_pair_list(k), u):
        mat[p, q] = val
        mat[q, p] = np.conj(val)
    _, vecs = np.linalg.eigh(mat)
    vec = vecs[:, -1]
    ref = np.argmax(np.abs(vec))
    ph = np.angle(vec * np.conj(vec[ref]))
    ph = ph - ph[0]
    return np.mod(ph, 2.0 * np.pi)


def _trivial_result() -> PhaseRecoveryResult:
    return PhaseRecoveryResult(np.zeros(1), 0.0, 1.0, "ok")


def _check_extras(position: TomogramSlice, extras) -> None:
    for s in extras:
        if not isinstance(s, TomogramSlice):
            raise InvalidArgumentError("extra slices must be TomogramSlice objects")
        if s.line[1] == 0.0:
            raise InvalidArgumentError(
                f"slice at ({s.mu!r}, {s.nu!r}) carries no phase information")


def _solve(position: TomogramSlice, extras, breakpoints):
    """Shared least-squares assembly; returns (sol_pairs, residual, cond, K).

    The stacked rows read
        sum_{p<q} [2 a_pq c_pq - 2 b_pq s_pq] = omega - sum_j |w_j|^2
    with a + ib the pairwise product of segment transforms, so the
    unknowns (c, s) recover cos and sin of each phase difference, up to a
    standard error |A x - b| / sigma_min that must stay within 0.1.
    """
    state = piecewise_from_position(breakpoints, position)
    k = state.n_segments
    pairs = _pair_list(k)
    rows = []
    rhs = []
    for s in extras:
        stack = segment_transforms(state, s.grid, s.mu, s.nu)
        diag = np.sum(np.abs(stack) ** 2, axis=0)
        cols = np.empty((s.grid.n_points, 2 * len(pairs)))
        for i, (p, q) in enumerate(pairs):
            prod = stack[p] * np.conj(stack[q])
            cols[:, 2 * i] = 2.0 * prod.real
            cols[:, 2 * i + 1] = -2.0 * prod.imag
        rows.append(cols)
        rhs.append(s.density - diag)
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    sol, _, _, sv = np.linalg.lstsq(a, b, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    misfit = a @ sol - b
    residual = float(np.sqrt(np.mean(misfit ** 2)))
    if residual > _RESIDUAL_LIMIT:
        raise InconsistentTomogramsError(
            f"least-squares residual {residual:.2e} above {_RESIDUAL_LIMIT}: "
            "slices are not tomograms of one piecewise state")
    stderr = float(np.linalg.norm(misfit) / sv[-1]) if sv[-1] > 0 else np.inf
    if cond <= _CONDITION_LIMIT and stderr > _UNIT_MODULUS_SLACK:
        raise InsufficientDataError(
            f"pairwise phase products have standard error {stderr:.2e} (limit "
            f"{_UNIT_MODULUS_SLACK}); use slices further from the position axis")
    return sol.reshape(-1, 2), residual, cond, k


def _finish(sol, residual, cond, k) -> PhaseRecoveryResult:
    status = "ill-conditioned" if cond > _CONDITION_LIMIT else "ok"
    u = sol[:, 0] + 1j * sol[:, 1]
    phases = _phases_from_pairs(u, k)
    phases.flags.writeable = False
    return PhaseRecoveryResult(phases, residual, cond, status)


def recover_phases_nodes(position: TomogramSlice, extras,
                         breakpoints) -> PhaseRecoveryResult:
    """Phase recovery with segments cut at nodes of the position density.

    Needs at least as many extra slices as there are breakpoints.  The
    pairwise products exp(i(phi_p - phi_q)) are solved for directly as
    complex unknowns; no unit-modulus constraint is imposed.
    """
    _require_position(position)
    bp = np.asarray(breakpoints, dtype=float)
    extras = list(extras)
    _check_extras(position, extras)
    if len(extras) < bp.size:
        raise InsufficientDataError(
            f"{bp.size} nodes need at least {bp.size} extra slices, got "
            f"{len(extras)}")
    if bp.size == 0:
        return _trivial_result()
    sol, residual, cond, k = _solve(position, extras, bp)
    return _finish(sol, residual, cond, k)


def recover_phases_piecewise(fragmentation, position: TomogramSlice,
                             slices) -> PhaseRecoveryResult:
    """Phase recovery on an imposed fragmentation (cuts need not be nodes).

    Needs at least as many slices as segments.  The cosine and sine of each
    phase difference are solved as separate real unknowns and projected to
    the unit circle; a solution further than 0.1 from it means the slices
    are inconsistent with the fragmentation.
    """
    _require_position(position)
    bp = np.asarray(fragmentation, dtype=float)
    slices = list(slices)
    _check_extras(position, slices)
    k = bp.size + 1
    if len(slices) < k:
        raise InsufficientDataError(
            f"{k} segments need at least {k} slices, got {len(slices)}")
    if bp.size == 0:
        return _trivial_result()
    sol, residual, cond, k = _solve(position, slices, bp)
    moduli = np.hypot(sol[:, 0], sol[:, 1])
    worst = np.abs(moduli - 1.0).max()
    if moduli.min() <= 0.0 or worst > _UNIT_MODULUS_SLACK:
        raise InconsistentTomogramsError(
            f"pairwise cosine/sine solution off the unit circle by {worst:.2e} "
            f"(limit {_UNIT_MODULUS_SLACK}): slices do not fit the fragmentation")
    sol = sol / moduli[:, None]
    return _finish(sol, residual, cond, k)


def quasi_uniform_directions(n: int, r: float = 1.0,
                             margin: float = 0.05) -> list[tuple[float, float]]:
    """n directions r*(cos theta, sin theta) with theta quasi-uniform in
    (0, pi), nudged away from pi/2 by ``margin`` to avoid the degenerate
    pure-momentum angle."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgumentError("n must be a positive integer")
    if r <= 0:
        raise InvalidArgumentError("r must be positive")
    out = []
    for i in range(n):
        theta = np.pi * (2 * i + 1) / (2 * n)
        if abs(theta - np.pi / 2) < margin:
            theta = np.pi / 2 + (margin if theta >= np.pi / 2 else -margin)
        out.append((r * np.cos(theta), r * np.sin(theta)))
    return out

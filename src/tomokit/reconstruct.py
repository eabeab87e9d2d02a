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
pairwise products, gauged so the first segment with any magnitude has phase
zero; a segment with none has phase zero too.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SpatialGrid, WaveFunction, _increasing
from .errors import (
    InconsistentTomogramsError,
    InsufficientDataError,
    InvalidArgumentError,
    check,
)
from .transform import TomogramSlice, _quadrature

__all__ = [
    "PiecewiseState",
    "PhaseRecoveryResult",
    "piecewise_from_position",
    "assemble_state",
    "detect_nodes",
    "recover_phases_nodes",
    "recover_phases_piecewise",
]

# Density below this is treated as an exact zero when magnitudes are read
# off measured position data.
_DENSITY_CLAMP = 1e-14

# Fraction of the peak density below which a dip between populated regions
# is a node.
_NODE_DIP_REL = 1e-3

# Least-squares diagnostics: condition estimate above which the result is
# flagged, and residual above which the slices cannot come from one state.
_CONDITION_LIMIT = 1e8
_RESIDUAL_LIMIT = 1e-2

# Largest standard error of the pairwise products, and (piecewise) largest
# distance of the solved products from the unit circle, 1 for a zero product.
_STDERR_LIMIT = 0.1
_UNIT_CIRCLE_SLACK = 0.1


def _segment_index(breakpoints: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Segment of each sample; a sample exactly on a breakpoint belongs to
    the segment on its left."""
    return np.searchsorted(breakpoints, x, side="left")


class PiecewiseState:
    """One magnitude on a fragmentation of the line plus one phase per segment.

    ``breakpoints`` are the K-1 interior cut positions (possibly none);
    segment j covers (breakpoint[j-1], breakpoint[j]] with open ends at
    +-infinity.  ``magnitude`` is one nonnegative array on ``grid``; its
    windows to the K segments are the read-only rows of ``magnitudes``,
    and ``breakpoints`` and ``phases`` are read-only copies.
    The assembled state sum_j exp(i phi_j) m_j is normalized at construction.
    """

    def __init__(self, breakpoints, magnitude, phases, grid: SpatialGrid):
        bp = _increasing(breakpoints, "breakpoints")
        if not isinstance(grid, SpatialGrid):
            raise InvalidArgumentError("grid must be a SpatialGrid")
        k = bp.size + 1
        ph = np.asarray(phases, dtype=float)
        if ph.shape != (k,) or not np.all(np.isfinite(ph)):
            raise InvalidArgumentError(f"need {k} finite phases")
        mag = np.asarray(magnitude, dtype=float)
        if (mag.shape != (grid.n_points,) or not np.all(np.isfinite(mag))
                or mag.min() < 0.0 or mag.max() <= 0.0):
            raise InvalidArgumentError("the magnitude must match the grid and be "
                                       "finite, nonnegative and not all zero")
        seg = _segment_index(bp, grid.points)
        rows = np.where(seg == np.arange(k)[:, None], mag, 0.0)
        nrm2 = sum(float(np.sum(r ** 2)) for r in rows) * grid.dx
        rows = rows * (1.0 / np.sqrt(nrm2))
        self.breakpoints, self.magnitudes = bp, rows
        self.phases = np.mod(ph, 2.0 * np.pi)
        for arr in (rows, self.phases):
            arr.flags.writeable = False
        self.grid = grid

    @property
    def n_segments(self) -> int:
        return len(self.magnitudes)


def piecewise_from_position(breakpoints, position: TomogramSlice,
                            phases=None) -> PiecewiseState:
    """sqrt(position density) on the fragmentation.

    Density below 1e-14 is clamped to zero before the square root.  Phases
    default to all zero; this is the reference state both solvers measure
    phase differences against.
    """
    _require_position(position)
    d = position.density
    if phases is None:
        phases = np.zeros(np.size(breakpoints) + 1)
    return PiecewiseState(breakpoints, np.sqrt(np.where(d < _DENSITY_CLAMP, 0.0, d)),
                          phases, position.grid)


def assemble_state(state: PiecewiseState, grid: SpatialGrid) -> WaveFunction:
    """Phase-weighted sum of the segment magnitudes as a WaveFunction.

    Each sample has one nonzero term, so the sum is exact, and it starts
    from +0.0: a zero sample is +0.0 whatever the phase of its segment.
    """
    if grid != state.grid:
        raise InvalidArgumentError("state was sampled on a different grid")
    terms = np.exp(1j * state.phases)[:, None] * state.magnitudes
    return WaveFunction(grid, np.sum(terms, axis=0))


def _require_position(s: TomogramSlice) -> None:
    if not s.is_position:
        raise InvalidArgumentError(
            f"expected a position tomogram (1, 0), got ({s.mu!r}, {s.nu!r})")


def detect_nodes(position: TomogramSlice) -> np.ndarray:
    """Locate density dips below 1e-3 of the peak between populated regions.

    Returns the X of the deepest sample in each dip, sorted.  Tails at the
    grid edges are not nodes.
    """
    _require_position(position)
    d = position.density
    idx = np.flatnonzero(d >= _NODE_DIP_REL * d.max())
    gaps = np.flatnonzero(np.diff(idx) > 1)
    x = position.grid.points
    return np.asarray([x[lo + 1 + np.argmin(d[lo + 1:hi])]
                       for lo, hi in zip(idx[gaps], idx[gaps + 1])])


@dataclass(frozen=True)
class PhaseRecoveryResult:
    """Recovered per-segment phases plus least-squares diagnostics.  The
    phases are in [0, 2pi): the first segment with any magnitude is gauged
    to zero, and a segment with none, which carries no phase, reads zero."""

    phases: np.ndarray
    residual: float
    condition_estimate: float
    status: str

    def __post_init__(self):
        if not np.isfinite(self.residual):
            raise InvalidArgumentError("residual must be finite")


@lru_cache(maxsize=32)
def _lower_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (row, column) index of the strict lower triangle of a k x k
    matrix in _fit's pair order (p, q) with p < q, as (q, p); read-only."""
    p, q = np.triu_indices(k, 1)
    p.flags.writeable = q.flags.writeable = False
    return q, p


def _phases_from_pairs(u: np.ndarray, populated: np.ndarray) -> np.ndarray:
    """Dominant-eigenvector phase read-out from the pairwise products, in
    _fit's pair order, gauged to the first segment with any magnitude; a
    segment with none carries no phase and reads 0."""
    k = populated.size
    mat = np.eye(k, dtype=complex)
    mat[_lower_pairs(k)] = np.conj(u)  # eigh reads the lower triangle
    _, vecs = np.linalg.eigh(mat)
    vec = vecs[:, -1]
    ref = np.argmax(np.abs(vec))
    ph = np.angle(vec * np.conj(vec[ref]))
    ph = np.where(populated, ph - ph[np.argmax(populated)], 0.0)
    return np.mod(ph, 2.0 * np.pi)


# The last successful fit of each position slice, as (breakpoint shape and
# bytes, extras, result).  Both entry points fit the same system when given
# the same slice, extras and cuts.  A slice's direction, grid and density
# are read-only.  The entry holds its extras, so no new slice can take
# the place of one, and never its key, which _recover rejects as an extra.
_FITS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _solve(position: TomogramSlice, extras, breakpoints):
    """_fit, or the position slice's last fit when the cuts are equal and
    the extras are the same objects in the same order.  Failures are not
    kept, and the kept products are read-only."""
    cuts = (breakpoints.shape, breakpoints.tobytes())
    last = _FITS.get(position)
    if (last is not None and last[0] == cuts and len(last[1]) == len(extras)
            and all(a is b for a, b in zip(last[1], extras))):
        return last[2]
    fit = _fit(position, extras, breakpoints)
    fit[0].flags.writeable = False
    _FITS[position] = (cuts, tuple(extras), fit)
    return fit


def _fit(position: TomogramSlice, extras, breakpoints):
    """Shared least-squares assembly; returns (sol_pairs, residual, cond,
    status, populated), the last marking the segments with any magnitude.

    The rows of the one array [A | b], one block per extra slice, read
        sum_{p<q} [2 a_pq c_pq - 2 b_pq s_pq] = omega - sum_j |w_j|^2
    with a + ib the pairwise product of segment transforms, so the
    unknowns (c, s) recover cos and sin of each phase difference, up to a
    standard error |A x - b| / sigma_min that must stay within 0.1.  One
    segment has no unknowns: its rows are checked by the residual alone.
    Cuts that leave a segment with no grid sample are refused.

    The array is column-major, so its QR takes it without a transpose.
    Q is orthogonal, so R keeps A's singular values and every |A x - b|:
    an SVD of R's leading columns gives the condition estimate and the
    minimum-norm solution, with lstsq's rank cutoff eps max(rows, n) sv[0].
    """
    state = piecewise_from_position(breakpoints, position)
    k = state.n_segments
    seg = _segment_index(state.breakpoints, position.grid.points)
    empty = np.flatnonzero(np.bincount(seg, minlength=k) == 0).tolist()
    if empty:
        raise InvalidArgumentError(f"breakpoints {state.breakpoints.tolist()!r} leave "
                                   f"segment(s) {empty} with no grid sample")
    sizes = [s.grid.n_points for s in extras]
    n = k * (k - 1)
    ab = np.empty((sum(sizes), n + 1), order="F")
    for s, block in zip(extras, np.split(ab, np.cumsum(sizes[:-1]))):
        # one transform side serves every segment, so its X-dependent phase
        # cancels in every |w_j|^2 and w_j conj(w_k)
        stack = _quadrature(state.magnitudes, state.grid, s.mu, s.nu, s.grid)
        i = 0
        for p in range(k - 1):  # the pairs (p, q > p), in np.triu_indices order
            j = i + 2 * (k - 1 - p)
            prod = np.conj(stack[p]) * stack[p + 1:]
            np.multiply(prod.real, 2.0, out=block[:, i:j:2].T)
            np.multiply(prod.imag, 2.0, out=block[:, i + 1:j:2].T)
            i = j
        block[:, -1] = s.density - np.sum(np.abs(stack) ** 2, axis=0)
    r = np.linalg.qr(ab, mode="r")
    u, sv, vt = np.linalg.svd(r[:, :-1], full_matrices=False)
    rank = np.count_nonzero(sv > np.finfo(float).eps * max(ab.shape[0], n) * sv[:1])
    sol = vt[:rank].T @ ((u[:, :rank].T @ r[:, -1]) / sv[:rank])
    misfit = float(np.linalg.norm(r[:, :-1] @ sol - r[:, -1]))
    residual = misfit / float(np.sqrt(ab.shape[0]))
    check(residual, _RESIDUAL_LIMIT, InconsistentTomogramsError, lambda: "least-squares "
          f"residual {residual:.2e}: slices are not tomograms of one piecewise state")
    if not n:
        return sol.reshape(-1, 2), residual, 1.0, "ok", state.magnitudes.any(axis=1)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    status = "ok" if cond <= _CONDITION_LIMIT else "ill-conditioned"
    if status == "ok":
        stderr = misfit / sv[-1]
        check(stderr, _STDERR_LIMIT, InsufficientDataError, lambda: "pairwise phase products "
              f"have standard error {stderr:.2e}; use slices further from the position axis")
    return sol.reshape(-1, 2), residual, cond, status, state.magnitudes.any(axis=1)


def _recover(position: TomogramSlice, extras, bp: np.ndarray,
             project: bool) -> PhaseRecoveryResult:
    """The one phase solver behind both entry points: check the inputs, fit
    every segment count (one included) against the extra slices, optionally
    project the solved products onto the unit circle, read off the phases.
    Nodes need one extra slice per cut; a projected fragmentation needs one
    per segment."""
    _require_position(position)
    extras = list(extras)
    for s in extras:
        if not isinstance(s, TomogramSlice):
            raise InvalidArgumentError("extra slices must be TomogramSlice objects")
        if s.line[1] == 0.0:
            raise InvalidArgumentError(
                f"slice at ({s.mu!r}, {s.nu!r}) carries no phase information")
    needed = bp.size + project
    if len(extras) < needed:
        shortfall = (f"{needed} segments need at least {needed} slices" if project else
                     f"{needed} nodes need at least {needed} extra slices")
        raise InsufficientDataError(f"{shortfall}, got {len(extras)}")
    if not extras:
        return PhaseRecoveryResult(np.zeros(1), 0.0, 1.0, "ok")
    sol, residual, cond, status, populated = _solve(position, extras, bp)
    if project:
        moduli = np.hypot(sol[:, 0], sol[:, 1])
        worst = np.abs(moduli - 1.0).max(initial=0.0)
        check(worst, _UNIT_CIRCLE_SLACK, InconsistentTomogramsError, lambda: "pairwise "
              f"cosine/sine solution off the unit circle by {worst:.2e}: slices do not fit "
              "the fragmentation")
        sol = sol / moduli[:, None]
    phases = _phases_from_pairs(sol[:, 0] + 1j * sol[:, 1], populated)
    phases.flags.writeable = False
    return PhaseRecoveryResult(phases, residual, cond, status)


def recover_phases_nodes(position: TomogramSlice, extras,
                         breakpoints) -> PhaseRecoveryResult:
    """Phase recovery with segments cut at nodes of the position density.

    Needs at least as many extra slices as there are breakpoints.  The
    pairwise products exp(i(phi_p - phi_q)) are solved for directly as
    complex unknowns; no unit-modulus constraint is imposed.
    """
    return _recover(position, extras, np.asarray(breakpoints, dtype=float), project=False)


def recover_phases_piecewise(fragmentation, position: TomogramSlice,
                             slices) -> PhaseRecoveryResult:
    """Phase recovery on an imposed fragmentation (cuts need not be nodes).

    Needs at least as many slices as segments.  The cosine and sine of each
    phase difference are solved as separate real unknowns and projected to
    the unit circle; a solution further than 0.1 from it means the slices
    are inconsistent with the fragmentation.
    """
    return _recover(position, slices, np.asarray(fragmentation, dtype=float), project=True)

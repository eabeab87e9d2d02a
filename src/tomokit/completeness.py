"""How much a set of tomogram slices can say about the underlying state.

Holevo's chi bounds the extractable information of a finite ensemble;
for Gaussian states the entropy has a closed form in the covariance, and
the covariance itself can be fitted from slice variances.  Depending on
which directions were measured the residual ignorance is unbounded,
bounded by an entropy, or zero (under a purity assumption).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .errors import (InconsistentTomogramsError, InsufficientDataError,
                     InvalidArgumentError, InvalidCovarianceError,
                     ModelMismatchError, NumericalError, UnsupportedError, check)
from .transform import (_LINE_ATOL, GaussianState, TomogramSlice, _check_width,
                        _variance_row)

_KS_LIMIT = 0.01
_FIT_RESIDUAL_LIMIT = 1e-3
_UNCERTAINTY_SLACK = 1e-4
_PURITY_LIMIT = 1e-2

REGIME_POSITION = "position-only"
REGIME_POSITION_MOMENTUM = "position-and-momentum"
REGIME_THREE_OR_MORE = "three-or-more"
_REGIMES = (REGIME_POSITION, REGIME_POSITION_MOMENTUM, REGIME_THREE_OR_MORE)

_COMPONENTS = ("sigma_xx", "sigma_xp", "sigma_pp")


def g_function(x):
    """(x+1)ln(x+1) - x ln x in nats, with the 0 ln 0 = 0 convention.

    Accepts a scalar or an array; strictly increasing from g(0) = 0.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InvalidArgumentError("g_function needs finite x >= 0")
    val = (arr + 1.0) * np.log(arr + 1.0) - arr * np.log(np.where(arr > 0.0, arr, 1.0))
    if arr.ndim == 0:
        return float(val)
    return val


def gaussian_entropy(state: GaussianState) -> float:
    """Von Neumann entropy of a Gaussian state from its covariance alone,
    the closed form behind the completeness value; a library call."""
    arg = float(np.sqrt(state.determinant)) - 0.5
    return g_function(max(arg, 0.0))


@dataclass(frozen=True)
class Ensemble:
    """Finite weighted ensemble of pure states on one grid."""

    weights: np.ndarray
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or w.size != len(members):
            raise InvalidArgumentError("need one weight per ensemble member")
        if not np.all(w >= 0.0) or not abs(w.sum() - 1.0) <= 1e-10:
            raise InvalidArgumentError("weights must form a probability vector")
        for m in members:
            if not isinstance(m, core.WaveFunction):
                raise InvalidArgumentError("ensemble members must be wavefunctions")
            if m.grid != members[0].grid:
                raise InvalidArgumentError("ensemble members must share a grid")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "members", members)


def holevo_chi(ensemble: Ensemble) -> float:
    """chi = S(sum_j w_j |psi_j><psi_j|); pure members add no entropy.

    The mixture's nonzero spectrum is that of the K x K matrix
    sqrt(w_j) G_jk sqrt(w_k), with G_jk = <psi_j|psi_k> the members' Gram
    matrix (Jozsa & Schlienz 2000), so no N x N kernel is formed.
    Nothing is clamped: one member gives 0 to the roundoff of its squared
    norm, which :class:`~tomokit.core.WaveFunction` holds to 1.  An
    eigenvalue below -1e-8 raises :class:`NumericalError`.
    """
    w = ensemble.weights
    amps = np.stack([m.amplitudes for m in ensemble.members])
    gram = np.conj(amps) @ amps.T * ensemble.members[0].grid.dx
    root = np.sqrt(w)
    lam = np.linalg.eigvalsh(root[:, None] * gram * root[None, :])
    low = lam.min()
    check(-low, 1e-8, NumericalError,
          lambda: f"mixture has eigenvalue {low!r}, negative beyond roundoff")
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


@dataclass(frozen=True)
class MeasurementSet:
    """Tomogram slices along distinct directions.

    Two directions that agree after rescaling by a positive factor carry
    identical information and are rejected as duplicates.  Opposite
    directions are kept; they share one line (``TomogramSlice.line``), and
    ``_lines`` holds the distinct lines in order of first appearance.
    """

    slices: tuple

    def __post_init__(self):
        slices = tuple(self.slices)
        lines = []  # (line, the signs of (mu, nu) along it seen so far)
        for s in slices:
            if not isinstance(s, TomogramSlice):
                raise InvalidArgumentError(
                    "measurement set entries must be TomogramSlice objects")
            line = s.line
            sign = s.mu * line[0] + s.nu * line[1] > 0.0
            for known, signs in lines:
                if (abs(line[0] - known[0]) <= _LINE_ATOL
                        and abs(line[1] - known[1]) <= _LINE_ATOL):
                    if sign in signs:
                        raise InvalidArgumentError(
                            f"direction ({s.mu!r}, {s.nu!r}) duplicates an "
                            "earlier one up to positive scaling")
                    signs.add(sign)
                    break
            else:
                lines.append((line, {sign}))
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "_lines", tuple(line for line, _ in lines))

    def __len__(self) -> int:
        return len(self.slices)


# Per-slice (variance, KS distance or None).  A slice holds its own read-only
# density on a frozen grid, so these never change; a weak key drops them with it.
_STATS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@lru_cache(maxsize=64)
def _direction_system(rows: bytes):
    """What the covariance fit takes from its direction rows alone, keyed on
    the bytes of the float rows, so (-0.0, 1.0) and (0.0, 1.0) stay apart:
    the rows' SVD (u, sv, vt), read-only, its rank (singular values above
    1e-10 of the largest) and, per component, whether the rows' span
    determines it (its null-space column has norm at most 1e-8)."""
    u, sv, vt = np.linalg.svd(np.frombuffer(rows).reshape(-1, 3))
    for f in (u, sv, vt):
        f.flags.writeable = False
    rank = int(np.sum(sv > sv[0] * 1e-10))
    null = vt[rank:]
    return u, sv, vt, rank, tuple(np.linalg.norm(null[:, j]) <= 1e-8 for j in range(3))


def _trapezoid(y: np.ndarray, dx: float) -> float:
    """Trapezoid integral of samples on a uniform grid of spacing dx; the
    interior is summed apart, so an infinite end sample gives inf, not nan."""
    return float(dx * (y[1:-1].sum() + 0.5 * (y[0] + y[-1])))


def slice_variance(s: TomogramSlice) -> float:
    """Second moment of the slice density about zero; inf or nan where
    ``x * x`` overflows.  Memoised with the KS distance to the Gaussian it
    predicts, formed with it for a positive, finite variance; a slice
    narrower than dx raises ModelMismatchError (see :func:`_ks_distance`)."""
    if s not in _STATS:
        with np.errstate(over="ignore", invalid="ignore"):
            v = _trapezoid(s.grid.points ** 2 * s.density, s.grid.dx)
        _STATS[s] = (v, _ks_distance(s, v) if 0.0 < v < math.inf else None)
    return _STATS[s][0]


def _ks_distance(s: TomogramSlice, variance: float) -> float:
    """Largest gap between the slice's CDF and the zero-mean Gaussian CDF.

    Both CDFs are integrated along the grid by the same trapezoid rule, the
    model's from its exact value at the first sample, so the quadrature
    error of a few 1e-6 is common to both instead of counted as a gap.
    The rule is linear, so the gap is one running trapezoid of
    density / T - pdf, with T the slice's trapezoid integral; on the
    uniform grid that is a cumulative sum less half of the first and the
    current sample.  Arithmetic that overflows gives nan, which the
    caller's check rejects.

    A model whose standard deviation is below dx raises
    ModelMismatchError before any value is formed.  By Poisson summation
    the trapezoid sum of a Gaussian pdf misses 1 by about
    2 exp(-2 pi^2 sd^2 / dx^2): 5.4e-9 at sd = dx, but 1.4e-2 at
    sd = dx/2; narrower still, the running integral of the pdf is
    quadrature error, not a CDF, and the "distance" reaches 2.6e5.
    """
    x, dx, d = s.grid.points, s.grid.dx, s.density
    _check_width(s.mu, s.nu, dx, variance, ModelMismatchError)
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(-(x * x) / (2.0 * variance))
        g *= -1.0 / math.sqrt(2.0 * math.pi * variance)
        g += d * (1.0 / _trapezoid(d, dx))
        run = np.cumsum(g)
        run -= 0.5 * g
        start = 0.5 * (1.0 + math.erf(x[0] / math.sqrt(2.0 * variance)))
        offset = start + 0.5 * dx * g[0]
        return float(max(run.max() * dx - offset, offset - run.min() * dx))


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance components a direction set determines; None marks one
    outside the span of the measured directions."""

    sigma_xx: float | None
    sigma_xp: float | None
    sigma_pp: float | None
    residual: float

    def present(self) -> dict:
        return {n: getattr(self, n) for n in _COMPONENTS
                if getattr(self, n) is not None}


def covariance_from_tomograms(mset: MeasurementSet) -> CovarianceEstimate:
    """Fit v = sigma_xx mu^2 + 2 sigma_xp mu nu + sigma_pp nu^2 to the
    slice variances.

    Every slice must first pass a zero-mean Gaussianity check (KS distance
    against the Gaussian its own variance predicts, limit 0.01).  With
    more slices than the rank of the direction system the fit must close
    to within 1e-3, and components outside the measured span come back
    None rather than as a min-norm guess.  One SVD of the direction rows
    gives the rank (singular values above 1e-10 of the largest), the
    span and the min-norm solution truncated at that rank.  It depends on
    the directions alone, so it is computed once per direction set, keyed
    on the rows' exact bits, and reused by every fit on that set
    (:func:`_direction_system`).  A variance that is not positive and
    finite, a slice narrower than dx, or a KS distance that is not at most
    0.01 (nan included), raises ModelMismatchError.  A direction whose row
    (mu^2, 2 mu nu, nu^2) overflows raises InvalidArgumentError, on every
    call.
    """
    if len(mset) == 0:
        raise InvalidArgumentError("empty measurement set")
    rows = np.array([_variance_row(s.mu, s.nu) for s in mset.slices])
    for s, finite in zip(mset.slices, np.isfinite(rows).all(axis=1)):
        if not finite:
            raise InvalidArgumentError(
                f"direction ({s.mu!r}, {s.nu!r}) overflows the variance "
                "system; use a shorter direction")
    v = np.empty(len(mset))
    for i, s in enumerate(mset.slices):
        v[i] = slice_variance(s)
        ks = _STATS[s][1]
        if ks is None:
            raise ModelMismatchError(
                f"slice at ({s.mu!r}, {s.nu!r}) has nonpositive variance "
                f"or one that overflows: {float(v[i])!r}")
        check(ks, _KS_LIMIT, ModelMismatchError, lambda: f"slice at ({s.mu!r}, "
              f"{s.nu!r}) is not a zero-mean Gaussian: KS distance {ks:.3f}")
    u, sv, vt, rank, determined = _direction_system(rows.tobytes())
    sol = vt[:rank].T @ ((u[:, :rank].T @ v) / sv[:rank])
    residual = float(np.max(np.abs(rows @ sol - v) / np.maximum(1.0, np.abs(v))))
    check(residual, _FIT_RESIDUAL_LIMIT, InconsistentTomogramsError, lambda: (
        f"variance system residual {residual:.2e}: slices disagree about the covariance"))
    vals = [float(x) if ok else None for x, ok in zip(sol, determined)]
    return CovarianceEstimate(vals[0], vals[1], vals[2], residual)


@dataclass(frozen=True)
class CompletenessReport:
    """Regime analysis outcome; value None means unbounded ignorance."""

    value: float | None
    regime: str
    covariances: CovarianceEstimate | None
    purity_assumed: bool

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise InvalidArgumentError(f"unknown regime {self.regime!r}")
        if self.value is not None and not (np.isfinite(self.value)
                                           and self.value >= 0.0):
            raise InvalidArgumentError(
                "finite completeness value must be nonnegative")
        if (self.regime == REGIME_THREE_OR_MORE and self.purity_assumed
                and self.value != 0.0):
            raise InvalidArgumentError(
                "three or more directions under purity must report zero")

    def payload(self) -> dict:
        cov = {} if self.covariances is None else self.covariances.present()
        value = "unbounded" if self.value is None else {"finite": self.value}
        return {"value": value, "regime": self.regime, "covariances": cov,
                "purity_assumed": self.purity_assumed}


def _pure_covariance(est: CovarianceEstimate) -> CovarianceEstimate:
    """Test purity on the fit, then pin the cross covariance's magnitude
    through it, with the sign the fit gives it (+0.0 where the fitted value
    is within 1e-12 of 0 or the magnitude is 0), and nudge the momentum
    variance so the determinant is exactly 1/4 (a pure report must sit on
    the purity manifold).  A fitted determinant more than 1e-2 off 1/4
    raises ModelMismatchError: multiplicative noise of 1e-3 moves a pure
    state's by under 1e-3, and a covariance scaled by 1.2 lifts it by 0.11
    or more."""
    missing = [n for n in _COMPONENTS if getattr(est, n) is None]
    if missing:
        raise InsufficientDataError(
            f"the covariance fit leaves {', '.join(missing)} undetermined: "
            "the direction rows are numerically dependent")
    sxx, sxp, spp = est.sigma_xx, est.sigma_xp, est.sigma_pp
    excess = sxx * spp - 0.25
    check(-excess, _UNCERTAINTY_SLACK, InvalidCovarianceError, lambda: "fitted variances "
          f"give sigma_xx sigma_pp = {sxx * spp:.6f} < 1/4: no pure Gaussian state is "
          "compatible")
    det = sxx * spp - sxp * sxp
    check(abs(det - 0.25), _PURITY_LIMIT, ModelMismatchError, lambda: "fitted "
          f"determinant sigma_xx sigma_pp - sigma_xp^2 = {det:.6f}, not 1/4: the "
          "slices contradict the purity assumption")
    mag = math.sqrt(max(excess, 0.0))
    sxp = math.copysign(mag, sxp) if mag and abs(sxp) > 1e-12 else 0.0
    return CovarianceEstimate(sxx, sxp, (0.25 + sxp ** 2) / sxx, est.residual)


def gaussian_completeness(mset: MeasurementSet,
                          purity_assumed: bool = False) -> CompletenessReport:
    """Residual ignorance about a Gaussian state after measuring a set of
    directions.

    Position alone leaves it unbounded; position plus momentum bounds it
    by the entropy at the largest determinant the unseen cross covariance
    allows; three or more distinct directions pin the state completely,
    but only under an explicit purity assumption.
    """
    lines = mset._lines
    has_pos = any(v == 0.0 for _, v in lines)
    has_mom = any(u == 0.0 for u, _ in lines)
    est = covariance_from_tomograms(mset)
    if len(lines) >= 3:
        if not purity_assumed:
            raise UnsupportedError(
                "three or more directions only yield a completeness value "
                "under the purity assumption")
        cov = _pure_covariance(est)
        return CompletenessReport(0.0, REGIME_THREE_OR_MORE, cov, True)
    if len(lines) == 2 and has_pos and has_mom:
        arg = float(np.sqrt(est.sigma_xx * est.sigma_pp)) - 0.5
        check(-arg, _UNCERTAINTY_SLACK, InvalidCovarianceError,
              lambda: "fitted variances violate the uncertainty relation")
        value = g_function(max(arg, 0.0))
        return CompletenessReport(value, REGIME_POSITION_MOMENTUM, est,
                                  purity_assumed)
    if len(lines) == 1 and has_pos:
        return CompletenessReport(None, REGIME_POSITION, est, purity_assumed)
    raise UnsupportedError(
        "no completeness value for this direction set; supported are "
        "position only, position plus momentum, and three or more "
        "distinct directions")

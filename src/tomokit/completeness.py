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

import numpy as np

from . import core
from .errors import (InconsistentTomogramsError, InsufficientDataError,
                     InvalidArgumentError, InvalidCovarianceError,
                     ModelMismatchError, NumericalError, UnsupportedError)
from .transform import _LINE_ATOL, GaussianState, TomogramSlice

_KS_LIMIT = 0.01
_FIT_RESIDUAL_LIMIT = 1e-3
_UNCERTAINTY_SLACK = 1e-4

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
    if low < -1e-8:
        raise NumericalError(f"mixture has eigenvalue {low!r} below -1e-8")
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


# Per-slice [variance] or [variance, KS distance].  A slice holds its own read-only
# density on a frozen grid, so these never change; a weak key drops them with it.
_STATS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def slice_variance(s: TomogramSlice) -> float:
    """Second moment of the slice density about zero; inf or nan where
    ``x * x`` overflows."""
    if s not in _STATS:
        x = s.grid.points
        with np.errstate(over="ignore", invalid="ignore"):
            _STATS[s] = [float(np.trapezoid(x * x * s.density, x))]
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
    """
    x, dx, d = s.grid.points, s.grid.dx, s.density
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(-(x * x) / (2.0 * variance))
        g *= -1.0 / math.sqrt(2.0 * math.pi * variance)
        g += d * (1.0 / (dx * (d.sum() - 0.5 * (d[0] + d[-1]))))
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
    span and the min-norm solution truncated at that rank.  A variance
    that is not positive and finite, or a KS distance that is not at most
    0.01 (nan included), raises ModelMismatchError.  A direction whose
    row (mu^2, 2 mu nu, nu^2) overflows raises InvalidArgumentError.
    """
    if len(mset) == 0:
        raise InvalidArgumentError("empty measurement set")
    rows = []
    for s in mset.slices:
        try:
            row = [s.mu ** 2, 2.0 * s.mu * s.nu, s.nu ** 2]
        except OverflowError:  # mu ** 2 or nu ** 2
            row = [math.inf]
        if not all(map(math.isfinite, row)):
            raise InvalidArgumentError(
                f"direction ({s.mu!r}, {s.nu!r}) overflows the variance "
                "system; use a shorter direction")
        rows.append(row)
    rows = np.array(rows)
    v = np.empty(len(mset))
    for i, s in enumerate(mset.slices):
        v[i] = slice_variance(s)
        if not 0.0 < v[i] < math.inf:
            raise ModelMismatchError(
                f"slice at ({s.mu!r}, {s.nu!r}) has nonpositive variance "
                f"or one that overflows: {float(v[i])!r}")
        stats = _STATS[s]
        if len(stats) == 1:
            stats.append(_ks_distance(s, v[i]))
        if not stats[1] <= _KS_LIMIT:
            raise ModelMismatchError(
                f"slice at ({s.mu!r}, {s.nu!r}) is not a zero-mean Gaussian: "
                f"KS distance {stats[1]:.3f} above {_KS_LIMIT}")
    u, sv, vt = np.linalg.svd(rows)
    rank = int(np.sum(sv > sv[0] * 1e-10))
    sol = vt[:rank].T @ ((u[:, :rank].T @ v) / sv[:rank])
    null = vt[rank:]
    residual = float(np.max(np.abs(rows @ sol - v) / np.maximum(1.0, np.abs(v))))
    if residual > _FIT_RESIDUAL_LIMIT:
        raise InconsistentTomogramsError(
            f"variance system residual {residual:.2e} above "
            f"{_FIT_RESIDUAL_LIMIT}: slices disagree about the covariance")
    vals = [float(sol[j]) if np.linalg.norm(null[:, j]) <= 1e-8 else None
            for j in range(3)]
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


def _oblique_residual(mset, sxx, sxp, spp) -> float:
    total = 0.0
    for s in mset.slices:
        if 0.0 in s.line:  # position or momentum
            continue
        pred = sxx * s.mu ** 2 + 2.0 * sxp * s.mu * s.nu + spp * s.nu ** 2
        total += abs(pred - slice_variance(s))
    return total


def _pure_covariance(mset: MeasurementSet,
                     est: CovarianceEstimate) -> CovarianceEstimate:
    """Pin the cross covariance through purity, sign from the oblique
    slices, then nudge the momentum variance so the determinant is
    exactly 1/4 (a pure report must sit on the purity manifold)."""
    sxx, spp = est.sigma_xx, est.sigma_pp
    if sxx is None or spp is None:
        raise InsufficientDataError(
            "three-direction analysis needs both marginal variances")
    excess = sxx * spp - 0.25
    if excess < -_UNCERTAINTY_SLACK:
        raise InvalidCovarianceError(
            f"fitted variances give sigma_xx sigma_pp = {sxx * spp:.6f} < 1/4: "
            "no pure Gaussian state is compatible")
    mag = float(np.sqrt(max(excess, 0.0)))
    plus = _oblique_residual(mset, sxx, mag, spp)
    minus = _oblique_residual(mset, sxx, -mag, spp)
    if abs(plus - minus) <= 1e-12:
        sxp = 0.0
    else:
        sxp = mag if plus < minus else -mag
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
    if len(mset) == 0:
        raise InvalidArgumentError("empty measurement set")
    lines = mset._lines
    has_pos = any(v == 0.0 for _, v in lines)
    has_mom = any(u == 0.0 for u, _ in lines)
    est = covariance_from_tomograms(mset)
    if len(lines) >= 3:
        if not purity_assumed:
            raise UnsupportedError(
                "three or more directions only yield a completeness value "
                "under the purity assumption")
        cov = _pure_covariance(mset, est)
        return CompletenessReport(0.0, REGIME_THREE_OR_MORE, cov, True)
    if len(lines) == 2 and has_pos and has_mom:
        arg = float(np.sqrt(est.sigma_xx * est.sigma_pp)) - 0.5
        if arg < -_UNCERTAINTY_SLACK:
            raise InvalidCovarianceError(
                "fitted variances violate the uncertainty relation")
        value = g_function(max(arg, 0.0))
        return CompletenessReport(value, REGIME_POSITION_MOMENTUM, est,
                                  purity_assumed)
    if len(lines) == 1 and has_pos:
        return CompletenessReport(None, REGIME_POSITION, est, purity_assumed)
    raise UnsupportedError(
        "no completeness value for this direction set; supported are "
        "position only, position plus momentum, and three or more "
        "distinct directions")

import gc
import itertools
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tomokit import cli, completeness, core, transform
from tomokit.completeness import (
    CompletenessReport,
    CovarianceEstimate,
    Ensemble,
    MeasurementSet,
    REGIME_POSITION,
    REGIME_POSITION_MOMENTUM,
    REGIME_THREE_OR_MORE,
)
from tomokit.errors import (
    InconsistentTomogramsError,
    InsufficientDataError,
    InvalidArgumentError,
    InvalidCovarianceError,
    ModelMismatchError,
    TomokitError,
    UnsupportedError,
)
from tomokit.transform import GaussianState, TomogramSlice

import oracles
import strategies


def gslice(state, mu, nu, grid):
    return transform.tomogram_gaussian(state, mu, nu, grid)


def pure_state(sigma_xx, sigma_xp):
    return GaussianState(sigma_xx=sigma_xx,
                         sigma_pp=(0.25 + sigma_xp ** 2) / sigma_xx,
                         sigma_xp=sigma_xp)


# ---------------------------------------------------------------- g and S


def test_g_closed_forms():
    assert completeness.g_function(0.0) == 0.0
    assert completeness.g_function(1.0) == pytest.approx(2.0 * np.log(2.0),
                                                         abs=1e-12)
    assert completeness.g_function(0.5) == pytest.approx(0.9547712524422623,
                                                         abs=1e-12)


def test_g_is_monotone_and_concave():
    x = np.linspace(0.0, 5.0, 101)
    y = completeness.g_function(x)
    assert np.all(np.diff(y) > 0.0)
    assert np.all(np.diff(y, 2) < 0.0)


def test_g_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        completeness.g_function(-0.1)
    with pytest.raises(InvalidArgumentError):
        completeness.g_function(np.nan)


def test_gaussian_entropy_examples():
    assert completeness.gaussian_entropy(
        GaussianState(sigma_xx=0.5, sigma_pp=0.5)) == pytest.approx(0.0,
                                                                    abs=1e-12)
    # any pure covariance (determinant 1/4) has zero entropy
    assert completeness.gaussian_entropy(pure_state(0.8, 0.4)) == \
        pytest.approx(0.0, abs=1e-12)
    # determinant 2.25 gives g(1) = 2 ln 2
    assert completeness.gaussian_entropy(
        GaussianState(sigma_xx=1.5, sigma_pp=1.5)) == pytest.approx(
            2.0 * np.log(2.0), abs=1e-12)


# ---------------------------------------------------------------- Holevo


def test_ensemble_validates(small_grid):
    a = core.sample_state(core.FockPreset(0), small_grid)
    b = core.sample_state(core.FockPreset(1), small_grid)
    with pytest.raises(InvalidArgumentError):
        Ensemble((0.5, 0.5), (a,))
    with pytest.raises(InvalidArgumentError):
        Ensemble((0.6, 0.5), (a, b))
    with pytest.raises(InvalidArgumentError):
        Ensemble((1.2, -0.2), (a, b))
    other = core.sample_state(core.FockPreset(0), core.make_grid(-8, 8, 256))
    with pytest.raises(InvalidArgumentError):
        Ensemble((0.5, 0.5), (a, other))
    with pytest.raises(InvalidArgumentError):
        Ensemble((np.nan, 1.0), (a, b))
    with pytest.raises(InvalidArgumentError):
        Ensemble((1.0, np.nan), (a, b))


def test_holevo_chi_orthogonal_pair(small_grid):
    a = core.sample_state(core.FockPreset(0), small_grid)
    b = core.sample_state(core.FockPreset(1), small_grid)
    chi = completeness.holevo_chi(Ensemble((0.5, 0.5), (a, b)))
    assert chi == pytest.approx(np.log(2.0), abs=1e-10)


def test_holevo_chi_overlapping_pair(small_grid):
    a = core.sample_state(core.GaussianPreset(x0=-0.7), small_grid)
    b = core.sample_state(core.GaussianPreset(x0=0.7), small_grid)
    overlap = complex(np.sum(np.conj(a.amplitudes) * b.amplitudes)
                      * small_grid.dx)
    chi = completeness.holevo_chi(Ensemble((0.4, 0.6), (a, b)))
    assert chi == pytest.approx(oracles.mixture_entropy_two(0.4, 0.6, overlap),
                                abs=1e-8)


def test_holevo_chi_single_member_vanishes(small_grid):
    a = core.sample_state(core.GaussianPreset(), small_grid)
    assert completeness.holevo_chi(Ensemble((1.0,), (a,))) == pytest.approx(
        0.0, abs=1e-10)


_CHI_GRID = core.make_grid(-10.0, 10.0, 256)

_MEMBER_PRESETS = st.one_of(
    st.builds(core.GaussianPreset, x0=st.floats(-2.0, 2.0),
              p0=st.floats(-3.0, 3.0), sigma=st.floats(0.4, 0.9)),
    st.builds(core.FockPreset, st.integers(0, 4)))


@settings(max_examples=30, deadline=None)
@given(drawn=st.lists(st.tuples(_MEMBER_PRESETS, st.floats(0.0, 1.0)),
                      min_size=1, max_size=4))
def test_holevo_chi_matches_dense_mixture_and_holevo_bound(drawn):
    presets = [p for p, _ in drawn]
    w = np.array([x for _, x in drawn])
    assume(w.sum() > 0.01)
    w = w / w.sum()
    members = tuple(core.sample_state(p, _CHI_GRID) for p in presets)
    chi = completeness.holevo_chi(Ensemble(w, members))
    ref = oracles.dense_mixture_entropy([m.amplitudes for m in members], w,
                                        _CHI_GRID.dx)
    assert chi == pytest.approx(ref, abs=1e-10)
    shannon = float(-np.sum(w[w > 0.0] * np.log(w[w > 0.0])))
    # no clamp: a pure ensemble can come out at -2.2e-16
    assert -1e-12 <= chi <= shannon + 1e-12
    ns = [p.n for p in presets if isinstance(p, core.FockPreset)]
    if len(ns) == len(presets) and len(set(ns)) == len(ns):
        assert chi == pytest.approx(shannon, abs=1e-10)


# ---------------------------------------------------------------- directions


def test_measurement_set_rejects_scaled_duplicates(grid):
    st = GaussianState(sigma_xx=1.0, sigma_pp=1.0)
    with pytest.raises(InvalidArgumentError, match="duplicates"):
        MeasurementSet((gslice(st, 1.0, 0.0, grid),
                        gslice(st, 2.0, 0.0, grid)))


def test_measurement_set_directions(grid):
    st = GaussianState(sigma_xx=1.0, sigma_pp=1.0)
    mset = MeasurementSet((gslice(st, 1.0, 0.0, grid),
                           gslice(st, 0.0, 1.0, grid)))
    assert len(mset) == 2
    assert [(s.mu, s.nu) for s in mset.slices] == [(1.0, 0.0), (0.0, 1.0)]


def test_opposite_directions_count_as_one_line(grid):
    st = GaussianState(sigma_xx=1.0, sigma_pp=1.0)
    mset = MeasurementSet((gslice(st, 1.0, 0.0, grid),
                           gslice(st, -1.0, 0.0, grid)))
    report = completeness.gaussian_completeness(mset)
    assert report.regime == REGIME_POSITION
    assert report.value is None


def _fit_and_report(mset) -> dict:
    """Fitted covariances and, where one is defined, the regime and value
    under purity."""
    est = completeness.covariance_from_tomograms(mset)
    out = {n: getattr(est, n) for n in ("sigma_xx", "sigma_xp", "sigma_pp")}
    try:
        report = completeness.gaussian_completeness(mset, purity_assumed=True)
    except UnsupportedError:
        return out
    return {**out, "regime": report.regime, "value": report.value}


@settings(max_examples=40, deadline=None)
@given(sxx=st.floats(0.4, 1.5), sxp=st.floats(-0.5, 0.5),
       axes=st.sampled_from([(), ((1.0, 0.0),), ((0.0, 1.0),),
                             ((1.0, 0.0), (0.0, 1.0))]),
       extra=st.lists(strategies.directions(r_max=1.0), max_size=3),
       pick=st.integers(0, 4), scale=st.floats(1e-3, 1e3))
def test_directions_are_lines_with_a_sign(grid, sxx, sxp, axes, extra, pick,
                                          scale):
    dirs = list(axes)
    for mu, nu in extra:
        if all(abs(np.sin(np.arctan2(nu, mu) - np.arctan2(b, a))) > 1e-3
               for a, b in dirs):
            dirs.append((mu, nu))
    assume(dirs)
    state = pure_state(sxx, sxp)
    bank = [gslice(state, mu, nu, grid) for mu, nu in dirs]
    s = bank[pick % len(bank)]
    with pytest.raises(InvalidArgumentError, match="duplicates"):
        MeasurementSet((*bank, TomogramSlice(scale * s.mu, scale * s.nu,
                                             grid, s.density)))
    want = _fit_and_report(MeasurementSet(bank))
    got = _fit_and_report(
        MeasurementSet((*bank, gslice(state, -s.mu, -s.nu, grid))))
    assert got == {k: v if v is None or isinstance(v, str)
                   else pytest.approx(v, rel=0, abs=1e-9)
                   for k, v in want.items()}


def test_slice_variance_matches_quadratic_form(grid):
    st = GaussianState(sigma_xx=0.8, sigma_pp=0.45, sigma_xp=0.2)
    mu, nu = 0.6, -0.8
    v = completeness.slice_variance(gslice(st, mu, nu, grid))
    want = 0.8 * mu ** 2 + 2 * 0.2 * mu * nu + 0.45 * nu ** 2
    assert v == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------- fitting


def test_covariance_fit_recovers_all_components(grid):
    st = GaussianState(sigma_xx=1.0, sigma_pp=1.0, sigma_xp=0.3)
    mset = MeasurementSet((gslice(st, 1.0, 0.0, grid),
                           gslice(st, 0.0, 1.0, grid),
                           gslice(st, 1.0, 1.0, grid)))
    est = completeness.covariance_from_tomograms(mset)
    assert list(est.present()) == ["sigma_xx", "sigma_xp", "sigma_pp"]
    assert est.sigma_xx == pytest.approx(1.0, abs=1e-9)
    assert est.sigma_xp == pytest.approx(0.3, abs=1e-9)
    assert est.sigma_pp == pytest.approx(1.0, abs=1e-9)
    fitted = GaussianState(sigma_xx=est.sigma_xx, sigma_pp=est.sigma_pp,
                           sigma_xp=est.sigma_xp)
    assert fitted.determinant == pytest.approx(0.91, abs=1e-8)


def test_covariance_fit_marks_unseen_components(grid):
    st = GaussianState(sigma_xx=0.9, sigma_pp=0.8)
    only_pos = MeasurementSet((gslice(st, 1.0, 0.0, grid),))
    est = completeness.covariance_from_tomograms(only_pos)
    assert est.sigma_xx == pytest.approx(0.9, abs=1e-9)
    assert list(est.present()) == ["sigma_xx"]
    pos_mom = MeasurementSet((gslice(st, 1.0, 0.0, grid),
                              gslice(st, 0.0, 1.0, grid)))
    est = completeness.covariance_from_tomograms(pos_mom)
    assert est.present() == {"sigma_xx": pytest.approx(0.9, abs=1e-9),
                             "sigma_pp": pytest.approx(0.8, abs=1e-9)}


def test_covariance_fit_rejects_non_gaussian_slice(grid):
    f2 = core.sample_state(core.FockPreset(2), grid)
    mset = MeasurementSet((transform.tomogram(f2, 1.0, 0.0),))
    with pytest.raises(ModelMismatchError, match="not a zero-mean Gaussian"):
        completeness.covariance_from_tomograms(mset)


def test_covariance_fit_rejects_disagreeing_slices(grid):
    a = GaussianState(sigma_xx=1.0, sigma_pp=1.0, sigma_xp=0.3)
    b = GaussianState(sigma_xx=2.5, sigma_pp=1.0)
    mset = MeasurementSet((gslice(a, 1.0, 0.0, grid),
                           gslice(a, 0.0, 1.0, grid),
                           gslice(a, 1.0, 1.0, grid),
                           gslice(b, 1.0, -1.0, grid)))
    with pytest.raises(InconsistentTomogramsError, match="disagree"):
        completeness.covariance_from_tomograms(mset)


def test_covariance_fit_rejects_empty_set():
    with pytest.raises(InvalidArgumentError):
        completeness.covariance_from_tomograms(MeasurementSet(()))


def test_single_spike_has_nonpositive_variance():
    # the variance test comes before the KS check, which would divide by it
    g = core.make_grid(-1.0, 1.0, 5)
    spike = TomogramSlice(1.0, 0.0, g, [0.0, 0.0, 2.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelMismatchError, match="nonpositive variance"):
            completeness.covariance_from_tomograms(MeasurementSet((spike,)))


def test_overflowing_variance_is_rejected_without_warnings():
    # x * x overflows at the edges of this grid, so the variance is inf
    g = core.make_grid(-1e160, 1e160, 2048)
    density = np.exp(-0.5 * (g.points / 1e159) ** 2)
    s = TomogramSlice(1.0, 0.0, g, density / (density.sum() * g.dx))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelMismatchError, match="overflows: inf"):
            completeness.gaussian_completeness(MeasurementSet((s,)))


@st.composite
def _ks_cases(draw):
    """A drawn grid, a Gaussian, a zero-mean scale mixture or a two-lobe
    density on it, and a model variance within a factor 2 of its own."""
    n = draw(st.integers(16, 4096))
    grid = core.make_grid(-draw(st.floats(3.0, 30.0)), draw(st.floats(3.0, 30.0)), n)
    x = grid.points
    width = draw(st.floats(0.5, 2.0))
    kind = draw(st.sampled_from(["gaussian", "mixed", "two-lobe"]))
    if kind == "gaussian":
        density = np.exp(-0.5 * (x / width) ** 2)
    elif kind == "mixed":
        other, p = draw(st.floats(0.2, 3.0)), draw(st.floats(0.0, 1.0))
        density = (p * np.exp(-0.5 * (x / width) ** 2) / width
                   + (1.0 - p) * np.exp(-0.5 * (x / other) ** 2) / other)
    else:
        c = draw(st.floats(0.5, 2.5))
        density = np.exp(-0.5 * ((x - c) / width) ** 2) + np.exp(-0.5 * ((x + c) / width) ** 2)
    s = TomogramSlice(1.0, 0.0, grid, density / (density.sum() * grid.dx))
    return s, float(np.trapezoid(x * x * s.density, x)) * draw(st.floats(0.5, 2.0))


def _narrow_case():
    """A Gaussian of width 0.5 on a grid with dx = 3.75, against a model of
    twice its variance: unrefused, its "distance" read 255355.09123245."""
    grid = core.make_grid(-30.0, 30.0, 17)
    x = grid.points
    density = np.exp(-0.5 * (x / 0.5) ** 2)
    s = TomogramSlice(1.0, 0.0, grid, density / (density.sum() * grid.dx))
    return s, float(np.trapezoid(x * x * s.density, x)) * 2.0


@settings(max_examples=200, deadline=None)
@given(case=_ks_cases())
@example(case=_narrow_case())
def test_ks_distance_is_the_gap_of_two_running_integrals(case):
    # a model narrower than dx is refused before any value is formed
    s, variance = case
    if s.grid.dx / np.sqrt(variance) > 1.0:
        with pytest.raises(ModelMismatchError, match="narrower than dx"):
            completeness._ks_distance(s, variance)
        return
    want = oracles.ks_distance_two_integrals(s.density, s.grid.points, variance)
    assert abs(completeness._ks_distance(s, variance) - want) <= 1e-12


@pytest.mark.parametrize("ratio", [0.9, 1.1])
def test_slice_narrower_than_dx_is_a_model_mismatch(ratio):
    # a sampled Gaussian of standard deviation ratio * dx, normalised on the grid
    grid = core.make_grid(-12.0, 12.0, 2048)
    sd = ratio * grid.dx
    density = np.exp(-0.5 * (grid.points / sd) ** 2)
    s = TomogramSlice(1.0, 0.0, grid, density / (density.sum() * grid.dx))
    mset = MeasurementSet((s,))
    if ratio < 1.0:
        with pytest.raises(ModelMismatchError, match=r"narrower than dx: dx is 1\.11 "):
            completeness.covariance_from_tomograms(mset)
    else:
        est = completeness.covariance_from_tomograms(mset)
        assert est.sigma_xx == pytest.approx(sd * sd, rel=1e-9)


def _lstsq_fit(slices):
    """np.linalg.lstsq's min-norm fit of the slice variances."""
    rows = np.array([[s.mu ** 2, 2.0 * s.mu * s.nu, s.nu ** 2] for s in slices])
    v = np.array([completeness.slice_variance(s) for s in slices])
    return dict(zip(("sigma_xx", "sigma_xp", "sigma_pp"),
                    np.linalg.lstsq(rows, v, rcond=None)[0]))


@settings(max_examples=30, deadline=None)
@given(sxx=st.floats(0.4, 1.5), sxp=st.floats(-0.5, 0.5),
       mixing=st.floats(0.0, 1.0),
       angles=st.lists(st.floats(0.3, 1.27) | st.floats(1.87, 2.84),
                       min_size=1, max_size=2))
@example(sxx=1.0, sxp=0.0, mixing=0.0, angles=[0.3])
def test_covariance_fit_matches_lstsq(grid, sxx, sxp, mixing, angles):
    # components are compared relative to the largest one: a cross
    # covariance of 0 is fitted as roundoff of about 1e-16
    state = GaussianState(sigma_xx=sxx, sigma_pp=(0.25 + sxp ** 2 + mixing) / sxx,
                          sigma_xp=sxp)
    dirs = [(1.0, 0.0), (0.0, 1.0)] + [(np.cos(a), np.sin(a)) for a in angles]
    assume(len(angles) == 1 or abs(np.sin(angles[1] - angles[0])) > 0.2)
    bank = [gslice(state, mu, nu, grid) for mu, nu in dirs]
    opposite = gslice(state, -1.0, 0.0, grid)  # the position row again: rank 1
    for subset, names in [(bank[:1], ["sigma_xx"]),
                          ([bank[0], opposite], ["sigma_xx"]),
                          (bank[:2], ["sigma_xx", "sigma_pp"]),
                          (bank, ["sigma_xx", "sigma_xp", "sigma_pp"])]:
        want = _lstsq_fit(subset)
        got = completeness.covariance_from_tomograms(MeasurementSet(subset)).present()
        assert list(got) == names
        scale = max(abs(w) for w in want.values())
        for n in names:
            assert abs(got[n] - want[n]) <= 1e-12 * scale


def test_slice_statistics_do_not_keep_the_slice_alive(grid):
    s = gslice(GaussianState(sigma_xx=0.8, sigma_pp=0.6), 0.6, 0.8, grid)
    completeness.slice_variance(s)
    completeness.covariance_from_tomograms(MeasurementSet((s,)))
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None


def _outcome(fn, *args, **kwargs) -> str:
    """repr of the result, or of the error type and message."""
    try:
        return repr(fn(*args, **kwargs))
    except TomokitError as exc:
        return repr((type(exc), str(exc)))


def _cold_fit(mset) -> str:
    """_outcome of the fit with the direction-system cache emptied first."""
    completeness._direction_system.cache_clear()
    return _outcome(completeness.covariance_from_tomograms, mset)


def test_direction_system_hit_is_the_cold_fit(grid):
    # two states along one direction set: the second fit reuses the first's
    # SVD and is bit for bit its own cold fit (repr tells every float apart)
    dirs = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6)]
    for k in range(1, len(dirs) + 1):
        a, b = (MeasurementSet(tuple(gslice(st, mu, nu, grid) for mu, nu in dirs[:k]))
                for st in (pure_state(0.7, 0.3), GaussianState(1.3, 0.9, -0.2)))
        cold = _cold_fit(b)
        completeness._direction_system.cache_clear()
        completeness.covariance_from_tomograms(a)
        assert _outcome(completeness.covariance_from_tomograms, b) == cold
        info = completeness._direction_system.cache_info()
        assert (info.hits, info.misses) == (1, 1)


def test_direction_system_keeps_the_sign_of_a_zero_apart(grid):
    # (0.0, 1.0) and (-0.0, 1.0) give variance rows whose 2 mu nu differ in
    # the sign of a zero: each set is its own entry with its own cold result
    st = GaussianState(1.3, 0.9, -0.2)
    msets = [MeasurementSet((gslice(st, 1.0, 0.0, grid), gslice(st, mu, 1.0, grid)))
             for mu in (0.0, -0.0)]
    cold = [_cold_fit(m) for m in msets]
    completeness._direction_system.cache_clear()
    assert [_outcome(completeness.covariance_from_tomograms, m) for m in msets] == cold
    info = completeness._direction_system.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)


def test_direction_system_is_bounded_and_read_only():
    # position and one oblique row: sigma_xx is determined, the rest is not
    rows = np.array([[1.0, 0.0, 0.0], [0.36, 0.96, 0.64]])
    u, sv, vt, rank, determined = completeness._direction_system(rows.tobytes())
    assert completeness._direction_system.cache_info().maxsize is not None
    assert not any(a.flags.writeable for a in (u, sv, vt))
    assert (rank, determined) == (2, (True, False, False))


def test_overflowing_direction_is_refused_on_every_call(grid):
    density = gslice(pure_state(0.7, 0.3), 1.0, 0.0, grid).density
    mset = MeasurementSet((TomogramSlice(0.0, 1.0, grid, density),
                           TomogramSlice(1e155, 0.0, grid, density)))
    completeness._direction_system.cache_clear()
    for _ in range(3):
        with pytest.raises(InvalidArgumentError) as refused:
            completeness.covariance_from_tomograms(mset)
        assert str(refused.value) == ("direction (1e+155, 0.0) overflows the variance "
                                      "system; use a shorter direction")
    assert completeness._direction_system.cache_info().currsize == 0


def _outcomes(bank) -> list[str]:
    got = []
    for k in range(1, len(bank) + 1):
        for subset in itertools.combinations(bank, k):
            mset = MeasurementSet(subset)
            got.append(_outcome(completeness.covariance_from_tomograms, mset))
            for pure in (False, True):
                got.append(_outcome(completeness.gaussian_completeness, mset,
                                    purity_assumed=pure))
    return got


@settings(max_examples=30, deadline=None)
@given(sxx=st.floats(0.4, 1.5), sxp=st.floats(-0.5, 0.5),
       mixing=st.just(0.0) | st.floats(0.0, 1.0),
       extra=st.lists(strategies.directions(r_max=1.0), max_size=3))
def test_fits_do_not_depend_on_slice_identity_or_call_history(grid, sxx, sxp,
                                                               mixing, extra):
    dirs = [(1.0, 0.0), (0.0, 1.0)]
    for mu, nu in extra:
        if all(abs(np.sin(np.arctan2(nu, mu) - np.arctan2(b, a))) > 1e-3
               for a, b in dirs):
            dirs.append((mu, nu))
    state = GaussianState(sigma_xx=sxx, sigma_pp=(0.25 + sxp ** 2 + mixing) / sxx,
                          sigma_xp=sxp)
    bank = [gslice(state, mu, nu, grid) for mu, nu in dirs]
    first = _outcomes(bank)
    assert _outcomes(bank) == first
    assert _outcomes([TomogramSlice(s.mu, s.nu, s.grid, s.density)
                      for s in bank]) == first
    x = grid.points
    assert [completeness.slice_variance(s) for s in bank] == [
        oracles.uniform_trapezoid(x * x * s.density, grid.dx) for s in bank]


# ---------------------------------------------------------------- report


def test_report_invariants():
    est = CovarianceEstimate(1.0, None, None, 0.0)
    with pytest.raises(InvalidArgumentError):
        CompletenessReport(0.0, "half-line", est, False)
    with pytest.raises(InvalidArgumentError):
        CompletenessReport(-1.0, REGIME_POSITION_MOMENTUM, est, False)
    with pytest.raises(InvalidArgumentError):
        CompletenessReport(0.3, REGIME_THREE_OR_MORE, est, True)


def test_report_payload_shapes():
    est = CovarianceEstimate(1.0, None, None, 0.0)
    r = CompletenessReport(None, REGIME_POSITION, est, False)
    assert r.value is None
    assert r.payload() == {"value": "unbounded", "regime": REGIME_POSITION,
                           "covariances": {"sigma_xx": 1.0},
                           "purity_assumed": False}
    full = CovarianceEstimate(1.0, 0.3, 1.0, 0.0)
    r = CompletenessReport(0.25, REGIME_POSITION_MOMENTUM, full, False)
    assert r.payload()["value"] == {"finite": 0.25}


# ---------------------------------------------------------------- regimes


def test_position_only_is_unbounded(grid):
    st = GaussianState(sigma_xx=1.0, sigma_pp=1.0)
    report = completeness.gaussian_completeness(
        MeasurementSet((gslice(st, 1.0, 0.0, grid),)))
    assert report.value is None
    assert report.regime == REGIME_POSITION
    assert report.covariances.sigma_xx == pytest.approx(1.0, abs=1e-9)


def test_position_and_momentum_bound(grid):
    st = GaussianState(sigma_xx=1.0, sigma_pp=1.0)
    report = completeness.gaussian_completeness(
        MeasurementSet((gslice(st, 1.0, 0.0, grid),
                        gslice(st, 0.0, 1.0, grid))))
    assert report.regime == REGIME_POSITION_MOMENTUM
    assert report.value == pytest.approx(0.9547712524422623, abs=1e-6)


def test_position_and_momentum_vacuum_bound_is_zero(grid):
    st = GaussianState(sigma_xx=0.5, sigma_pp=0.5)
    report = completeness.gaussian_completeness(
        MeasurementSet((gslice(st, 1.0, 0.0, grid),
                        gslice(st, 0.0, 1.0, grid))))
    assert report.value == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("sigma_xp", [0.3, -0.3])
def test_three_directions_pin_pure_state(grid, sigma_xp):
    st = pure_state(0.7, sigma_xp)
    mset = MeasurementSet((gslice(st, 1.0, 0.0, grid),
                           gslice(st, 0.0, 1.0, grid),
                           gslice(st, 1.0, 1.0, grid)))
    report = completeness.gaussian_completeness(mset, purity_assumed=True)
    assert report.value == 0.0
    assert report.regime == REGIME_THREE_OR_MORE
    assert report.purity_assumed
    cov = report.covariances
    assert cov.sigma_xp == pytest.approx(sigma_xp, abs=1e-6)
    assert cov.sigma_xx * cov.sigma_pp - cov.sigma_xp ** 2 == pytest.approx(
        0.25, abs=1e-12)


def test_three_directions_symmetric_state_picks_zero_cross(grid):
    st = GaussianState(sigma_xx=0.5, sigma_pp=0.5)
    mset = MeasurementSet((gslice(st, 1.0, 0.0, grid),
                           gslice(st, 0.0, 1.0, grid),
                           gslice(st, 1.0, 1.0, grid)))
    report = completeness.gaussian_completeness(mset, purity_assumed=True)
    assert report.covariances.sigma_xp == 0.0


def test_pure_report_takes_the_fits_cross_sign(grid):
    # sigma_xp = 0 drawn; with 1e-3 noise the fit reads -2.03e-6, and the
    # pure report keeps that sign at the purity magnitude 3.5e-3, though
    # the two oblique slices alone sit closer to +3.5e-3
    st = GaussianState(sigma_xx=0.7, sigma_pp=0.25 / 0.7)
    dirs = [(1.0, 0.0), (0.0, 1.0), (np.cos(0.9), np.sin(0.9)),
            (np.cos(2.0), np.sin(2.0))]
    mset = MeasurementSet(tuple(cli._noisy(gslice(st, mu, nu, grid), 1e-3, 19, j)
                                for j, (mu, nu) in enumerate(dirs)))
    fit = completeness.covariance_from_tomograms(mset).sigma_xp
    report = completeness.gaussian_completeness(mset, purity_assumed=True)
    cov = report.covariances
    assert fit == pytest.approx(-2.03e-6, abs=1e-8)
    assert cov.sigma_xp < -1e-3
    assert cov.sigma_xx * cov.sigma_pp - cov.sigma_xp ** 2 == pytest.approx(
        0.25, abs=1e-12)


def test_pure_report_refuses_an_undetermined_fit(grid):
    # three lines 1e-6 rad apart are distinct, but their variance rows are
    # dependent to 1e-10, so the fit determines no component
    st = pure_state(0.7, 0.3)
    mset = MeasurementSet(tuple(gslice(st, np.cos(a), np.sin(a), grid)
                                for a in (0.8, 0.8 + 1e-6, 0.8 + 2e-6)))
    assert len(mset._lines) == 3
    assert completeness.covariance_from_tomograms(mset).present() == {}
    with pytest.raises(InsufficientDataError,
                       match="sigma_xx, sigma_xp, sigma_pp undetermined"):
        completeness.gaussian_completeness(mset, purity_assumed=True)


@pytest.mark.parametrize("state", [GaussianState(1.0, 1.0, 0.0),
                                   GaussianState(2.0, 1.5, 0.7)])
def test_pure_report_refuses_a_mixed_fit(grid, state):
    # the fit reads the mixed covariance exactly; purity once overwrote it,
    # reporting sigma_pp = 0.25 for the first state and sigma_xp = 1.658
    # for the second
    mset = MeasurementSet(tuple(gslice(state, mu, nu, grid)
                                for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))))
    det = state.sigma_xx * state.sigma_pp - state.sigma_xp ** 2
    with pytest.raises(ModelMismatchError, match=(
            rf"= {det:.6f}, not 1/4: the slices contradict the purity assumption "
            r"\(limit 0\.01\)$")):
        completeness.gaussian_completeness(mset, purity_assumed=True)


@pytest.mark.parametrize("noise", [0.0, 1e-4, 1e-3])
@pytest.mark.parametrize("scale", [1.0, 1.2, 2.5])
@pytest.mark.parametrize("sigma_xx, sigma_xp", [(0.7, 0.3), (1.3, -0.2)])
def test_pure_report_refuses_exactly_the_mixed_side(grid, sigma_xx, sigma_xp,
                                                    scale, noise):
    pure = pure_state(sigma_xx, sigma_xp)
    state = GaussianState(scale * pure.sigma_xx, scale * pure.sigma_pp,
                          scale * pure.sigma_xp)
    slices = [gslice(state, mu, nu, grid) for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))]
    if noise:
        slices = [cli._noisy(s, noise, 5, j) for j, s in enumerate(slices)]
    mset = MeasurementSet(tuple(slices))
    if scale == 1.0:
        cov = completeness.gaussian_completeness(mset, purity_assumed=True).covariances
        assert cov.sigma_xx * cov.sigma_pp - cov.sigma_xp ** 2 == pytest.approx(
            0.25, abs=1e-12)
    else:
        with pytest.raises(ModelMismatchError, match="contradict the purity"):
            completeness.gaussian_completeness(mset, purity_assumed=True)


def test_three_directions_need_purity(grid):
    st = pure_state(0.7, 0.3)
    mset = MeasurementSet((gslice(st, 1.0, 0.0, grid),
                           gslice(st, 0.0, 1.0, grid),
                           gslice(st, 1.0, 1.0, grid)))
    with pytest.raises(UnsupportedError, match="purity"):
        completeness.gaussian_completeness(mset)


def test_unsupported_direction_sets(grid):
    st = GaussianState(sigma_xx=1.0, sigma_pp=1.0)
    with pytest.raises(UnsupportedError):
        completeness.gaussian_completeness(
            MeasurementSet((gslice(st, 0.0, 1.0, grid),)))
    with pytest.raises(UnsupportedError):
        completeness.gaussian_completeness(
            MeasurementSet((gslice(st, 1.0, 0.0, grid),
                            gslice(st, 1.0, 1.0, grid))))
    with pytest.raises(InvalidArgumentError):
        completeness.gaussian_completeness(MeasurementSet(()))


def test_uncertainty_violating_marginals_rejected(grid):
    narrow_x = GaussianState(sigma_xx=0.3, sigma_pp=10.0)
    narrow_p = GaussianState(sigma_xx=10.0, sigma_pp=0.3)
    mset = MeasurementSet((gslice(narrow_x, 1.0, 0.0, grid),
                           gslice(narrow_p, 0.0, 1.0, grid)))
    with pytest.raises(InvalidCovarianceError, match="uncertainty"):
        completeness.gaussian_completeness(mset)


def test_completeness_shrinks_as_directions_accumulate(grid):
    st = pure_state(1.0, 0.3)
    pos = gslice(st, 1.0, 0.0, grid)
    mom = gslice(st, 0.0, 1.0, grid)
    obl = gslice(st, 1.0, 1.0, grid)
    one = completeness.gaussian_completeness(MeasurementSet((pos,)))
    two = completeness.gaussian_completeness(MeasurementSet((pos, mom)))
    three = completeness.gaussian_completeness(MeasurementSet((pos, mom, obl)),
                                               purity_assumed=True)
    assert one.value is None
    assert two.value > 0.0
    assert three.value == 0.0


def test_report_is_scale_invariant(grid):
    st = pure_state(0.7, 0.3)
    unit = MeasurementSet((gslice(st, 1.0, 0.0, grid),
                           gslice(st, 0.0, 1.0, grid),
                           gslice(st, 1.0, 1.0, grid)))
    scaled = MeasurementSet((gslice(st, 1.5, 0.0, grid),
                             gslice(st, 0.0, 1.5, grid),
                             gslice(st, 1.5, 1.5, grid)))
    a = completeness.gaussian_completeness(unit, purity_assumed=True)
    b = completeness.gaussian_completeness(scaled, purity_assumed=True)
    assert b.covariances.sigma_xp == pytest.approx(a.covariances.sigma_xp,
                                                   abs=1e-9)
    assert b.value == a.value == 0.0

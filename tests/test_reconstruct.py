import gc
import pathlib
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tomokit import core, reconstruct, transform
from tomokit.errors import (
    InconsistentTomogramsError,
    InsufficientDataError,
    InvalidArgumentError,
    TomokitError,
)
from tomokit.reconstruct import PhaseRecoveryResult, PiecewiseState

import oracles
import strategies


def two_bump(grid, phi, height=0.8, width2=0.15):
    """Two Gaussian bumps at -+2.5 with a relative phase on the right one."""
    x = grid.points
    amps = (np.exp(-(x + 2.5) ** 2 / (2 * 0.15))
            + height * np.exp(1j * phi) * np.exp(-(x - 2.5) ** 2 / (2 * width2)))
    return core.WaveFunction(grid, amps)


@pytest.fixture(scope="module")
def directions():
    # three angles in (0, pi), the middle one nudged off the momentum axis
    return [(np.cos(t), np.sin(t))
            for t in (np.pi / 6, np.pi / 2 + 0.05, np.pi * 5 / 6)]


def slices_for(psi, directions):
    return [transform.tomogram(psi, m, n) for m, n in directions]


# ---------------------------------------------------------------- state model


def test_piecewise_state_counts_segments(grid):
    x = grid.points
    mag = np.exp(-(np.abs(x) - 2.5) ** 2)
    st = PiecewiseState([0.0], mag, [0.0, 1.0], grid)
    assert st.n_segments == 2
    assert st.magnitudes.shape == (2, grid.n_points)
    assert not st.magnitudes.flags.writeable
    nrm2 = sum(float(np.sum(m ** 2)) for m in st.magnitudes) * grid.dx
    assert nrm2 == pytest.approx(1.0)


def test_piecewise_state_wraps_phases(grid):
    st = PiecewiseState([0.0], np.exp(-grid.points ** 2),
                        [-np.pi / 2, 3 * np.pi], grid)
    assert st.phases[0] == pytest.approx(3 * np.pi / 2)
    assert st.phases[1] == pytest.approx(np.pi)


def test_piecewise_state_holds_read_only_copies(grid):
    pos = transform.tomogram(two_bump(grid, 0.7), 1.0, 0.0)
    bp, phases = np.array([0.5]), np.array([0.0, 1.0])
    st = reconstruct.piecewise_from_position(bp, pos, phases)
    bp[0], phases[1] = -3.0, 99.0
    assert st.breakpoints.tolist() == [0.5]
    assert st.phases.tolist() == [0.0, 1.0]
    cut = grid.points > 0.5
    assert np.all(st.magnitudes[0][cut] == 0.0)
    for a in (st.breakpoints, st.phases):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 99.0


def test_piecewise_state_rejects_wrong_counts(grid):
    m = np.exp(-grid.points ** 2)
    for phases in ([0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(InvalidArgumentError, match="2 finite phases"):
            PiecewiseState([0.0], m, phases, grid)
    with pytest.raises(InvalidArgumentError):
        PiecewiseState([1.0, -1.0], m, [0.0] * 3, grid)


def test_piecewise_state_compares_breakpoints_not_their_gaps(grid):
    # a gap that overflows is still an increase, with no RuntimeWarning
    # (an error here)
    st = PiecewiseState([-1e308, 1e308], np.exp(-grid.points ** 2), [0.0] * 3, grid)
    assert st.breakpoints.tolist() == [-1e308, 1e308]
    assert st.n_segments == 3


def test_piecewise_state_rejects_bad_magnitude(grid):
    m = np.exp(-grid.points ** 2)
    negative, nonfinite = m.copy(), m.copy()
    negative[5] = -1e-300
    nonfinite[5] = np.nan
    for bad in (m[:-1], np.stack([m, m]), negative, nonfinite,
                np.zeros(grid.n_points)):
        with pytest.raises(InvalidArgumentError, match="magnitude"):
            PiecewiseState([0.0], bad, [0.0, 0.0], grid)


def _accumulated(state, grid):
    """assemble_state as a per-segment accumulate loop."""
    amps = np.zeros(grid.n_points, dtype=complex)
    for phi, m in zip(state.phases, state.magnitudes):
        amps += np.exp(1j * phi) * m
    return core.WaveFunction(grid, amps)


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.floats(-6.0, 6.0), max_size=4, unique=True),
       phases=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
       width=st.floats(0.3, 3.0))
def test_assemble_state_matches_segment_loop(small_grid, cuts, phases, width):
    x = small_grid.points
    psi = core.WaveFunction(small_grid, np.exp(-x ** 2 / (2 * width ** 2))
                            * (1.0 + 0.5 * np.cos(3.0 * x)))
    pos = transform.tomogram(psi, 1.0, 0.0)
    state = reconstruct.piecewise_from_position(sorted(cuts), pos,
                                                phases[:len(cuts) + 1])
    got = reconstruct.assemble_state(state, small_grid).amplitudes
    assert got.tobytes() == _accumulated(state, small_grid).amplitudes.tobytes()


def test_piecewise_from_position_windows_partition(grid):
    psi = two_bump(grid, 0.7)
    pos = transform.tomogram(psi, 1.0, 0.0)
    st = reconstruct.piecewise_from_position([0.0], pos)
    seg = np.searchsorted([0.0], grid.points, side="left")
    assert np.all(st.magnitudes[0][seg != 0] == 0.0)
    assert np.all(st.magnitudes[1][seg != 1] == 0.0)
    total = st.magnitudes[0] + st.magnitudes[1]
    assert np.max(np.abs(total ** 2 - pos.density)) < 1e-13


def test_assemble_round_trip(grid):
    psi = two_bump(grid, 1.3)
    pos = transform.tomogram(psi, 1.0, 0.0)
    st = reconstruct.piecewise_from_position([0.0], pos, phases=[0.0, 1.3])
    rebuilt = reconstruct.assemble_state(st, grid)
    overlap = abs(np.sum(np.conj(rebuilt.amplitudes) * psi.amplitudes) * grid.dx)
    assert overlap == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- nodes


def test_detect_nodes_fock2(grid):
    psi = core.sample_state(core.FockPreset(2), grid)
    nodes = reconstruct.detect_nodes(transform.tomogram(psi, 1.0, 0.0))
    assert nodes.shape == (2,)
    assert abs(nodes[0] + 1 / np.sqrt(2)) < grid.dx
    assert abs(nodes[1] - 1 / np.sqrt(2)) < grid.dx


def test_detect_nodes_two_bump(grid):
    pos = transform.tomogram(two_bump(grid, 0.4), 1.0, 0.0)
    nodes = reconstruct.detect_nodes(pos)
    assert nodes.shape == (1,)
    assert abs(nodes[0]) < grid.dx


def test_detect_nodes_none_for_vacuum(vacuum):
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    assert reconstruct.detect_nodes(pos).size == 0


@st.composite
def dip_densities(draw):
    """Sample values as runs on both sides of 1e-3 of the peak: lobes in
    [0.01, 1], gaps as narrow as one sample with ties at zero, and tails
    that may reach either grid edge."""
    high = st.floats(0.01, 1.0)
    low = st.one_of(st.just(0.0), st.floats(0.0, 1e-6))
    values = []
    for j in range(draw(st.integers(1, 5))):
        if j or draw(st.booleans()):
            values += draw(st.lists(low, min_size=1, max_size=6))
        values += draw(st.lists(high, min_size=1, max_size=8))
    if draw(st.booleans()):
        values += draw(st.lists(low, min_size=1, max_size=6))
    return np.array(values + [0.0] * (len(values) < 2))


@settings(max_examples=200, deadline=None)
@given(values=dip_densities())
@example(values=np.array([1.0, 0.0, 1.0]))
@example(values=np.array([0.0, 1.0, 0.0, 0.0, 0.5, 0.0]))
def test_detect_nodes_equals_the_per_sample_scan(values):
    grid = core.make_grid(-3.0, 3.0, values.size)
    pos = transform.TomogramSlice(1.0, 0.0, grid, values / (values.sum() * grid.dx))
    got = reconstruct.detect_nodes(pos)
    want = oracles.dip_nodes(pos.density, grid.points, reconstruct._NODE_DIP_REL)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_detect_nodes_validates_input(grid, vacuum):
    momentum = transform.tomogram(vacuum, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        reconstruct.detect_nodes(momentum)


# ---------------------------------------------------------------- transforms


def test_segment_transforms_stay_orthogonal(grid, directions):
    pos = transform.tomogram(two_bump(grid, 0.9), 1.0, 0.0)
    st = reconstruct.piecewise_from_position([0.0], pos)
    for mu, nu in directions:
        waves = transform._quadrature(st.magnitudes, grid, mu, nu, grid)
        assert waves.shape == (2, grid.n_points)
        assert np.sum(np.abs(waves) ** 2) * grid.dx == pytest.approx(1.0)


@pytest.mark.parametrize("solve", [
    lambda pos, extras: reconstruct.recover_phases_nodes(pos, extras, [0.0]),
    lambda pos, extras: reconstruct.recover_phases_piecewise([0.0], pos, extras),
], ids=["nodes", "piecewise"])
def test_cut_through_the_bulk_keeps_one_phase(grid, vacuum, directions, solve):
    # A cut through the bulk of a smooth state leaves hard-edged windows
    # whose transforms ring past the grid edge; the fit, whose rows are
    # exact samples on the grid, still finds both halves in phase.
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    res = solve(pos, slices_for(vacuum, directions))
    assert res.phases[0] == 0.0
    assert abs(np.angle(np.exp(1j * res.phases[1]))) < 1e-6
    rebuilt = reconstruct.assemble_state(
        reconstruct.piecewise_from_position([0.0], pos, res.phases), grid)
    assert abs(vacuum.inner(rebuilt)) ** 2 >= 0.999


@settings(max_examples=25, deadline=None)
@example(d=(1.0, 0.0), phi=0.9, height=0.8)
@example(d=(1.0, 1e-9), phi=0.9, height=0.8)
@example(d=(-0.999, 0.04), phi=0.9, height=0.8)
@example(d=(2.0, 0.0), phi=0.9, height=0.8)
@example(d=(0.3, 0.05), phi=0.9, height=0.8)  # widens the momentum pass past 2N
@given(d=strategies.directions(oblique=False),
       phi=st.floats(0.0, 2.0 * np.pi), height=st.floats(0.3, 1.0))
def test_near_axis_segment_transforms_sum_to_slice(grid, d, phi, height):
    # The phase-weighted sum of the transformed segments is the transform
    # of the assembled state.
    pos = transform.tomogram(two_bump(grid, phi, height), 1.0, 0.0)
    st_ = reconstruct.piecewise_from_position([0.0], pos, phases=[0.0, phi])
    waves = transform._quadrature(st_.magnitudes, grid, *d, grid)
    total = np.abs(np.exp(1j * st_.phases) @ waves) ** 2
    want = transform.tomogram(reconstruct.assemble_state(st_, grid), *d)
    assert np.max(np.abs(total - want.density)) < 1e-12


# ---------------------------------------------------------------- recovery


@pytest.mark.parametrize("phi", [np.pi / 3, 2.5])
def test_recover_phases_nodes_two_bump(grid, directions, phi):
    psi = two_bump(grid, phi)
    pos = transform.tomogram(psi, 1.0, 0.0)
    res = reconstruct.recover_phases_nodes(pos, slices_for(psi, directions),
                                           reconstruct.detect_nodes(pos))
    assert res.status == "ok"
    assert res.phases[0] == 0.0
    diff = (res.phases[1] - res.phases[0]) % (2 * np.pi)
    assert abs(diff - phi) < 1e-8
    assert res.residual < 1e-6


@pytest.mark.parametrize("phi", [np.pi / 3, 2.5])
def test_recover_phases_piecewise_two_bump(grid, directions, phi):
    psi = two_bump(grid, phi)
    pos = transform.tomogram(psi, 1.0, 0.0)
    res = reconstruct.recover_phases_piecewise([0.0], pos,
                                               slices_for(psi, directions))
    diff = (res.phases[1] - res.phases[0]) % (2 * np.pi)
    assert abs(diff - phi) < 1e-8


def test_extras_on_another_grid_recover_the_same_phases(grid):
    # the fit's row blocks differ in length: 2048 samples, then 1500
    other = core.make_grid(-14.0, 14.0, 1500)
    psi = two_bump(grid, 2.1)
    pos = transform.tomogram(psi, 1.0, 0.0)
    near = transform.tomogram(psi, 0.7, 0.7)
    same = [near, transform.tomogram(psi, -0.6, 0.8)]
    mixed = [near, transform.tomogram(two_bump(other, 2.1), -0.6, 0.8)]
    for solve in (lambda ex: reconstruct.recover_phases_nodes(pos, ex, [0.0]),
                  lambda ex: reconstruct.recover_phases_piecewise([0.0], pos, ex)):
        want, got = solve(same), solve(mixed)
        assert got.status == "ok" and got.residual < 1e-6
        assert got.phases[0] == 0.0
        assert abs(got.phases[1] - want.phases[1]) < 1e-9
        assert abs(got.phases[1] - 2.1) < 1e-9


def test_recovery_reconstructs_the_state(grid, directions):
    psi = two_bump(grid, 1.9)
    pos = transform.tomogram(psi, 1.0, 0.0)
    res = reconstruct.recover_phases_nodes(pos, slices_for(psi, directions),
                                           reconstruct.detect_nodes(pos))
    st = reconstruct.piecewise_from_position([0.0], pos, phases=res.phases)
    rebuilt = reconstruct.assemble_state(st, grid)
    overlap = abs(np.sum(np.conj(rebuilt.amplitudes) * psi.amplitudes) * grid.dx)
    assert overlap > 0.99999


def test_recover_without_breakpoints_is_trivial(grid, vacuum):
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    res = reconstruct.recover_phases_nodes(pos, [], [])
    assert res.status == "ok"
    assert res.phases.tolist() == [0.0]
    assert res.residual == 0.0


def test_one_segment_is_fitted_against_its_extras(grid, vacuum):
    # the residual is the real misfit of the one-segment state, not 0.0
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    extra = [transform.tomogram(vacuum, 0.6, 0.8)]
    for res in (reconstruct.recover_phases_nodes(pos, extra, []),
                reconstruct.recover_phases_piecewise([], pos, extra)):
        assert res.status == "ok"
        assert res.phases.tolist() == [0.0]
        assert 0.0 < res.residual < 1e-6
        assert res.condition_estimate == 1.0


def test_one_segment_contradicted_by_its_extras_is_inconsistent(grid):
    # a moving packet has no node, but its momentum shows in the oblique
    # slice, which no real one-segment magnitude reproduces
    psi = core.sample_state(core.GaussianPreset(0.5, 1.0, 0.7), grid)
    pos = transform.tomogram(psi, 1.0, 0.0)
    extra = [transform.tomogram(psi, 0.6, 0.8)]
    with pytest.raises(InconsistentTomogramsError, match="residual"):
        reconstruct.recover_phases_nodes(pos, extra, [])
    with pytest.raises(InconsistentTomogramsError, match="residual"):
        reconstruct.recover_phases_piecewise([], pos, extra)


def test_recover_nodes_requires_enough_slices(grid, directions):
    psi = two_bump(grid, 1.0)
    pos = transform.tomogram(psi, 1.0, 0.0)
    with pytest.raises(InsufficientDataError,
                       match=r"^1 nodes need at least 1 extra slices, got 0$"):
        reconstruct.recover_phases_nodes(pos, [], [0.0])


def test_recover_piecewise_requires_enough_slices(grid, directions):
    psi = two_bump(grid, 1.0)
    pos = transform.tomogram(psi, 1.0, 0.0)
    one = slices_for(psi, directions)[:1]
    with pytest.raises(InsufficientDataError,
                       match=r"^2 segments need at least 2 slices, got 1$"):
        reconstruct.recover_phases_piecewise([0.0], pos, one)


def test_recover_rejects_non_position_reference(grid, directions):
    psi = two_bump(grid, 1.0)
    slices = slices_for(psi, directions)
    with pytest.raises(InvalidArgumentError):
        reconstruct.recover_phases_nodes(slices[0], slices[1:], [0.0])


def test_recover_rejects_scaling_branch_extras(grid):
    # extras within 1e-9 of the position line carry no phase information
    pos = transform.tomogram(two_bump(grid, 1.0), 1.0, 0.0)
    for mu, nu in [(1.0, 0.0), (1.0, 1e-13), (-2.0, 1e-300)]:
        extra = transform.TomogramSlice(mu, nu, grid, pos.density)
        with pytest.raises(InvalidArgumentError, match="no phase information"):
            reconstruct.recover_phases_nodes(pos, [extra], [0.0])
        with pytest.raises(InvalidArgumentError, match="no phase information"):
            reconstruct.recover_phases_piecewise([0.0], pos, [extra, extra])


def test_near_axis_extra_is_insufficient(grid):
    # 0.1 rad off the axis the cross terms sit at the noise level; phases
    # read off them used to come back as "ok" with the wrong value.
    psi = two_bump(grid, 2.5)
    pos = transform.tomogram(psi, 1.0, 0.0)
    nodes = reconstruct.detect_nodes(pos)
    near = [transform.tomogram(psi, 0.995, 0.0998)]
    with pytest.raises(InsufficientDataError, match="standard error"):
        reconstruct.recover_phases_nodes(pos, near, nodes)
    with pytest.raises(InsufficientDataError, match="standard error"):
        reconstruct.recover_phases_piecewise([0.0], pos, near * 2)
    res = reconstruct.recover_phases_nodes(
        pos, [transform.tomogram(psi, np.cos(0.26), np.sin(0.26))], nodes)
    assert res.status == "ok"
    assert abs(res.phases[1] - 2.5) < 1e-3


def test_empty_segment_flags_ill_conditioned(grid, directions):
    x = grid.points
    psi = core.WaveFunction(grid, np.exp(-(x - 2.5) ** 2 / (2 * 0.15)))
    pos = transform.tomogram(psi, 1.0, 0.0)
    res = reconstruct.recover_phases_nodes(pos, slices_for(psi, directions),
                                           [-6.0])
    assert res.status == "ill-conditioned"
    assert res.condition_estimate > 1e8
    assert res.residual < 1e-6


def test_singular_fit_gauges_to_a_populated_segment(grid):
    # one lobe at -0.14 cut at -6, -0.12 and 6: the outer segments carry no
    # magnitude, so the fit is singular; they read phase 0, the gauge is the
    # first populated segment, and the lobe's two halves stay in phase
    psi = core.sample_state(core.GaussianPreset(-0.14, 0.0, 0.5), grid)
    pos = transform.tomogram(psi, 1.0, 0.0)
    extras = [transform.tomogram(psi, mu, nu)
              for mu, nu in [(0.6, 0.8), (-0.6, 0.8), (0.3, 0.95)]]
    res = reconstruct.recover_phases_nodes(pos, extras, [-6.0, -0.12, 6.0])
    assert res.status == "ill-conditioned" and res.condition_estimate == np.inf
    assert res.phases[0] == res.phases[1] == res.phases[3] == 0.0
    assert abs(np.angle(np.exp(1j * res.phases[2]))) <= 1e-9


@pytest.mark.parametrize("method", ["nodes", "piecewise"])
def test_mismatched_slices_are_inconsistent(grid, directions, method):
    pos = transform.tomogram(two_bump(grid, np.pi / 3), 1.0, 0.0)
    other = two_bump(grid, np.pi / 3, width2=0.45)
    bad = slices_for(other, directions)
    with pytest.raises(InconsistentTomogramsError):
        if method == "nodes":
            reconstruct.recover_phases_nodes(pos, bad, [0.0])
        else:
            reconstruct.recover_phases_piecewise([0.0], pos, bad)


def test_result_rejects_non_finite_residual():
    with pytest.raises(InvalidArgumentError):
        PhaseRecoveryResult(np.zeros(2), np.nan, 1.0, "ok")


# ---------------------------------------------------------------- shared fit


def lobes(grid, centres, sigmas, weights, phases):
    amps = sum(w * np.exp(1j * phi) * np.exp(-(grid.points - c) ** 2 / (4 * s * s))
               for c, s, w, phi in zip(centres, sigmas, weights, phases))
    return core.WaveFunction(grid, amps)


@st.composite
def lobe_states(draw):
    """2-4 Gaussian lobes 4-4.6 apart with free phases, and four unit
    directions, one per quarter of [0.26, pi - 0.26]."""
    k = draw(st.integers(2, 4))
    spacing = draw(st.floats(4.0, 4.6))
    centres = (np.arange(k) - 0.5 * (k - 1)) * spacing + draw(st.floats(-0.5, 0.5))
    sigmas = draw(st.lists(st.floats(0.3, 0.4), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.6, 1.0), min_size=k, max_size=k))
    phases = [0.0] + draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=k - 1,
                                   max_size=k - 1))
    u = draw(st.lists(st.floats(0.15, 0.85), min_size=4, max_size=4))
    angles = 0.26 + (np.pi - 0.52) * (np.arange(4) + u) / 4
    return k, (centres, sigmas, weights, phases), [(np.cos(a), np.sin(a)) for a in angles]


def fresh(s):
    """A copy of the slice that no earlier fit can have seen."""
    return transform.TomogramSlice(s.mu, s.nu, s.grid, s.density)


def outcome(method, position, extras, cuts) -> str:
    """repr of the result's fields, or of the error type and message."""
    try:
        if method == "nodes":
            res = reconstruct.recover_phases_nodes(position, extras, cuts)
        else:
            res = reconstruct.recover_phases_piecewise(cuts, position, extras)
    except TomokitError as exc:
        return repr((type(exc), str(exc)))
    return repr((res.phases.tolist(), res.residual, res.condition_estimate, res.status))


def from_scratch(method, position, extras, cuts) -> str:
    return outcome(method, fresh(position), [fresh(s) for s in extras], cuts)


def fit_count(fn, *args):
    with mock.patch.object(reconstruct, "_fit", wraps=reconstruct._fit) as fit:
        fn(*args)
    return fit.call_count


@settings(max_examples=24, deadline=None)
@given(drawn=lobe_states())
def test_second_solver_reuses_the_fit_bit_for_bit(grid, drawn):
    k, params, directions = drawn
    psi = lobes(grid, *params)
    pos = transform.tomogram(psi, 1.0, 0.0)
    every = slices_for(psi, directions)
    cuts = reconstruct.detect_nodes(pos)
    for extras in (every[:k - 1], every[:k], every):
        for order in (("nodes", "piecewise"), ("piecewise", "nodes")):
            pos = fresh(pos)
            for method in order:
                assert (outcome(method, pos, extras, cuts)
                        == from_scratch(method, pos, extras, cuts))
    # both entry points on one slice with the same extras and cuts fit once,
    # unless the fit fails
    pos = fresh(pos)
    with mock.patch.object(reconstruct, "_fit", wraps=reconstruct._fit) as fit:
        first = outcome("nodes", pos, every, cuts)
        outcome("piecewise", pos, every, cuts)
    assert fit.call_count == (2 if "Error" in first else 1)


def test_near_misses_fit_again(grid, directions):
    psi = lobes(grid, [-4.3, 0.1, 4.4], [0.35, 0.3, 0.4], [1.0, 0.7, 0.9],
                [0.0, 2.0, 4.5])
    pos = transform.tomogram(psi, 1.0, 0.0)
    extras = slices_for(psi, directions)
    cuts = reconstruct.detect_nodes(pos)
    assert cuts.size == 2
    other = transform.tomogram(lobes(grid, [-4.3, 0.1, 4.4], [0.35, 0.3, 0.4],
                                     [1.0, 0.7, 0.9], [0.0, 1.0, 4.5]),
                               extras[0].mu, extras[0].nu)
    near = [("nodes", extras[::-1], cuts),
            ("nodes", extras[:2], cuts),
            ("nodes", [other] + extras[1:], cuts),
            ("nodes", extras, cuts + 0.01)]
    for method, again, again_cuts in near:
        assert outcome("piecewise", pos, extras, cuts) == from_scratch(
            "piecewise", pos, extras, cuts)
        assert fit_count(outcome, method, pos, again, again_cuts) == 1
        assert (outcome(method, pos, again, again_cuts)
                == from_scratch(method, pos, again, again_cuts))
    # equal cuts in another array are the same key
    outcome("piecewise", pos, extras, cuts)
    assert fit_count(outcome, "nodes", pos, list(extras), cuts.copy()) == 0


def test_cut_shape_is_part_of_the_key(grid):
    # a 0-d cut has the bytes of a 1-d one but is not a fitted fragmentation
    psi = two_bump(grid, 1.0)
    pos = transform.tomogram(psi, 1.0, 0.0)
    extras = slices_for(psi, [(np.cos(t), np.sin(t))
                              for t in (np.pi / 4, np.pi * 3 / 4)])
    reconstruct.recover_phases_piecewise([0.0], pos, extras)
    with mock.patch.object(reconstruct, "_fit", wraps=reconstruct._fit) as fit:
        with pytest.raises(InvalidArgumentError, match="1D"):
            reconstruct.recover_phases_piecewise(0.0, pos, extras)
    assert fit.call_count == 1


def test_fit_memo_lets_the_position_slice_go(grid, directions):
    psi = two_bump(grid, 1.0)
    pos = transform.tomogram(psi, 1.0, 0.0)
    extras = slices_for(psi, directions)
    reconstruct.recover_phases_nodes(pos, extras, [0.0])
    reconstruct.recover_phases_piecewise([0.0], pos, extras)
    assert pos in reconstruct._FITS
    ref = weakref.ref(pos)
    del pos
    gc.collect()
    assert ref() is None
    assert len(reconstruct._FITS) == 0


def test_failed_fit_is_not_kept(grid):
    psi = core.sample_state(core.GaussianPreset(0.5, 1.0, 0.7), grid)
    pos = transform.tomogram(psi, 1.0, 0.0)
    extra = [transform.tomogram(psi, 0.6, 0.8)]
    for method in ("nodes", "piecewise", "nodes"):
        got = outcome(method, pos, extra, np.zeros(0))
        assert "InconsistentTomogramsError" in got and "residual" in got
        assert got == outcome("nodes", pos, extra, np.zeros(0))
    assert pos not in reconstruct._FITS


def test_kept_fit_is_read_only(grid, directions):
    psi = two_bump(grid, 2.0)
    pos = transform.tomogram(psi, 1.0, 0.0)
    extras = slices_for(psi, directions)
    first = reconstruct.recover_phases_nodes(pos, extras, [0.0])
    sol = reconstruct._FITS[pos][2][0]
    with pytest.raises(ValueError, match="read-only"):
        sol[0, 0] = 1.0
    assert (outcome("nodes", pos, extras, [0.0])
            == repr((first.phases.tolist(), first.residual,
                     first.condition_estimate, first.status)))


def captured_fit(position, extras, cuts):
    """_fit's result, or the error it raised, with the [A | b] it factored,
    copied before _factor overwrites it."""
    factor, arrays = reconstruct._factor, []

    def spy(ab):
        arrays.append(ab.copy(order="K"))
        return factor(ab)

    with mock.patch.object(reconstruct, "_factor", spy):
        try:
            got = reconstruct._fit(position, extras, np.asarray(cuts, dtype=float))
        except TomokitError as exc:
            got = exc
    [ab] = arrays
    return got, ab


def assert_fit_matches_lstsq(got, ab):
    sol, residual, cond, stderr = oracles.lstsq_pair_fit(ab)
    status = "ok" if cond <= reconstruct._CONDITION_LIMIT else "ill-conditioned"
    if residual > reconstruct._RESIDUAL_LIMIT:
        assert isinstance(got, InconsistentTomogramsError)
    elif status == "ok" and stderr > reconstruct._STDERR_LIMIT:
        assert isinstance(got, InsufficientDataError)
    else:
        pairs, got_residual, got_cond, got_status, _ = got
        assert pairs.shape == (sol.size // 2, 2)
        assert np.max(np.abs(pairs.ravel() - sol), initial=0.0) <= 1e-12
        assert abs(got_residual - residual) <= 1e-15
        assert got_cond == cond or abs(got_cond - cond) <= 1e-12 * cond
        assert got_status == status


@settings(max_examples=12, deadline=None)
@given(drawn=lobe_states())
def test_fit_matches_lstsq(grid, drawn):
    k, params, directions = drawn
    psi = lobes(grid, *params)
    pos = transform.tomogram(psi, 1.0, 0.0)
    every = slices_for(psi, directions)
    cuts = reconstruct.detect_nodes(pos)
    for extras in (every[:k - 1], every[:k], every):
        assert_fit_matches_lstsq(*captured_fit(pos, extras, cuts))


def test_singular_and_one_segment_fits_match_lstsq(grid, vacuum, directions):
    # the empty_segment state: its first segment has zero magnitude, so the
    # fit is singular and its condition estimate infinite; a second cut in
    # the tail leaves singular values of order 1e-20 that only the rank
    # cutoff drops
    x = grid.points
    psi = core.WaveFunction(grid, np.exp(-(x - 2.5) ** 2 / (2 * 0.15)))
    pos = transform.tomogram(psi, 1.0, 0.0)
    for cuts in ([-6.0], [-6.0, 4.0]):
        got, ab = captured_fit(pos, slices_for(psi, directions), cuts)
        assert got[2] == np.inf and got[3] == "ill-conditioned"
        assert_fit_matches_lstsq(got, ab)
    got, ab = captured_fit(transform.tomogram(vacuum, 1.0, 0.0),
                           [transform.tomogram(vacuum, 0.6, 0.8)], [])
    assert got[0].size == 0 and got[2] == 1.0 and got[3] == "ok"
    assert_fit_matches_lstsq(got, ab)


# ---------------------------------------------------------------- _factor


@st.composite
def column_major(draw):
    """An F-ordered normal array of 1-3000 rows (often fewer than its
    columns) and 1-13 columns; some draws repeat a column, so rank
    deficiency is covered too."""
    m = draw(st.one_of(st.integers(1, 13), st.integers(1, 3000)))
    w = draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.asfortranarray(rng.standard_normal((m, w)))
    if w > 1 and draw(st.booleans()):
        a[:, -1] = a[:, 0]
    return a


@settings(max_examples=60, deadline=None)
@given(ab=column_major())
@example(ab=np.asfortranarray(np.random.default_rng(3).standard_normal((8192, 3))))
@example(ab=np.asfortranarray(np.random.default_rng(7).standard_normal((8192, 7))))
@example(ab=np.asfortranarray(np.random.default_rng(13).standard_normal((8192, 13))))
@example(ab=np.asfortranarray(np.random.default_rng(1).standard_normal((4, 13))))
@example(ab=np.asfortranarray(np.random.default_rng(2).standard_normal((2048, 1))))
def test_factor_is_numpy_qr_r_bit_for_bit(ab):
    want = np.linalg.qr(ab, mode="r")
    got = reconstruct._factor(ab)
    assert np.array_equal(got, want)
    # the layout too, so every product taken of it rounds alike
    assert got.shape == want.shape and got.strides == want.strides


def test_factor_keeps_the_dgeqrf_contract():
    # lapack_lite checks neither lengths nor leading dimensions
    ab = np.asfortranarray(np.random.default_rng(5).standard_normal((300, 7)))
    dgeqrf, calls = reconstruct.lapack_lite.dgeqrf, []

    def spy(m, n, a, lda, tau, work, lwork, info):
        calls.append(lwork)
        assert (m, n) == ab.shape and a.shape == (n, m) and np.shares_memory(a, ab)
        assert a.flags.c_contiguous and lda >= max(1, m)
        assert tau.size >= min(m, n) and work.size >= max(1, lwork)
        return dgeqrf(m, n, a, lda, tau, work, lwork, info)

    with mock.patch.object(reconstruct.lapack_lite, "dgeqrf", spy):
        reconstruct._factor(ab)
    assert calls[0] == -1 and calls[1] >= ab.shape[1]


def test_factor_raises_on_nonzero_lapack_info():
    ab = np.asfortranarray(np.ones((5, 2)))
    with mock.patch.object(reconstruct.lapack_lite, "dgeqrf",
                           return_value={"info": -4}):
        with pytest.raises(np.linalg.LinAlgError, match="argument 4"):
            reconstruct._factor(ab)


# ---------------------------------------------------------------- README


def test_readme_example_recovers_its_phases():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert np.max(np.abs(scope["result"].phases - [0.0, 2.5])) <= 1e-3

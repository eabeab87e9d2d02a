import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tomokit import core, reconstruct, transform
from tomokit.errors import (
    InconsistentTomogramsError,
    InsufficientDataError,
    InvalidArgumentError,
    ResolutionError,
)
from tomokit.reconstruct import PhaseRecoveryResult, PiecewiseState

import strategies


def two_bump(grid, phi, height=0.8, width2=0.15):
    """Two Gaussian bumps at -+2.5 with a relative phase on the right one."""
    x = grid.points
    amps = (np.exp(-(x + 2.5) ** 2 / (2 * 0.15))
            + height * np.exp(1j * phi) * np.exp(-(x - 2.5) ** 2 / (2 * width2)))
    return core.WaveFunction(grid, amps)


@pytest.fixture(scope="module")
def directions():
    return reconstruct.quasi_uniform_directions(3)


def slices_for(psi, directions):
    return [transform.tomogram(psi, m, n) for m, n in directions]


# ---------------------------------------------------------------- state model


def test_piecewise_state_counts_segments(grid):
    x = grid.points
    left = np.where(x <= 0.0, np.exp(-(x + 2.5) ** 2), 0.0)
    right = np.where(x > 0.0, np.exp(-(x - 2.5) ** 2), 0.0)
    st = PiecewiseState([0.0], [left, right], [0.0, 1.0], grid)
    assert st.n_segments == 2
    nrm2 = sum(float(np.sum(m ** 2)) for m in st.magnitudes) * grid.dx
    assert nrm2 == pytest.approx(1.0)


def test_piecewise_state_wraps_phases(grid):
    x = grid.points
    mags = [np.where(x <= 0.0, np.exp(-x ** 2), 0.0),
            np.where(x > 0.0, np.exp(-x ** 2), 0.0)]
    st = PiecewiseState([0.0], mags, [-np.pi / 2, 3 * np.pi], grid)
    assert st.phases[0] == pytest.approx(3 * np.pi / 2)
    assert st.phases[1] == pytest.approx(np.pi)


def test_piecewise_state_rejects_stray_support(grid):
    full = np.exp(-grid.points ** 2)
    with pytest.raises(InvalidArgumentError, match="outside its segment"):
        PiecewiseState([0.0], [full, full], [0.0, 0.0], grid)


def test_piecewise_state_rejects_wrong_counts(grid):
    x = grid.points
    m = np.where(x <= 0.0, np.exp(-x ** 2), 0.0)
    with pytest.raises(InvalidArgumentError):
        PiecewiseState([0.0], [m], [0.0], grid)
    with pytest.raises(InvalidArgumentError):
        PiecewiseState([1.0, -1.0], [m, m, m], [0.0] * 3, grid)


def test_piecewise_state_norm_check_without_normalize(grid):
    x = grid.points
    mags = [np.where(x <= 0.0, np.exp(-x ** 2), 0.0),
            np.where(x > 0.0, np.exp(-x ** 2), 0.0)]
    with pytest.raises(InvalidArgumentError, match="squared norm"):
        PiecewiseState([0.0], mags, [0.0, 0.0], grid, normalize=False)


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


def test_detect_nodes_validates_input(grid, vacuum):
    momentum = transform.tomogram(vacuum, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        reconstruct.detect_nodes(momentum)
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        reconstruct.detect_nodes(pos, rel_threshold=1.5)


# ---------------------------------------------------------------- transforms


def test_segment_transforms_stay_orthogonal(grid, directions):
    pos = transform.tomogram(two_bump(grid, 0.9), 1.0, 0.0)
    st = reconstruct.piecewise_from_position([0.0], pos)
    for mu, nu in directions:
        waves = reconstruct.segment_transforms(st, grid, mu, nu)
        assert waves.shape == (2, grid.n_points)
        assert np.sum(np.abs(waves) ** 2) * grid.dx == pytest.approx(1.0)


def test_segment_transforms_detect_lost_orthogonality(grid, vacuum):
    # A cut through the bulk of a smooth state gives hard-edged windows
    # whose transforms ring far past the grid edge.
    pos = transform.tomogram(vacuum, 1.0, 0.0)
    st = reconstruct.piecewise_from_position([0.0], pos)
    with pytest.raises(ResolutionError, match="orthogonality"):
        reconstruct.segment_transforms(st, grid, 0.7, 0.7)


@settings(max_examples=25, deadline=None)
@example(d=(1.0, 0.0), phi=0.9, height=0.8)
@example(d=(1.0, 1e-9), phi=0.9, height=0.8)
@example(d=(-0.999, 0.04), phi=0.9, height=0.8)
@example(d=(2.0, 0.0), phi=0.9, height=0.8)
@given(d=strategies.directions(oblique=False),
       phi=st.floats(0.0, 2.0 * np.pi), height=st.floats(0.3, 1.0))
def test_near_axis_segment_transforms_sum_to_slice(grid, d, phi, height):
    # segment_transforms runs the Gram check; the phase-weighted sum of the
    # transformed segments is the transform of the assembled state.
    pos = transform.tomogram(two_bump(grid, phi, height), 1.0, 0.0)
    st_ = reconstruct.piecewise_from_position([0.0], pos, phases=[0.0, phi])
    waves = reconstruct.segment_transforms(st_, grid, *d)
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


def test_recover_nodes_requires_enough_slices(grid, directions):
    psi = two_bump(grid, 1.0)
    pos = transform.tomogram(psi, 1.0, 0.0)
    with pytest.raises(InsufficientDataError):
        reconstruct.recover_phases_nodes(pos, [], [0.0])


def test_recover_piecewise_requires_enough_slices(grid, directions):
    psi = two_bump(grid, 1.0)
    pos = transform.tomogram(psi, 1.0, 0.0)
    one = slices_for(psi, directions)[:1]
    with pytest.raises(InsufficientDataError):
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


# ---------------------------------------------------------------- directions


def test_quasi_uniform_directions_layout():
    dirs = reconstruct.quasi_uniform_directions(6, r=1.25)
    assert len(dirs) == 6
    for mu, nu in dirs:
        assert np.hypot(mu, nu) == pytest.approx(1.25)
        assert nu > 0.0
        assert abs(np.arctan2(nu, mu) - np.pi / 2) >= 0.05 - 1e-12


def test_quasi_uniform_directions_validate():
    with pytest.raises(InvalidArgumentError):
        reconstruct.quasi_uniform_directions(0)
    with pytest.raises(InvalidArgumentError):
        reconstruct.quasi_uniform_directions(4, r=-1.0)

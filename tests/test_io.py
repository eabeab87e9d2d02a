import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tomokit import core, dynamics, io, transform
from tomokit.errors import InvalidArgumentError, ParseError

import oracles
import strategies


@pytest.fixture()
def sample_slice(grid, vacuum):
    return transform.tomogram(vacuum, 0.6, 0.8)


def test_slice_round_trip_is_bit_exact(tmp_path, sample_slice):
    path = tmp_path / "slice.csv"
    io.write_slice_csv(path, sample_slice)
    back = io.read_slice_csv(path)
    assert back.mu == sample_slice.mu
    assert back.nu == sample_slice.nu
    assert back.grid == sample_slice.grid
    assert np.array_equal(back.density, sample_slice.density)


@settings(max_examples=20, deadline=None)
@given(d=strategies.directions(), x0=st.floats(-1.5, 1.5),
       p0=st.floats(-1.5, 1.5))
def test_slice_round_trip_is_bit_exact_in_every_direction(grid, d, x0, p0):
    s = transform.tomogram(core.sample_state(core.GaussianPreset(x0, p0), grid), *d)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "slice.csv")
        io.write_slice_csv(path, s)
        back = io.read_slice_csv(path)
    assert (back.mu, back.nu, back.grid) == (s.mu, s.nu, s.grid)
    assert np.array_equal(back.density, s.density)


def test_slice_rewrite_is_deterministic(tmp_path, sample_slice):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_slice_csv(a, sample_slice)
    io.write_slice_csv(b, sample_slice)
    assert io.sha256_of(a) == io.sha256_of(b)


def test_wavefunction_round_trip_is_bit_exact(tmp_path, grid):
    psi = core.sample_state(core.GaussianPreset(x0=0.5, p0=1.0), grid)
    path = tmp_path / "state.csv"
    io.write_wavefunction_csv(path, psi)
    back = io.read_wavefunction_csv(path)
    assert back.grid == grid
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_trajectory_csv_layout(tmp_path):
    spec = dynamics.OscillatorSpec(dynamics.constant_rate(1.0),
                                   dynamics.constant_rate(0.0), 0.5, 1e-2)
    traj = dynamics.solve_epsilon_delta(spec)
    path = tmp_path / "trajectory.csv"
    io.write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t,eps_re,eps_im,eps_dot_re,eps_dot_im,"
                        "delta_re,delta_im,wronskian")
    assert len(lines) == 1 + traj.times.size
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 0.5
    assert last[-1] == pytest.approx(1.0, abs=1e-10)


def test_read_slice_reports_malformed_float(tmp_path, sample_slice):
    path = tmp_path / "slice.csv"
    io.write_slice_csv(path, sample_slice)
    lines = path.read_text().splitlines()
    lines[4] = "0.0,not-a-number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"slice\.csv:5: malformed float"):
        io.read_slice_csv(path)


def test_read_slice_reports_bad_column_count(tmp_path, sample_slice):
    path = tmp_path / "slice.csv"
    io.write_slice_csv(path, sample_slice)
    lines = path.read_text().splitlines()
    lines[3] += ",0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="expected 2 columns, got 3"):
        io.read_slice_csv(path)


def test_read_slice_requires_direction_header(tmp_path):
    path = tmp_path / "slice.csv"
    path.write_text("X,density\n0.0,1.0\n")
    with pytest.raises(ParseError, match="mu=<float>"):
        io.read_slice_csv(path)


def test_read_slice_requires_column_header(tmp_path):
    path = tmp_path / "slice.csv"
    path.write_text("# mu=1.0 nu=0.0\nX,rho\n0.0,1.0\n")
    with pytest.raises(ParseError, match="X,density"):
        io.read_slice_csv(path)


def test_read_slice_requires_uniform_grid(tmp_path):
    path = tmp_path / "slice.csv"
    path.write_text("# mu=1.0 nu=0.0\nX,density\n"
                    "0.0,0.2\n1.0,0.3\n2.5,0.5\n")
    with pytest.raises(ParseError, match="uniform ascending"):
        io.read_slice_csv(path)


def test_read_slice_names_its_file_in_content_errors(tmp_path, sample_slice):
    path = tmp_path / "slice_001.csv"
    io.write_slice_csv(path, sample_slice)
    lines = path.read_text().splitlines()
    rows = [f"{x},{2.0 * float(d)!r}" for x, d in
            (line.split(",") for line in lines[2:])]
    path.write_text("\n".join(lines[:2] + rows) + "\n")
    with pytest.raises(InvalidArgumentError) as info:
        io.read_slice_csv(path)
    assert str(info.value).startswith(f"{path}: density integrates to 2.0")


def test_read_wavefunction_names_its_file_in_content_errors(tmp_path, vacuum):
    path = tmp_path / "state.csv"
    io.write_wavefunction_csv(path, vacuum)
    lines = path.read_text().splitlines()
    rows = [f"{x},{2.0 * float(re)!r},{im}" for x, re, im in
            (line.split(",") for line in lines[1:])]
    path.write_text("\n".join(lines[:1] + rows) + "\n")
    with pytest.raises(InvalidArgumentError) as info:
        io.read_wavefunction_csv(path)
    assert str(info.value).startswith(f"{path}: amplitudes not normalized")


def test_read_wavefunction_requires_column_header(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("x,re,im\n0.0,1.0,0.0\n")
    with pytest.raises(ParseError, match="x,real,imag"):
        io.read_wavefunction_csv(path)


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("x,real,imag\n")
    with pytest.raises(ParseError, match="no data rows"):
        io.read_wavefunction_csv(path)


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    io.atomic_write_text(path, "first\n")
    io.atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_atomic_write_takes_the_mode_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("plain\n")
        io.atomic_write_text(tmp_path / "atomic.txt", "atomic\n")
    finally:
        os.umask(previous)
    want = os.stat(tmp_path / "plain.txt").st_mode
    assert os.stat(tmp_path / "atomic.txt").st_mode == want == 0o100666 & ~umask


def test_sha256_of_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(b"tomokit checksum probe")
    want = hashlib.sha256(b"tomokit checksum probe").hexdigest()
    assert io.sha256_of(path) == want


def test_write_json_sorted_with_trailing_newline(tmp_path):
    path = tmp_path / "report.json"
    io.write_json(path, {"zeta": 1, "alpha": {"finite": 0.5}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"finite": 0.5}}


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
def test_write_json_refuses_what_json_cannot_hold(tmp_path, value):
    with pytest.raises(ValueError):
        io.write_json(tmp_path / "report.json", {"condition_estimate": value})
    assert not os.listdir(tmp_path)


# -0.0, subnormals, the largest magnitudes and ordinary values
_SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308])
_SUBNORMAL = st.floats(-2.2e-308, 2.2e-308)
_ORDINARY = st.floats(-1e3, 1e3)
_ANY = _SPECIAL | _SUBNORMAL | _ORDINARY
_SMALL = st.sampled_from([-0.0, 0.0, 5e-324]) | _SUBNORMAL | _ORDINARY


@st.composite
def _tables(draw):
    """One of the three writers, an object for it holding drawn values,
    and the header lines it must write."""
    kind = draw(st.sampled_from(["slice", "wavefunction", "trajectory"]))
    n = draw(st.integers(2, 12))
    x_min = draw(_ANY.filter(lambda v: abs(v) <= 1e308))
    if kind == "slice":
        grid = core.SpatialGrid(x_min, draw(st.floats(1e-3, 10.0)), n)
        assume(np.all(np.isfinite(grid.points)))
        mu, nu = draw(_ANY), draw(_ANY)
        assume(not mu == nu == 0.0)
        # tiny entries add nothing to the unit integral of the rest
        tiny = draw(st.lists(st.sampled_from([-0.0, 0.0, 5e-324]) | st.floats(0.0, 2.2e-308),
                             min_size=n, max_size=n))
        mass = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
        keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assume(keep.any())
        d = np.where(keep, mass / (mass[keep].sum() * grid.dx), tiny)
        s = transform.TomogramSlice(mu, nu, grid, d)
        head = [f"# mu={float(s.mu)!r} nu={float(s.nu)!r}", "X,density"]
        return io.write_slice_csv, s, head, (grid.points, s.density)
    if kind == "wavefunction":
        grid = core.SpatialGrid(x_min, draw(st.floats(1e-3, 10.0)), n)
        assume(np.all(np.isfinite(grid.points)))
        parts = np.array(draw(st.lists(_SMALL, min_size=2 * n, max_size=2 * n)))
        assume(np.any(np.abs(parts) >= 1e-3))
        psi = core.WaveFunction(grid, parts[:n] + 1j * parts[n:])
        a = psi.amplitudes
        return io.write_wavefunction_csv, psi, ["x,real,imag"], (grid.points, a.real, a.imag)
    times = sorted(draw(st.lists(_ANY, min_size=n, max_size=n, unique=True)))
    eps, epsd = (np.array(draw(st.lists(_SMALL, min_size=2 * n, max_size=2 * n)))
                 for _ in range(2))
    delta = np.array(draw(st.lists(_ANY, min_size=2 * n, max_size=2 * n)))
    eps, epsd, delta = eps[:n] + 1j * eps[n:], epsd[:n] + 1j * epsd[n:], delta[:n] + 1j * delta[n:]
    eps[0], epsd[0], delta[0] = 1.0, 1j, complex(-0.0, 0.0)
    traj = dynamics.OscillatorTrajectory(times, eps, epsd, delta)
    head = ["t,eps_re,eps_im,eps_dot_re,eps_dot_im,delta_re,delta_im,wronskian"]
    columns = (traj.times, traj.epsilon.real, traj.epsilon.imag, traj.epsilon_dot.real,
               traj.epsilon_dot.imag, traj.delta.real, traj.delta.imag, traj.wronskian())
    return io.write_trajectory_csv, traj, head, columns


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_writers_match_the_row_formatter_oracle(table):
    write, obj, head, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write(path, obj)
        with open(path, "rb") as fh:
            got = fh.read()
    assert got == oracles.csv_text(head, *columns).encode()

import contextlib
import errno
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
from io import StringIO

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tomokit import cli, core, errors, io, transform


def run(*args) -> int:
    return cli.main(list(args))


def manifest_of(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


def simulate_vacuum(outdir, *directions, extra=()):
    args = ["simulate", "--state=vacuum", "--grid=-12,12,2049",
            f"--out={outdir}"]
    args += [f"--direction={m},{n}" for m, n in directions]
    args += list(extra)
    return cli.main(args)


# ---------------------------------------------------------------- simulate


def test_simulate_writes_slices_and_manifest(tmp_path):
    out = tmp_path / "sim"
    assert simulate_vacuum(out, (1.0, 0.0), (0.6, 0.8)) == 0
    man = manifest_of(out)
    assert man["command"] == "simulate"
    assert man["directions"] == [[1.0, 0.0], [0.6, 0.8]]
    assert sorted(man["files"]) == ["slice_000.csv", "slice_001.csv"]
    for name, digest in man["files"].items():
        assert io.sha256_of(out / name) == digest
    assert "created_at" in man
    s = io.read_slice_csv(out / "slice_000.csv")
    mid = s.grid.n_points // 2
    assert s.grid.points[mid] == 0.0
    assert abs(s.density[mid] - 1.0 / np.sqrt(np.pi)) < 1e-6


def test_simulate_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert simulate_vacuum(a, (1.0, 0.0), (0.7, 0.7)) == 0
    assert simulate_vacuum(b, (1.0, 0.0), (0.7, 0.7)) == 0
    for name in ("slice_000.csv", "slice_001.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma, mb = manifest_of(a), manifest_of(b)
    ma.pop("created_at"), mb.pop("created_at")
    assert ma == mb


def test_simulate_noise_is_seeded(tmp_path):
    outs = [tmp_path / n for n in ("a", "b", "c")]
    for out, seed in zip(outs, (7, 7, 8)):
        assert simulate_vacuum(out, (1.0, 0.0),
                               extra=["--noise=1e-4", f"--seed={seed}"]) == 0
    same = [(o / "slice_000.csv").read_bytes() for o in outs]
    assert same[0] == same[1]
    assert same[0] != same[2]


# 1e307 overflows the noisy slice's integral; 1e308 overflows the noise
# factor itself, which times a tail that underflowed to 0 is nan.
@pytest.mark.parametrize("state, noise", [("vacuum", "nan"), ("vacuum", "1e307"),
                                          ("vacuum", "1e308"),
                                          ("gaussian:0,0,0.3", "1e308")])
def test_simulate_bad_noise_exits_2(tmp_path, capsys, state, noise):
    out = tmp_path / "out"
    assert cli.main(["simulate", f"--state={state}", "--direction=1,0",
                     f"--noise={noise}", f"--out={out}"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR invalid-argument: --noise")
    assert not out.exists()


def test_simulate_requires_directions(tmp_path, capsys):
    assert simulate_vacuum(tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR invalid-argument: ")


def test_simulate_unresolvable_grid_exits_4(tmp_path, capsys):
    rc = run("simulate", "--state=vacuum", "--grid=-12,12,128",
             "--direction=8,0.05", f"--out={tmp_path / 'out'}")
    assert rc == 4
    assert "n_points" in capsys.readouterr().err


@pytest.mark.parametrize("grid, state, direction", [
    # 2^49 wavenumbers, 8 PiB: no address space maps them, so none are allocated
    ("-1e-5,1e-5,2048", "gaussian:0,0,1e-6", "1e-14,1e-14"),
    # 2^76 wavenumbers: numpy refuses the shape before any allocation
    ("-1e-9,1e-9,2048", "gaussian:0,0,1e-10", "1e-30,1e-30"),
])
def test_simulate_padding_beyond_memory_exits_4(tmp_path, capsys, grid, state, direction):
    out = tmp_path / "out"
    assert run("simulate", f"--grid={grid}", f"--state={state}", "--direction=1,0",
               f"--direction={direction}", f"--out={out}") == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR resolution-error: near-axis padding")
    assert "does not fit in memory" in line
    assert not out.exists()


def test_simulate_grid_beyond_memory_exits_2(tmp_path, capsys):
    # 1e12 points, 7.28 TiB: numpy refuses the grid's array before any
    # allocation, and the verb prints one line instead of a traceback
    out = tmp_path / "big"
    assert run("simulate", "--state=vacuum", "--grid=-12,12,1000000000000",
               "--direction=1,0", f"--out={out}") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR invalid-argument: the simulate request does not "
                           "fit in memory: Unable to allocate 7.28 TiB")
    assert not out.exists()


def test_simulate_unknown_state_exits_2(tmp_path, capsys):
    rc = run("simulate", "--state=thermal:3", "--direction=1,0",
             f"--out={tmp_path / 'out'}")
    assert rc == 2
    assert "neither a preset" in capsys.readouterr().err


# ---------------------------------------------------------------- reconstruct


def two_bump_csv(tmp_path, phi):
    grid = core.make_grid(-12.0, 12.0, 2048)
    x = grid.points
    amps = (np.exp(-(x + 2.5) ** 2 / (2 * 0.15))
            + 0.8 * np.exp(1j * phi) * np.exp(-(x - 2.5) ** 2 / (2 * 0.15)))
    psi = core.WaveFunction(grid, amps)
    path = tmp_path / "truth.csv"
    io.write_wavefunction_csv(path, psi)
    return path


def test_reconstruct_round_trip_with_fidelity(tmp_path):
    truth = two_bump_csv(tmp_path, 2.5)
    sim = tmp_path / "sim"
    rc = run("simulate", f"--state={truth}", "--direction=1,0",
             "--direction=0.7,0.7", "--direction=-0.6,0.8", f"--out={sim}")
    assert rc == 0
    rec = tmp_path / "rec"
    assert run("reconstruct", f"--in={sim}", f"--truth={truth}",
               f"--out={rec}") == 0
    with open(rec / "reconstruction.json") as fh:
        report = json.load(fh)
    assert report["status"] == "ok"
    assert report["phases"][0] == 0.0
    diff = (report["phases"][1] - report["phases"][0]) % (2 * np.pi)
    assert abs(diff - 2.5) < 1e-6
    assert report["fidelity"] > 0.99999
    assert manifest_of(rec)["command"] == "reconstruct"


def test_reconstruct_near_axis_extra_exits_5(tmp_path, capsys):
    truth = two_bump_csv(tmp_path, 2.5)
    sim = tmp_path / "sim"
    assert run("simulate", f"--state={truth}", "--direction=1,0",
               "--direction=0.995,0.0998", f"--out={sim}") == 0
    rec = tmp_path / "rec"
    assert run("reconstruct", f"--in={sim}", f"--truth={truth}",
               f"--out={rec}") == 5
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR insufficient-data: ")
    with open(rec / "reconstruction.json") as fh:
        assert json.load(fh)["status"] == "insufficient-data"


def test_reconstruct_piecewise_method(tmp_path):
    truth = two_bump_csv(tmp_path, 1.2)
    sim = tmp_path / "sim"
    assert run("simulate", f"--state={truth}", "--direction=1,0",
               "--direction=0.7,0.7", "--direction=-0.6,0.8",
               f"--out={sim}") == 0
    rec = tmp_path / "rec"
    assert run("reconstruct", f"--in={sim}", "--method=piecewise",
               "--breakpoints=0", f"--out={rec}") == 0
    with open(rec / "reconstruction.json") as fh:
        report = json.load(fh)
    diff = (report["phases"][1] - report["phases"][0]) % (2 * np.pi)
    assert abs(diff - 1.2) < 1e-6


def test_reconstruct_insufficient_data_still_writes_report(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "--state=fock:2", "--direction=1,0",
               f"--out={sim}") == 0
    rec = tmp_path / "rec"
    assert run("reconstruct", f"--in={sim}", f"--out={rec}") == 5
    assert "ERROR insufficient-data" in capsys.readouterr().err
    with open(rec / "reconstruction.json") as fh:
        report = json.load(fh)
    assert report == {"phases": [], "residual": None,
                      "condition_estimate": None,
                      "status": "insufficient-data"}


def test_reconstruct_requires_position_slice(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (0.0, 1.0)) == 0
    assert run("reconstruct", f"--in={sim}", f"--out={tmp_path / 'rec'}") == 2
    assert "no position slice" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


def test_reconstruct_piecewise_needs_breakpoints(tmp_path):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0)) == 0
    assert run("reconstruct", f"--in={sim}", "--method=piecewise",
               f"--out={tmp_path / 'rec'}") == 2
    assert not (tmp_path / "rec").exists()


def test_reconstruct_failing_fit_writes_nothing(tmp_path, capsys):
    # an extra slice at so short a direction that the transform's kernel
    # oscillates faster than the grid can sample
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0)) == 0
    pos = io.read_slice_csv(sim / "slice_000.csv")
    io.write_slice_csv(sim / "slice_001.csv",
                       transform.TomogramSlice(0.006, 0.008, pos.grid, pos.density))
    capsys.readouterr()
    assert run("reconstruct", f"--in={sim}", "--breakpoints=0",
               f"--out={tmp_path / 'rec'}") == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR resolution-error: kernel at (mu=0.006, nu=0.008) ")
    assert not (tmp_path / "rec").exists()


FOCK_DIRECTIONS = ("--direction=1,0", "--direction=0.6,0.8",
                   "--direction=-0.6,0.8", "--direction=0.3,0.95")


def simulate_fock(tmp_path, n):
    """Slices of fock:n on the default grid and its wavefunction CSV."""
    truth, sim = tmp_path / f"fock{n}.csv", tmp_path / f"sim{n}"
    io.write_wavefunction_csv(
        truth, core.sample_state(core.FockPreset(n), core.default_grid()))
    assert run("simulate", f"--state=fock:{n}", *FOCK_DIRECTIONS,
               f"--out={sim}") == 0
    return sim, truth


@pytest.mark.parametrize("n, flags", [
    (1, ()), (2, ()), (3, ()),
    (1, ("--method=piecewise", "--breakpoints=0")),
    (2, ("--method=piecewise",
         "--breakpoints=-0.7071067811865476,0.7071067811865476")),
])
def test_reconstruct_fock_states_on_the_default_grid(tmp_path, n, flags):
    # cuts at the nodes leave kinked segments whose transforms ring past
    # the grid edge; the rows of the fit are exact samples all the same
    sim, truth = simulate_fock(tmp_path, n)
    rec = tmp_path / "rec"
    assert run("reconstruct", f"--in={sim}", f"--truth={truth}", *flags,
               f"--out={rec}") == 0
    with open(rec / "reconstruction.json") as fh:
        report = json.load(fh)
    assert report["status"] == "ok"
    assert len(report["phases"]) == n + 1
    assert report["fidelity"] >= 0.999


@pytest.mark.parametrize("method", ["nodes", "piecewise"])
def test_reconstruct_fock_cut_off_its_node_exits_5(tmp_path, capsys, method):
    # the sign change of fock:1 falls inside a segment: no phase per
    # segment fits the slices, and the residual says so
    sim, _ = simulate_fock(tmp_path, 1)
    capsys.readouterr()
    rec = tmp_path / "rec"
    assert run("reconstruct", f"--in={sim}", f"--method={method}",
               "--breakpoints=0.5", f"--out={rec}") == 5
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR inconsistent-tomograms: least-squares residual")
    with open(rec / "reconstruction.json") as fh:
        assert json.load(fh)["status"] == "inconsistent-tomograms"


def test_reconstruct_one_segment_contradicted_by_extra_exits_5(tmp_path, capsys):
    # no node in a moving packet, and its oblique slice rules out a real
    # one-segment state: the fit must say so instead of returning "ok"
    sim, rec = tmp_path / "sim", tmp_path / "rec"
    assert run("simulate", "--state=gaussian:0.5,1,0.7", "--direction=1,0",
               "--direction=0.6,0.8", f"--out={sim}") == 0
    capsys.readouterr()
    assert run("reconstruct", f"--in={sim}", f"--out={rec}") == 5
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR inconsistent-tomograms: ")
    with open(rec / "reconstruction.json") as fh:
        assert json.load(fh) == {"phases": [], "residual": None,
                                 "condition_estimate": None,
                                 "status": "inconsistent-tomograms"}


def test_reconstruct_missed_node_is_not_ok(tmp_path, capsys):
    # on this coarse grid detect_nodes misses the node of fock:1, and the
    # one-segment fit that follows must fail rather than pass silently
    sim = tmp_path / "sim"
    assert run("simulate", "--state=fock:1", "--grid=-12,12,512",
               "--direction=1,0", "--direction=0.6,0.8", f"--out={sim}") == 0
    capsys.readouterr()
    assert run("reconstruct", f"--in={sim}", f"--out={tmp_path / 'rec'}") != 0
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR ")


def strict_json(path):
    """json.load that refuses NaN and Infinity, which JSON has no word for."""
    def refuse(word):
        raise ValueError(f"{path}: {word} is not JSON")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_singular_fit_writes_a_null_condition_estimate(tmp_path):
    # cuts at 8 and 9 leave two segments where vacuum has next to no
    # amplitude: the fit is singular, still reported, and its infinite
    # condition estimate is written as null
    sim, rec = tmp_path / "sim", tmp_path / "rec"
    assert run("simulate", "--state=vacuum", "--direction=1,0",
               "--direction=0.6,0.8", "--direction=-0.6,0.8", f"--out={sim}") == 0
    assert run("reconstruct", f"--in={sim}", "--breakpoints=8,9", f"--out={rec}") == 0
    report = strict_json(rec / "reconstruction.json")
    assert report["status"] == "ill-conditioned"
    assert report["condition_estimate"] is None
    strict_json(rec / "manifest.json")


def test_reconstruct_unordered_breakpoints_exits_2(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.7, 0.7), (0.6, -0.8)) == 0
    assert run("reconstruct", f"--in={sim}", "--method=piecewise",
               "--breakpoints=0,0", f"--out={tmp_path / 'rec'}") == 2
    assert capsys.readouterr().err.startswith(
        "ERROR invalid-argument: --breakpoints")


def parse_error(capsys) -> str:
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR parse-error: ")
    return line


def test_reconstruct_non_utf8_slice_exits_3(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0)) == 0
    path = sim / "slice_000.csv"
    path.write_bytes(path.read_bytes().replace(b"X,density", b"X,dens\xefty"))
    assert run("reconstruct", f"--in={sim}", f"--out={tmp_path / 'rec'}") == 3
    assert "slice_000.csv:2: " in parse_error(capsys)


@pytest.mark.parametrize("lineno, text", [
    (1, "# mu=1.0 nu=inf"),
    (1027, "0.0,nan"),
])
def test_reconstruct_non_finite_slice_exits_3(tmp_path, capsys, lineno, text):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0)) == 0
    path = sim / "slice_000.csv"
    lines = path.read_text().splitlines()
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")
    assert run("reconstruct", f"--in={sim}", f"--out={tmp_path / 'rec'}") == 3
    assert f"slice_000.csv:{lineno}: non-finite number" in parse_error(capsys)


@pytest.mark.parametrize("verb", ["reconstruct", "measure"])
def test_slice_of_infinite_width_exits_3(tmp_path, capsys, verb):
    # x = -1e308, 0, 1e308 is uniform, but its width overflows
    sim = tmp_path / "sim"
    sim.mkdir()
    (sim / "slice_000.csv").write_text(
        "# mu=1.0 nu=0.0\nX,density\n-1e308,0.0\n0.0,1e-308\n1e308,0.0\n")
    assert run(verb, f"--in={sim}", f"--out={tmp_path / 'out'}") == 3
    assert "slice_000.csv: x column is not a uniform ascending" in parse_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["reconstruct", "measure"])
def test_slice_content_error_names_its_file(tmp_path, capsys, verb):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.6, 0.8), (0.8, -0.6)) == 0
    path = sim / "slice_001.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + [
        f"{x},{2.0 * float(d)!r}" for x, d in (line.split(",") for line in lines[2:])
    ]) + "\n")
    capsys.readouterr()
    assert run(verb, f"--in={sim}", f"--out={tmp_path / 'out'}") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"ERROR invalid-argument: {path}: density integrates to 2.0")


def test_reconstruct_corrupt_slice_exits_3(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0)) == 0
    path = sim / "slice_000.csv"
    path.write_text(path.read_text() + "oops\n")
    assert run("reconstruct", f"--in={sim}", f"--out={tmp_path / 'rec'}") == 3
    assert "slice_000.csv:2052" in capsys.readouterr().err


# ---------------------------------------------------------------- measure


def test_measure_position_momentum_report(tmp_path):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.0, 1.0)) == 0
    out = tmp_path / "meas"
    assert run("measure", f"--in={sim}", f"--out={out}") == 0
    with open(out / "completeness.json") as fh:
        report = json.load(fh)
    assert report["regime"] == "position-and-momentum"
    assert report["value"]["finite"] == pytest.approx(0.0, abs=1e-6)
    assert report["purity_assumed"] is False
    assert manifest_of(out)["command"] == "measure"


def test_measure_three_directions_with_purity(tmp_path):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)) == 0
    out = tmp_path / "meas"
    assert run("measure", f"--in={sim}", "--assume-pure", f"--out={out}") == 0
    with open(out / "completeness.json") as fh:
        report = json.load(fh)
    assert report["regime"] == "three-or-more"
    assert report["value"] == {"finite": 0.0}
    assert report["purity_assumed"] is True


def test_measure_three_directions_without_purity_exits_2(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)) == 0
    assert run("measure", f"--in={sim}", f"--out={tmp_path / 'meas'}") == 2
    assert "ERROR unsupported" in capsys.readouterr().err


def test_measure_refuses_purity_for_mixed_slices(tmp_path, capsys):
    sim, out = tmp_path / "sim", tmp_path / "meas"
    sim.mkdir()
    mixed = transform.GaussianState(1.0, 1.0, 0.0)
    for i, (mu, nu) in enumerate(((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))):
        io.write_slice_csv(sim / f"slice_{i:03d}.csv",
                           transform.tomogram_gaussian(mixed, mu, nu, core.default_grid()))
    assert run("measure", f"--in={sim}", "--assume-pure", f"--out={out}") == 5
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR model-mismatch: ")
    assert "the slices contradict the purity assumption" in line
    assert not out.exists()


@pytest.mark.parametrize("verb", ["reconstruct", "measure"])
def test_unreadable_slice_file_exits_3(tmp_path, capsys, verb):
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.0, 1.0)) == 0
    (sim / "slice_009.csv").mkdir()
    assert run(verb, f"--in={sim}", f"--out={out}") == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"ERROR parse-error: {sim / 'slice_009.csv'}: cannot be read: ")
    assert not out.exists()


@pytest.mark.parametrize("header", ["# mu=1e155 nu=0.0",      # mu ** 2 overflows
                                    "# mu=1e154 nu=1e154"])  # 2 mu nu overflows
def test_measure_overflowing_direction_exits_2(tmp_path, capsys, header):
    sim, out = tmp_path / "sim", tmp_path / "meas"
    assert simulate_vacuum(sim, (1.0, 0.0)) == 0
    path = sim / "slice_000.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(header + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert run("measure", f"--in={sim}", f"--out={out}") == 2
    [line] = capsys.readouterr().err.splitlines()
    mu, nu = header[2:].replace("mu=", "").replace("nu=", "").split()
    assert line.startswith("ERROR invalid-argument: ")
    assert f"direction ({float(mu)!r}, {float(nu)!r})" in line
    assert not out.exists()


@pytest.mark.parametrize("verb", ["reconstruct", "measure"])
def test_only_slice_underscore_files_are_read(tmp_path, verb):
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.0, 1.0), (0.6, 0.8)) == 0
    (sim / "slices.csv").write_text("not a slice\n")
    (sim / "slice.csv").write_text("not a slice either\n")
    flags = ["--breakpoints=0"] if verb == "reconstruct" else ["--assume-pure"]
    assert run(verb, f"--in={sim}", *flags, f"--out={tmp_path / 'out'}") == 0


def test_measure_empty_directory_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("measure", f"--in={empty}", f"--out={tmp_path / 'meas'}") == 2


def test_measure_missing_directory_exits_2(tmp_path):
    assert run("measure", f"--in={tmp_path / 'nope'}",
               f"--out={tmp_path / 'meas'}") == 2


# ---------------------------------------------------------------- evolve


def test_evolve_writes_trajectory_and_recoveries(tmp_path):
    out = tmp_path / "evo"
    rc = run("evolve", "--omega=constant:1", "--t-max=1", "--dt=1e-3",
             "--state=vacuum", "--grid=-12,12,2049", "--recover-at=0,1",
             f"--out={out}")
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 1001
    wronskian = [abs(float(l.split(",")[-1]) - 1.0) for l in lines[1:]]
    assert max(wronskian) < 1e-10
    man = manifest_of(out)
    assert man["recovered"] == [{"file": "recovered_000.csv", "time": 0.0},
                                {"file": "recovered_001.csv", "time": 1.0}]
    grid = core.make_grid(-12.0, 12.0, 2049)
    vac = core.sample_state(core.GaussianPreset(), grid)
    rec0 = io.read_slice_csv(out / "recovered_000.csv")
    assert (rec0.mu, rec0.nu) == (1.0, 0.0)
    assert np.max(np.abs(rec0.density - vac.density())) < 1e-10
    rec1 = io.read_slice_csv(out / "recovered_001.csv")
    assert abs(rec1.mu - np.cos(1.0)) < 1e-9
    assert abs(rec1.nu - np.sin(1.0)) < 1e-9
    ref = transform.tomogram(vac, rec1.mu, rec1.nu)
    assert np.max(np.abs(rec1.density - ref.density)) < 5e-4


def test_evolve_coarse_step_exits_4(tmp_path, capsys):
    rc = run("evolve", "--omega=constant:5", "--t-max=1", "--dt=1",
             f"--out={tmp_path / 'evo'}")
    assert rc == 4
    assert "ERROR step-size-too-large" in capsys.readouterr().err


def test_evolve_recovery_needs_constant_omega(tmp_path, capsys):
    rc = run("evolve", "--omega=linear-ramp:1,0.1", "--t-max=1", "--dt=1e-3",
             "--state=vacuum", "--recover-at=0.5", f"--out={tmp_path / 'evo'}")
    assert rc == 2
    assert "constant" in capsys.readouterr().err


def test_evolve_recovery_time_out_of_range(tmp_path, capsys):
    rc = run("evolve", "--omega=constant:1", "--t-max=1", "--dt=1e-3",
             "--state=vacuum", "--recover-at=2", f"--out={tmp_path / 'evo'}")
    assert rc == 2
    assert "ERROR out-of-range" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--omega=linear-ramp:1,0.1", "--state=vacuum", "--recover-at=0.3"],
    ["--omega=constant:1", "--force=constant:0.5", "--state=vacuum",
     "--recover-at=0.3"],
    ["--omega=constant:1", "--recover-at=0.3"],
    ["--omega=constant:1", "--state=vacuum", "--recover-at=2"],
    ["--omega=constant:1", "--state=vacuum", "--recover-at=nan"],
])
def test_evolve_bad_recovery_writes_nothing(tmp_path, capsys, flags):
    out = tmp_path / "evo"
    assert run("evolve", "--t-max=1", "--dt=1e-3", *flags, f"--out={out}") == 2
    assert capsys.readouterr().err.startswith("ERROR ")
    assert not (out / "trajectory.csv").exists()


def test_evolve_undersampled_state_exits_4(tmp_path, capsys):
    out = tmp_path / "evo"
    rc = run("evolve", "--omega=constant:1", "--t-max=1", "--dt=1e-3",
             "--state=vacuum", "--recover-at=0.3", "--grid=-12,12,16",
             f"--out={out}")
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR resolution-error: ")
    assert not (out / "trajectory.csv").exists()


def test_evolve_undersampled_state_file_exits_4(tmp_path, capsys):
    grid = core.make_grid(-12.0, 12.0, 16)
    path = tmp_path / "vac16.csv"
    io.write_wavefunction_csv(
        path, core.WaveFunction(grid, np.exp(-grid.points ** 2 / 4.0) + 0j))
    out = tmp_path / "evo"
    rc = run("evolve", "--omega=constant:1", "--t-max=1", "--dt=1e-3",
             f"--state={path}", "--grid=-12,12,16", "--recover-at=0.3",
             f"--out={out}")
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR resolution-error: ")
    assert "of the spectral energy" in err[0]
    assert not out.exists()


def test_edge_cut_state_file_warns_as_its_preset_does(tmp_path):
    # a Gaussian of sigma 1.6 on [-12, 12] keeps 7.8e-7 of its peak at the edge
    with pytest.warns(core.BoundaryLeakWarning):
        psi = core.sample_state(core.GaussianPreset(sigma=1.6), core.default_grid())
    path = tmp_path / "wide.csv"
    io.write_wavefunction_csv(path, psi)
    outs = []
    for state, what in [("gaussian:0,0,1.6", "sample_state"), (str(path), "state file")]:
        outs.append(tmp_path / f"out{len(outs)}")
        with pytest.warns(core.BoundaryLeakWarning, match=f"^{what}.* boundary "
                          r"amplitude 7\.81e-07 of peak") as record:
            assert run("simulate", f"--state={state}", "--direction=1,0",
                       "--direction=0.6,0.8", f"--out={outs[-1]}") == 0
        assert len(record) == 1
    # the file state is used as read, so its slices are the preset's
    for name in ("slice_000.csv", "slice_001.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_edge_cut_truth_file_warns_as_its_state_file_does(tmp_path):
    # --truth reads its file through the rule --state reads it through
    with pytest.warns(core.BoundaryLeakWarning):
        psi = core.sample_state(core.GaussianPreset(sigma=1.6), core.default_grid())
    path, sim, rec = tmp_path / "wide.csv", tmp_path / "sim", tmp_path / "rec"
    io.write_wavefunction_csv(path, psi)
    with pytest.warns(core.BoundaryLeakWarning, match="^state file"):
        assert run("simulate", f"--state={path}", "--direction=1,0",
                   "--direction=0.6,0.8", f"--out={sim}") == 0
    with pytest.warns(core.BoundaryLeakWarning, match=f"^truth file {str(path)!r}: "
                      r"boundary amplitude 7\.81e-07 of peak") as record:
        assert run("reconstruct", f"--in={sim}", f"--truth={path}", f"--out={rec}") == 0
    assert len(record) == 1
    with open(rec / "reconstruction.json") as fh:
        assert json.load(fh)["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_fidelity_is_a_probability(tmp_path):
    # this truth file's overlap with its own reconstruction rounds to
    # 1.0000000000000004; the report clamps it to 1
    with pytest.warns(core.BoundaryLeakWarning):
        psi = core.sample_state(core.GaussianPreset(sigma=1.6), core.default_grid())
    path, sim, rec = tmp_path / "wide.csv", tmp_path / "sim", tmp_path / "rec"
    io.write_wavefunction_csv(path, psi)
    with pytest.warns(core.BoundaryLeakWarning):
        assert run("simulate", f"--state={path}", "--direction=1,0",
                   "--direction=0.6,0.8", f"--out={sim}") == 0
        assert run("reconstruct", f"--in={sim}", f"--truth={path}", f"--out={rec}") == 0
    with open(rec / "reconstruction.json") as fh:
        assert json.load(fh)["fidelity"] == 1.0


def test_aliased_truth_file_exits_4(tmp_path, capsys):
    # vacuum plus 1e-2 of it at the Nyquist frequency: 1e-4 of the
    # spectral energy in the upper half of the band
    grid = core.default_grid()
    vac = core.sample_state(core.GaussianPreset(), grid).amplitudes
    path, sim, rec = tmp_path / "alias.csv", tmp_path / "sim", tmp_path / "rec"
    io.write_wavefunction_csv(path, core.WaveFunction(
        grid, vac * (1.0 + 1e-2 * (-1.0) ** np.arange(grid.n_points))))
    assert run("simulate", "--state=vacuum", "--direction=1,0", "--direction=0.6,0.8",
               f"--out={sim}") == 0
    capsys.readouterr()
    assert run("reconstruct", f"--in={sim}", f"--truth={path}", f"--out={rec}") == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"ERROR resolution-error: truth file {str(path)!r}: ")
    assert "of the spectral energy" in line
    assert not rec.exists()


def test_truth_file_on_another_grid_exits_2(tmp_path, capsys):
    path, sim, rec = tmp_path / "vac.csv", tmp_path / "sim", tmp_path / "rec"
    io.write_wavefunction_csv(path, core.sample_state(
        core.GaussianPreset(), core.make_grid(-12.0, 12.0, 2048)))
    assert simulate_vacuum(sim, (1.0, 0.0), (0.6, 0.8)) == 0
    capsys.readouterr()
    assert run("reconstruct", f"--in={sim}", f"--truth={path}", f"--out={rec}") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR invalid-argument: the slices' grid -12.0,12.0,2049 "
                           "does not describe the grid -12.0,12.0,2048 of truth file "
                           f"{str(path)!r}")
    assert "--grid" not in line
    assert not rec.exists()


@pytest.mark.parametrize("verb", [
    ["simulate", "--direction=1,0"],
    ["evolve", "--omega=constant:1", "--t-max=1", "--dt=1e-3", "--recover-at=0.5"],
])
@pytest.mark.parametrize("grid", ["-20,20,512", "-12,12,2049", "-12.5,12,2048"])
def test_state_file_with_another_grid_exits_2(tmp_path, capsys, verb, grid):
    path = tmp_path / "vac.csv"
    io.write_wavefunction_csv(path, core.sample_state(
        core.GaussianPreset(), core.default_grid()))
    out = tmp_path / "out"
    assert run(*verb, f"--state={path}", f"--grid={grid}", f"--out={out}") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR invalid-argument: ")
    assert f"--grid={','.join(repr(float(v)) for v in grid.split(',')[:2])}" in line
    assert "-12.0,12.0,2048 of state file" in line
    assert not out.exists()


@settings(max_examples=20, deadline=None)
@given(x_min=st.floats(-25.0, -8.0), x_max=st.floats(8.0, 40.0),
       n=st.integers(128, 512))
# the x column read back gives x_max 1.4e-14 below the grid's
@example(x_min=-20.450794931652528, x_max=37.0967586618, n=227)
def test_state_file_accepts_the_grid_it_was_written_on(tmp_path_factory, x_min,
                                                       x_max, n):
    assume((x_max - x_min) / (n - 1) <= 0.3)
    root = tmp_path_factory.mktemp("grid")
    text = f"{x_min!r},{x_max!r},{n}"
    grid = cli._parse_grid(text)
    io.write_wavefunction_csv(root / "vac.csv",
                              core.sample_state(core.GaussianPreset(), grid))
    assert run("simulate", f"--state={root / 'vac.csv'}", f"--grid={text}",
               "--direction=1,0", f"--out={root / 'out'}") == 0
    assert io.read_slice_csv(root / "out" / "slice_000.csv").grid.n_points == n


def test_truth_file_on_the_slices_grid_scores_fidelity(tmp_path):
    # the slices' grid, rebuilt from their x column, differs from the truth
    # file's in the last bit of dx; both are one grid within 1e-9 of the width
    x = np.linspace(-24.584947503338935, 34.48696803951204, 2553)
    amps = np.exp(-0.5 * (x - 5.0) ** 2)
    amps /= np.sqrt(np.sum(amps ** 2) * (x[1] - x[0]))
    truth = tmp_path / "truth.csv"
    truth.write_text("x,real,imag\n" + "".join(
        f"{a!r},{b!r},0.0\n" for a, b in zip(x.tolist(), amps.tolist())))
    sim, rec = tmp_path / "sim", tmp_path / "rec"
    assert run("simulate", f"--state={truth}", "--direction=1,0",
               "--direction=0.6,0.8", f"--out={sim}") == 0
    assert (io.read_slice_csv(sim / "slice_000.csv").grid
            != io.read_wavefunction_csv(truth).grid)
    assert run("reconstruct", f"--in={sim}", f"--truth={truth}", f"--out={rec}") == 0
    with open(rec / "reconstruction.json") as fh:
        assert json.load(fh)["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_evolve_history_failure_writes_nothing(tmp_path, capsys):
    # a squeezed state spreads past [-6, 6] under the slow oscillator
    out = tmp_path / "evo"
    rc = run("evolve", "--omega=constant:0.1", "--t-max=1", "--dt=1e-3",
             "--state=gaussian:0,0,0.2", "--grid=-6,6,512", "--recover-at=1",
             f"--out={out}")
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR resolution-error: ")
    assert not out.exists()


def test_evolve_lost_wronskian_writes_nothing(tmp_path, capsys):
    out = tmp_path / "evo"
    rc = run("evolve", "--omega=constant:1e200", "--t-max=1", "--dt=1e-3",
             f"--out={out}")
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR step-size-too-large: ")
    assert not out.exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError  # as Python's own allocator raises it, with no message


@pytest.mark.parametrize("argv, module, name, says", [
    # each slice's chirp-z transform: its plan and its work array
    (["simulate", "--state=vacuum", "--grid=-12,12,2049", "--direction=0.6,0.8"],
     "transform", "_transform_samples", "the simulate request does not fit in memory"),
    # the in-place QR of the phase fit's [A | b]
    (["reconstruct", "--in={sim}"], "reconstruct", "_factor",
     "the reconstruct request does not fit in memory"),
    # the step arrays keep solve_epsilon_delta's own refusal, which names dt
    (["evolve", "--omega=constant:1", "--t-max=1", "--dt=0.01"], "dynamics",
     "_step_increments", "100 steps of dt = 0.01 do not fit in memory; raise dt"),
    # the position history that recovered tomograms are read from
    (["evolve", "--omega=constant:1", "--t-max=1", "--dt=0.01", "--state=vacuum",
      "--recover-at=0,1"], "dynamics", "harmonic_position_history",
     "the evolve request does not fit in memory"),
    # each slice's KS check, the measure verb's largest arrays
    (["measure", "--in={sim}"], "completeness", "_ks_distance",
     "the measure request does not fit in memory"),
])
def test_memory_error_is_one_refusal(tmp_path, capsys, monkeypatch, argv, module,
                                     name, says):
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.6, 0.8)) == 0
    monkeypatch.setattr(importlib.import_module(f"tomokit.{module}"), name,
                        _out_of_memory)
    capsys.readouterr()
    assert run(*[a.format(sim=sim) for a in argv], f"--out={out}") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"ERROR invalid-argument: {says}"
    assert not out.exists()


@pytest.mark.parametrize("argv, code, status", [
    (["simulate", "--state=vacuum", "--grid=-12,12,128", "--direction=1,0",
      "--direction=8,0.05"], "resolution-error", 4),
    (["simulate", "--state=thermal:3", "--direction=1,0"], "invalid-argument", 2),
    (["reconstruct", "--in={pos}", "--breakpoints=0"], "insufficient-data", 5),
    (["evolve", "--omega=constant:5", "--t-max=1", "--dt=1"],
     "step-size-too-large", 4),
    (["measure", "--in={empty}"], "invalid-argument", 2),
    (["reconstruct", "--in={empty}"], "invalid-argument", 2),
    (["evolve", "--omega=constant:1", "--t-max=1e300", "--dt=1e-300"],
     "invalid-argument", 2),
    (["evolve", "--omega=constant:1", "--t-max=1e10", "--dt=1e-10"],
     "invalid-argument", 2),
    (["evolve", "--omega=constant:1", "--t-max=1e18", "--dt=1"],
     "invalid-argument", 2),
    (["evolve", "--omega=constant:1", "--force=constant:1e308", "--t-max=1",
      "--dt=1e-3"], "invalid-argument", 2),
    (["evolve", "--omega=cosine-modulated:1,0.2,1e308", "--t-max=2",
      "--dt=1e-3"], "invalid-argument", 2),
    (["simulate", "--state=vacuum", "--grid=-12,12,256",
      "--direction=1e308,1e308"], "resolution-error", 4),
    (["simulate", "--state=gaussian:0,0,1e-170", "--grid=-12,12,256",
      "--direction=1,0"], "invalid-argument", 2),
    (["simulate", "--state=gaussian:0,0,1e-5", "--grid=-12,12,256",
      "--direction=1,0"], "invalid-argument", 2),
    (["simulate", "--state={huge}", "--direction=1,0"], "invalid-argument", 2),
    (["measure", "--in={wide}"], "model-mismatch", 5),
    (["simulate", "--state={vac}", "--grid=-20,20,512", "--direction=1,0"],
     "invalid-argument", 2),
    (["evolve", "--omega=constant:1", "--t-max=1", "--dt=0.01",
      "--state={empty}/missing.csv"], "invalid-argument", 2),
    (["evolve", "--omega=constant:1", "--t-max=1", "--dt=0.01",
      "--grid=-20,20,512"], "invalid-argument", 2),
    (["simulate", "--state=fock:0", "--grid=-1e308,12,256", "--direction=0,1"],
     "resolution-error", 4),
    # the cuts' gap overflows, yet they increase: refused only for want of data
    (["reconstruct", "--in={pos}", "--breakpoints=-1e308,1e308"],
     "insufficient-data", 5),
    # with enough extras, cuts outside the grid leave segments empty
    (["reconstruct", "--in={three}", "--breakpoints=-100,100"],
     "invalid-argument", 2),
    (["reconstruct", "--in={three}", "--breakpoints=-1e308,1e308"],
     "invalid-argument", 2),
    # directions so short that X/mu overflows: no output sample is reached
    (["simulate", "--state=vacuum", "--direction=5e-324,5e-324"],
     "resolution-error", 4),
    (["simulate", "--state=vacuum", "--direction=1e-320,1e-320"],
     "resolution-error", 4),
    # X = 0 is on the grid, but the momentum-side plan's phases overflow
    (["simulate", "--state=vacuum", "--grid=-12,12,2049", "--direction=5e-324,5e-324"],
     "resolution-error", 4),
    (["simulate", "--state=vacuum", "--grid=-12,12,2049", "--direction=1e-306,1e-306"],
     "resolution-error", 4),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_failing_verb_prints_one_error_line(tmp_path, capsys, argv, code, status):
    pos, empty, out = tmp_path / "pos", tmp_path / "empty", tmp_path / "out"
    assert simulate_vacuum(pos, (1.0, 0.0)) == 0
    empty.mkdir()
    three = tmp_path / "three"
    assert simulate_vacuum(three, (1.0, 0.0), (0.6, 0.8), (0.6, -0.8)) == 0
    # a Gaussian slice of width 1e159 on [-1e160, 1e160], whose variance
    # overflows in x * x
    wide = tmp_path / "wide"
    wide.mkdir()
    g = core.make_grid(-1e160, 1e160, 2048)
    d = np.exp(-0.5 * (g.points / 1e159) ** 2)
    io.write_slice_csv(wide / "slice_000.csv",
                       transform.TomogramSlice(1.0, 0.0, g, d / (d.sum() * g.dx)))
    # a vacuum scaled by 1e200, whose squared norm overflows
    huge = tmp_path / "huge.csv"
    x = core.make_grid(-12.0, 12.0, 256).points
    huge.write_text("x,real,imag\n" + "".join(
        f"{float(xi)!r},{1e200 * float(np.exp(-xi * xi / 2.0))!r},0.0\n"
        for xi in x))
    # a default-grid vacuum, which no other --grid describes
    vac = tmp_path / "vac.csv"
    io.write_wavefunction_csv(vac, core.sample_state(core.GaussianPreset(),
                                                     core.default_grid()))
    capsys.readouterr()
    argv = [a.format(pos=pos, empty=empty, huge=huge, wide=wide, vac=vac,
                     three=three) for a in argv]
    assert run(*argv, f"--out={out}") == status
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"ERROR {code}: ")
    if code == "insufficient-data":
        assert os.listdir(out) == ["reconstruction.json"]
    else:
        assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("direction", ["1,5e-324", "5e-324,1"])
def test_direction_with_one_subnormal_component_succeeds(tmp_path, direction):
    assert run("simulate", "--state=vacuum", f"--direction={direction}",
               f"--out={tmp_path / 'out'}") == 0


def test_output_directory_that_cannot_be_created_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = run("simulate", "--state=vacuum", "--grid=-12,12,256",
             "--direction=1,0", f"--out={blocker}/sub")
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR invalid-argument: ")
    assert "cannot be created" in line


# each verb's flags before --out, and one of the outputs it writes; the
# --in directories hold vacuum slices at (1, 0), (0, 1) and (0.6, 0.8)
_VERB_OUTPUT = {
    "simulate": (["simulate", "--state=vacuum", "--grid=-12,12,256", "--direction=1,0",
                  "--direction=0.6,0.8"], "slice_001.csv"),
    "evolve": (["evolve", "--omega=constant:1", "--t-max=1", "--dt=0.01", "--state=vacuum",
                "--grid=-12,12,256", "--recover-at=0,1"], "recovered_001.csv"),
    "measure": (["measure", "--in={sim}", "--assume-pure"], "completeness.json"),
    "reconstruct": (["reconstruct", "--in={sim}"], "reconstruction.json"),
}


@pytest.mark.parametrize("verb", list(_VERB_OUTPUT))
def test_output_name_taken_by_a_directory_exits_2(tmp_path, capsys, verb):
    # every name, the manifest's included, is checked before the first write
    sim = tmp_path / "sim"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.0, 1.0), (0.6, 0.8)) == 0
    argv, own = _VERB_OUTPUT[verb]
    for taken in ("manifest.json", own):
        out = tmp_path / taken
        (out / taken).mkdir(parents=True)
        capsys.readouterr()
        assert run(*[a.format(sim=sim) for a in argv], f"--out={out}") == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"ERROR invalid-argument: output file {str(out / taken)!r} "
                        f"cannot be written: {os.strerror(errno.EISDIR)}")
        assert os.listdir(out) == [taken]


def test_reconstruct_refusal_report_meets_a_taken_name(tmp_path, capsys):
    # the refusal writes its status report and no manifest: a directory in
    # the report's place is the publish error, one in the manifest's is not
    pos = tmp_path / "pos"
    assert simulate_vacuum(pos, (1.0, 0.0)) == 0
    report, manifest = tmp_path / "report", tmp_path / "manifest"
    (report / "reconstruction.json").mkdir(parents=True)
    (manifest / "manifest.json").mkdir(parents=True)
    capsys.readouterr()
    assert run("reconstruct", f"--in={pos}", "--breakpoints=0", f"--out={report}") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"ERROR invalid-argument: output file "
                    f"{str(report / 'reconstruction.json')!r} cannot be written: "
                    f"{os.strerror(errno.EISDIR)}")
    assert os.listdir(report) == ["reconstruction.json"]
    assert run("reconstruct", f"--in={pos}", "--breakpoints=0", f"--out={manifest}") == 5
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR insufficient-data: ")
    assert sorted(os.listdir(manifest)) == ["manifest.json", "reconstruction.json"]
    assert (manifest / "manifest.json").is_dir()
    assert json.loads((manifest / "reconstruction.json").read_text())["status"] == (
        "insufficient-data")


@pytest.mark.parametrize("argv, status, published", [
    (_VERB_OUTPUT["simulate"][0], 0,
     [(["slice_000.csv", "slice_001.csv"],
       {"command": "simulate", "directions": [[1.0, 0.0], [0.6, 0.8]]})]),
    (_VERB_OUTPUT["evolve"][0], 0,
     [(["recovered_000.csv", "recovered_001.csv", "trajectory.csv"],
       {"command": "evolve", "recovered": [{"file": "recovered_000.csv", "time": 0.0},
                                           {"file": "recovered_001.csv", "time": 1.0}]})]),
    (_VERB_OUTPUT["measure"][0], 0, [(["completeness.json"], {"command": "measure"})]),
    (_VERB_OUTPUT["reconstruct"][0], 0,
     [(["reconstruction.json"], {"command": "reconstruct"})]),
    # the one refusal that writes: its status report, with no manifest
    (["reconstruct", "--in={pos}", "--breakpoints=0"], 5, [(["reconstruction.json"], None)]),
    (["simulate", "--state=vacuum", "--direction=1e-6,0"], 4, []),
    (["evolve", "--omega=linear-ramp:1,1", "--t-max=1", "--dt=0.01", "--recover-at=0"], 2, []),
    (["measure", "--in={sim}"], 2, []),
    (["reconstruct", "--in={sim}", "--method=piecewise"], 2, []),
])
def test_main_publishes_once_per_run(tmp_path, monkeypatch, argv, status, published):
    sim, pos, out = tmp_path / "sim", tmp_path / "pos", tmp_path / "out"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.0, 1.0), (0.6, 0.8)) == 0
    assert simulate_vacuum(pos, (1.0, 0.0)) == 0
    calls, publish = [], cli._publish

    def spy(outdir, files, manifest):
        calls.append((outdir, sorted(files), manifest))
        publish(outdir, files, manifest)

    monkeypatch.setattr(cli, "_publish", spy)
    assert run(*[a.format(sim=sim, pos=pos) for a in argv], f"--out={out}") == status
    assert calls == [(str(out), *call) for call in published]
    assert out.exists() == bool(published)


@pytest.mark.parametrize("verb", list(_VERB_OUTPUT))
def test_verbs_return_their_outputs_and_write_nothing(tmp_path, verb):
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert simulate_vacuum(sim, (1.0, 0.0), (0.0, 1.0), (0.6, 0.8)) == 0
    argv, own = _VERB_OUTPUT[verb]
    args = cli.build_parser().parse_args([*(a.format(sim=sim) for a in argv),
                                          f"--out={out}"])
    files, items = args.handler(args)
    assert own in files and "command" not in items
    assert not out.exists()


def test_reconstruct_refusal_carries_its_report_and_writes_nothing(tmp_path):
    pos, out = tmp_path / "pos", tmp_path / "out"
    assert simulate_vacuum(pos, (1.0, 0.0)) == 0
    args = cli.build_parser().parse_args(["reconstruct", f"--in={pos}", "--breakpoints=0",
                                          f"--out={out}"])
    with pytest.raises(errors.InsufficientDataError) as refused:
        args.handler(args)
    [(name, (write, report))] = refused.value.outputs.items()
    assert (name, write, report["status"]) == ("reconstruction.json", io.write_json,
                                               "insufficient-data")
    assert not out.exists()


def test_simulate_slice_narrower_than_grid_spacing_exits_4(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run("simulate", "--state=vacuum", "--direction=1e-6,0", f"--out={out}")
    assert rc == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR resolution-error: ")
    assert "narrower than the grid spacing" in line
    assert "wider extent" not in line
    assert not out.exists()


# ---------------------------------------------------------------- parser


def test_unknown_subcommand_exits_2(capsys):
    assert run("frobnicate") == 2
    assert capsys.readouterr().err.startswith("ERROR invalid-argument: ")


def test_missing_subcommand_exits_2():
    assert run() == 2


def test_python_m_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "tomokit.cli", "simulate", "--state=vacuum",
         "--grid=-12,12,256", "--direction=1,0", f"--out={out}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert io.read_slice_csv(out / "slice_000.csv").is_position


_SCIPY_FREE_SESSION = """
import sys
from tomokit import cli
out = sys.argv[1]
grid = "--grid=-12,12,256"
verbs = [
    ["simulate", "--state=fock:1", "--grid=-48,48,2048", "--direction=1,0",
     "--direction=0.6,0.8", f"--out={out}/fock"],
    ["reconstruct", f"--in={out}/fock", "--breakpoints=0", f"--out={out}/rec"],
    ["simulate", "--state=vacuum", grid, "--direction=1,0", "--direction=0,1",
     "--direction=0.6,0.8", f"--out={out}/vac"],
    ["measure", f"--in={out}/vac", "--assume-pure", f"--out={out}/meas"],
    ["evolve", "--omega=constant:1", "--t-max=1", "--dt=1e-3", f"--out={out}/evo"],
    ["evolve", "--omega=constant:1", "--t-max=2", "--dt=1e-3", "--state=vacuum",
     grid, "--recover-at=0,1,2", f"--out={out}/rec_evo"],
]
for argv in verbs:
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_simulate_reconstruct_measure_never_import_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_SESSION, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["[]"]
    assert (tmp_path / "rec" / "reconstruction.json").is_file()
    assert (tmp_path / "meas" / "completeness.json").is_file()
    assert (tmp_path / "evo" / "trajectory.csv").is_file()
    assert (tmp_path / "rec_evo" / "recovered_002.csv").is_file()


_LAZY_IMPORTS = """
import sys
from tomokit import cli
out = sys.argv[1]

def loaded():
    return [m for m in ("completeness", "dynamics", "reconstruct")
            if "tomokit." + m in sys.modules]

assert cli.main(["simulate", "--state=vacuum", "--grid=-12,12,256",
                 "--direction=1,0", f"--out={out}/sim"]) == 0
print(loaded())
assert cli.main(["measure", f"--in={out}/sim", f"--out={out}/meas"]) == 0
print(loaded())
import tomokit
print(tomokit.dynamics.solve_epsilon_delta.__name__)
"""


def test_verbs_import_only_the_modules_they_run(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORTS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "[]", "['completeness']", "solve_epsilon_delta"]


def test_malformed_grid_exits_2(tmp_path, capsys):
    rc = run("simulate", "--state=vacuum", "--grid=narrow", "--direction=1,0",
             f"--out={tmp_path / 'out'}")
    assert rc == 2
    assert "--grid" in capsys.readouterr().err


# ---------------------------------------------------------------- fuzz

# Placeholders such as {slices} name the fixed inputs of `fuzz_inputs`.
_EXIT_OF = {c.code: c.exit_code for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.TomokitError)}
_ODD = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "",
                        "abc", "0", "-1"]) | st.floats(-3.0, 3.0).map(repr)
_DIRECTIONS = ["1,0", "0,1", "0.6,0.8", "0.8,-0.6", "1.3,0.02"]


def _flags(**choices):
    """One --flag=value per keyword, each value drawn from its list."""
    return st.tuples(*(st.sampled_from(values).map(
        lambda v, f=flag: f"--{f.replace('_', '-')}={v}")
        for flag, values in choices.items()))


def _optional(*flags):
    return st.lists(st.sampled_from(flags), unique=True).map(tuple)


_VALID = {
    "simulate": st.tuples(
        _flags(state=["vacuum", "fock:0", "fock:3", "gaussian:0.5,-0.3,0.8",
                      "{truth}"],
               grid=["-12,12,256", "-6,6,128", "-12,12,512"]),
        st.lists(st.sampled_from(_DIRECTIONS), min_size=1, max_size=3,
                 unique=True).map(lambda ds: tuple(f"--direction={d}" for d in ds)),
        _optional("--noise=0.01", "--seed=7")),
    "reconstruct": st.tuples(
        st.just(("--in={slices}",)),
        st.sampled_from([("--method=nodes",),
                         ("--method=piecewise", "--breakpoints=0")]),
        _optional("--truth={truth}")),
    "evolve": st.tuples(
        _flags(omega=["constant:1", "linear-ramp:1,0.1",
                      "cosine-modulated:1,0.2,2"],
               force=["constant:0", "constant:0.5"], t_max=["1", "2"],
               dt=["0.01", "1e-3"]),
        st.sampled_from([(), ("--recover-at=0.5,1", "--state=vacuum",
                              "--grid=-12,12,256")])),
    "measure": st.tuples(st.just(("--in={slices}",)),
                         st.sampled_from([("--assume-pure",), ()])),
}


def _finite(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


def _affordable(argv) -> bool:
    """Whether a grid that serves is given and, if valid, keeps n_points
    <= 512 and dx >= 0.01, and valid steps keep t_max <= 3 and dt >= 1e-3:
    finer grids pad the momentum side to about pi/dx^2 samples, and a long
    finite run allocates every step.  evolve samples a grid only for
    --recover-at."""
    opts = dict(a.partition("=")[::2] for a in argv[1:])
    serves = argv[0] == "simulate" or (argv[0] == "evolve" and "--recover-at" in opts)
    if serves and "--grid" not in opts:
        return False
    if "--grid" in opts:
        parts = opts["--grid"].split(",")
        if len(parts) == 3 and parts[2].isdigit() and int(parts[2]) >= 2:
            lo, hi = _finite(parts[0]), _finite(parts[1])
            if lo is not None and hi is not None and hi > lo and not (
                    int(parts[2]) <= 512 and (hi - lo) / (int(parts[2]) - 1) >= 0.01):
                return False
    if "--t-max" in opts:
        t_max, dt = _finite(opts["--t-max"]), _finite(opts.get("--dt", ""))
        if t_max is not None and dt is not None and t_max > 0 and dt > 0:
            return t_max <= 3 and dt >= 1e-3
    return True


@st.composite
def _argvs(draw):
    """A valid call of one verb, then up to two edits: a flag dropped, or one
    number, name or path inside a value swapped for an odd one."""
    verb = draw(st.sampled_from(sorted(_VALID)))
    argv = [verb, *itertools.chain(*draw(_VALID[verb]))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(argv) - 1))
        flag, eq, value = argv[i].partition("=")
        if not eq or draw(st.booleans()):
            del argv[i]
            if len(argv) == 1:
                break
            continue
        tokens = re.split(r"([,:])", value)
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j] = draw(_ODD)
        argv[i] = f"{flag}={''.join(tokens)}"
    assume(_affordable(argv))
    out = draw(st.sampled_from(["{out}", "{out}", "{out}", "", "{file}/sub"]))
    return [*argv, f"--out={out}"]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    slices = root / "slices"
    assert cli.main(["simulate", "--state=vacuum", "--grid=-12,12,256",
                     "--direction=1,0", "--direction=0,1",
                     "--direction=0.6,0.8", f"--out={slices}"]) == 0
    (root / "file").write_text("")
    io.write_wavefunction_csv(root / "truth.csv", core.sample_state(
        core.GaussianPreset(), core.make_grid(-12.0, 12.0, 256)))
    return {"root": root, "runs": itertools.count(), "slices": slices,
            "file": root / "file", "truth": root / "truth.csv"}


@pytest.mark.filterwarnings("ignore::tomokit.core.BoundaryLeakWarning")
@settings(max_examples=60, deadline=None)
@given(argv=_argvs())
@example(argv=["evolve", "--omega=constant:1", "--t-max=1e300", "--dt=1e-300",
               "--out={out}"])
@example(argv=["simulate", "--state=vacuum", "--grid=-12,12,256",
               "--direction=1e308,1e308", "--out={out}"])
@example(argv=["simulate", "--state=gaussian:0,0,1e-170", "--grid=-12,12,256",
               "--direction=1,0", "--out={out}"])
@example(argv=["simulate", "--state=vacuum", "--grid=-12,12,256",
               "--direction=1,0", "--out={file}/sub"])
@example(argv=["simulate", "--state=gaussian:0.5,-0.3,1e308", "--grid=-12,12,256",
               "--direction=1,0", "--out={out}"])
@example(argv=["simulate", "--state=gaussian:0,0,1e-5", "--grid=-12,12,256",
               "--direction=1,0", "--out={out}"])
@example(argv=["simulate", "--state=vacuum", "--direction=1,0", "--noise=1e307",
               "--out={out}"])
@example(argv=["simulate", "--state=vacuum", "--direction=1,0", "--noise=1e308",
               "--out={out}"])
@example(argv=["simulate", "--state=fock:0", "--grid=-1e308,12,256",
               "--direction=0,1", "--out={out}"])
@example(argv=["simulate", "--state=gaussian:0.5,1e308,0.8", "--grid=-12,12,256",
               "--direction=1,0", "--out={out}"])
@example(argv=["evolve", "--omega=constant:1", "--t-max=1", "--dt=0.01",
               "--state=vacuum", "--out={out}"])
@example(argv=["reconstruct", "--in={slices}", "--method=piecewise",
               "--breakpoints=-1e308,1e308", "--out={out}"])
@example(argv=["simulate", "--state=vacuum", "--grid=-12,12,1000000000000",
               "--direction=1,0", "--out={out}"])
def test_cli_fuzz_fails_with_one_error_line(fuzz_inputs, argv):
    out = fuzz_inputs["root"] / f"out{next(fuzz_inputs['runs'])}"
    argv = [a.format(out=out, **fuzz_inputs) for a in argv]
    stderr = StringIO()
    with contextlib.redirect_stderr(stderr):
        status = cli.main(argv)
    assert status in {0, 2, 3, 4, 5}
    lines = stderr.getvalue().splitlines()
    if status == 0:
        assert lines == []
    else:
        [line] = lines
        assert line.startswith("ERROR ")
        assert _EXIT_OF[line.split()[1].rstrip(":")] == status

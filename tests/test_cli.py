import contextlib
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
])
def test_failing_verb_prints_one_error_line(tmp_path, capsys, argv, code, status):
    pos, empty, out = tmp_path / "pos", tmp_path / "empty", tmp_path / "out"
    assert simulate_vacuum(pos, (1.0, 0.0)) == 0
    empty.mkdir()
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
    capsys.readouterr()
    argv = [a.format(pos=pos, empty=empty, huge=huge, wide=wide) for a in argv]
    assert run(*argv, f"--out={out}") == status
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"ERROR {code}: ")
    if code == "insufficient-data":
        assert os.listdir(out) == ["reconstruction.json"]
    else:
        assert not out.exists()


def test_output_directory_that_cannot_be_created_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = run("simulate", "--state=vacuum", "--grid=-12,12,256",
             "--direction=1,0", f"--out={blocker}/sub")
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("ERROR invalid-argument: ")
    assert "cannot be created" in line


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
               dt=["0.01", "1e-3"], grid=["-12,12,256"]),
        _optional("--recover-at=0.5,1", "--state=vacuum")),
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
    """Whether the grid is given and, if valid, keeps n_points <= 512 and
    dx >= 0.01, and valid steps keep t_max <= 3 and dt >= 1e-3: finer grids
    pad the momentum side to about pi/dx^2 samples, and a long finite run
    allocates every step."""
    opts = dict(a.partition("=")[::2] for a in argv[1:])
    if argv[0] in ("simulate", "evolve") and "--grid" not in opts:
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

"""Acceptance gate: one test per release criterion.

Each test prints a single "[acceptance] <name>: PASS" (or FAIL) line so the
run log doubles as the criterion checklist.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tomokit import cli, completeness, core, dynamics, io, reconstruct, transform
from tomokit.transform import GaussianState

import oracles


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def noisy_slice(s, rel, seed, index):
    rng = np.random.default_rng([seed, index])
    d = s.density * (1.0 + rel * rng.standard_normal(s.density.size))
    d = np.clip(d, 0.0, None)
    return transform.TomogramSlice(s.mu, s.nu, s.grid, d / float(d.sum() * s.grid.dx))


def two_segment_state(grid, phi):
    x = grid.points
    amps = (np.exp(-(x + 2.5) ** 2 / (2 * 0.15))
            + 0.8 * np.exp(1j * phi) * np.exp(-(x - 2.5) ** 2 / (2 * 0.15)))
    return core.WaveFunction(grid, amps)


def circular_error(got, want):
    d = abs((got - want) % (2 * np.pi))
    return min(d, 2 * np.pi - d)


def test_criterion_1_transform_unitarity(grid):
    with criterion("transform unitarity, 50 states x 20 directions"):
        basis = np.stack([core.sample_state(core.FockPreset(n), grid).amplitudes
                          for n in range(11)])
        rng = np.random.default_rng(42)
        states = []
        for _ in range(50):
            c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            states.append(core.WaveFunction(grid, c @ basis))
        directions = []
        for _ in range(20):
            theta = rng.uniform(0.26, np.pi - 0.26)
            r = rng.uniform(0.4, 1.4)
            directions.append((r * np.cos(theta), r * np.sin(theta)))
        assert all(abs(n) >= 0.1 for _, n in directions)
        start = time.monotonic()
        worst = 0.0
        for psi in states:
            for mu, nu in directions:
                s = transform.tomogram(psi, mu, nu)
                nrm = np.sqrt(np.sum(s.density) * grid.dx)
                worst = max(worst, abs(nrm - 1.0))
        elapsed = time.monotonic() - start
        assert worst <= 1e-8, f"worst norm deviation {worst:.2e}"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_gaussian_closed_form(grid):
    with criterion("Gaussian closed form, 10 boundary covariance triples"):
        rng = np.random.default_rng(123)
        for _ in range(10):
            sxx = rng.uniform(0.3, 1.2)
            sxp = rng.uniform(-0.5, 0.5)
            state = GaussianState(sigma_xx=sxx,
                                  sigma_pp=(0.25 + sxp ** 2) / sxx,
                                  sigma_xp=sxp)
            psi = transform.sample_pure_gaussian(state, grid)
            for mu, nu in [(1.0, 0.0), (0.0, 1.0), (0.8, 0.6), (-0.6, 0.8)]:
                numeric = transform.tomogram(psi, mu, nu)
                closed = transform.tomogram_gaussian(state, mu, nu, grid)
                assert np.max(np.abs(numeric.density - closed.density)) <= 1e-4


def test_criterion_3_node_method(grid):
    with criterion("node method, one extra slice, clean and noisy"):
        for phi in (np.pi / 6, np.pi / 3, np.pi / 2, 2.5):
            psi = two_segment_state(grid, phi)
            pos = transform.tomogram(psi, 1.0, 0.0)
            extra = transform.tomogram(psi, 0.0, 1.0)

            clean = reconstruct.recover_phases_nodes(
                pos, [extra], reconstruct.detect_nodes(pos))
            assert circular_error(clean.phases[1], phi) <= 1e-3

            npos = noisy_slice(pos, 1e-4, 11, 0)
            nextra = noisy_slice(extra, 1e-4, 11, 1)
            noisy = reconstruct.recover_phases_nodes(
                npos, [nextra], reconstruct.detect_nodes(npos))
            assert circular_error(noisy.phases[1], phi) <= 1e-2


def test_criterion_4_piecewise_method(grid):
    with criterion("piecewise method, 4 segments, 4 quasi-uniform slices"):
        x = grid.points
        heights = (1.0, 0.85, 1.1, 0.9)
        centers = (-4.5, -1.5, 1.5, 4.5)
        phases = (0.0, 0.9, 2.2, 4.0)
        breakpoints = [-3.0, 0.0, 3.0]
        amps = sum(h * np.exp(1j * p) * np.exp(-(x - c) ** 2 / (2 * 0.12))
                   for h, p, c in zip(heights, phases, centers))
        psi = core.WaveFunction(grid, amps)
        pos = transform.tomogram(psi, 1.0, 0.0)
        thetas = [np.pi * (2 * i + 1) / 8 for i in range(4)]
        slices = [transform.tomogram(psi, np.cos(t), np.sin(t)) for t in thetas]
        res = reconstruct.recover_phases_piecewise(breakpoints, pos, slices)
        for p in range(4):
            for q in range(p + 1, 4):
                got = res.phases[q] - res.phases[p]
                want = phases[q] - phases[p]
                assert circular_error(got, want) <= 5e-3
        rebuilt = reconstruct.assemble_state(
            reconstruct.piecewise_from_position(breakpoints, pos,
                                                phases=res.phases), grid)
        fidelity = abs(np.sum(np.conj(psi.amplitudes) * rebuilt.amplitudes)
                       * grid.dx)
        assert fidelity >= 0.999


def test_criterion_5_free_flight_identities():
    with criterion("Fresnel identity and free-flight history recovery"):
        wide = core.make_grid(-20.0, 20.0, 2048)
        psi0 = core.sample_state(core.GaussianPreset(), wide)
        x = wide.points
        for nu in (0.25, 1.0, 2.0):
            fresnel = oracles.fresnel_tomogram(psi0.amplitudes, x, nu)
            sliced = transform.tomogram(psi0, 1.0, nu)
            assert np.max(np.abs(fresnel - sliced.density)) <= 1e-6

        mus = (0.5, 1.0, 2.0)
        nus = (0.25, 1.0, 2.0)
        times = sorted({nu / mu for mu in mus for nu in nus})
        flown = [oracles.free_propagate(psi0.amplitudes, x, t) for t in times]
        history = dynamics.PositionHistory(times, [
            transform.TomogramSlice(1.0, 0.0, wide, np.abs(a) ** 2)
            for a in flown])
        for mu in mus:
            for nu in nus:
                rec = dynamics.initial_tomogram_from_position_history(
                    history, mu, nu)
                ref = transform.tomogram(psi0, mu, nu)
                assert np.max(np.abs(rec.density - ref.density)) <= 1e-4


def test_criterion_6_oscillator_dynamics(grid):
    with criterion("Wronskian conservation and oscillator recovery family"):
        rates = [dynamics.constant_rate(1.0), dynamics.constant_rate(2.0),
                 dynamics.cosine_modulated(1.0, 0.3, 2.0)]
        for omega in rates:
            spec = dynamics.OscillatorSpec(omega, dynamics.constant_rate(0.0),
                                           2.0 * np.pi, 1e-3)
            traj = dynamics.solve_epsilon_delta(spec)
            assert np.max(np.abs(traj.wronskian() - 1.0)) <= 1e-8

        psi0 = core.sample_state(core.GaussianPreset(x0=1.0), grid)
        recover_times = [k * np.pi / 8 for k in range(8)]
        # fine-step split-step densities, independent of the transform
        flown = [oracles.split_step_kinetic_first(
            psi0.amplitudes, grid.points, t, 1.0, max(1, round(t / 1e-3)))
            for t in recover_times]
        history = dynamics.PositionHistory(recover_times, [
            transform.TomogramSlice(1.0, 0.0, grid, np.abs(a) ** 2)
            for a in flown])
        spec = dynamics.OscillatorSpec(dynamics.constant_rate(1.0),
                                       dynamics.constant_rate(0.0),
                                       recover_times[-1], 1e-3)
        traj = dynamics.solve_epsilon_delta(spec)
        for t in recover_times:
            rec = dynamics.initial_tomogram_from_oscillator(history, traj, t)
            ref = transform.tomogram(psi0, rec.mu, rec.nu)
            assert np.max(np.abs(rec.density - ref.density)) <= 1e-3


def test_criterion_7_completeness_closed_forms(grid, small_grid):
    with criterion("completeness closed forms and regime values"):
        assert completeness.g_function(0.5) == pytest.approx(0.954771,
                                                             abs=1e-6)
        vacuum_cov = GaussianState(sigma_xx=0.5, sigma_pp=0.5)
        assert abs(completeness.gaussian_entropy(vacuum_cov)) <= 1e-8

        unit = GaussianState(sigma_xx=1.0, sigma_pp=1.0)
        pos = transform.tomogram_gaussian(unit, 1.0, 0.0, grid)
        mom = transform.tomogram_gaussian(unit, 0.0, 1.0, grid)
        obl = transform.tomogram_gaussian(unit, 1.0, 1.0, grid)

        one = completeness.gaussian_completeness(
            completeness.MeasurementSet((pos,)))
        assert one.value is None

        two = completeness.gaussian_completeness(
            completeness.MeasurementSet((pos, mom)))
        assert two.value == pytest.approx(0.9547712524422623, abs=1e-6)

        three = completeness.gaussian_completeness(
            completeness.MeasurementSet((pos, mom, obl)), purity_assumed=True)
        assert three.value == 0.0

        a = core.sample_state(core.FockPreset(0), small_grid)
        b = core.sample_state(core.FockPreset(1), small_grid)
        chi = completeness.holevo_chi(
            completeness.Ensemble((0.5, 0.5), (a, b)))
        assert chi == pytest.approx(np.log(2.0), abs=1e-6)


def _artifacts(outdir):
    found = {}
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        if name == "manifest.json":
            with open(path) as fh:
                payload = json.load(fh)
            payload.pop("created_at")
            found[name] = payload
        else:
            with open(path, "rb") as fh:
                found[name] = fh.read()
    return found


def test_criterion_8_cli_determinism(tmp_path):
    with criterion("CLI determinism across repeated seeded runs"):
        truth = tmp_path / "truth.csv"
        io.write_wavefunction_csv(
            truth, two_segment_state(core.make_grid(-12.0, 12.0, 2048), 2.5))

        def invocations(root):
            sim, gsim = root / "sim", root / "gsim"
            return [
                ["simulate", f"--state={truth}", "--direction=1,0",
                 "--direction=0.7,0.7", "--direction=-0.6,0.8",
                 f"--out={sim}"],
                ["simulate", "--state=vacuum", "--direction=1,0",
                 "--direction=0,1", "--direction=0.7,0.7", "--noise=1e-4",
                 "--seed=3", f"--out={gsim}"],
                ["reconstruct", f"--in={sim}", "--breakpoints=0",
                 f"--truth={truth}", f"--out={root / 'rec'}"],
                ["evolve", "--omega=constant:1", "--t-max=1", "--dt=1e-3",
                 "--state=vacuum", "--recover-at=0,0.5",
                 f"--out={root / 'evo'}"],
                ["measure", f"--in={gsim}", "--assume-pure",
                 f"--out={root / 'meas'}"],
            ]

        for root in (tmp_path / "one", tmp_path / "two"):
            for args in invocations(root):
                assert cli.main(args) == 0, args

        for sub in ("sim", "gsim", "rec", "evo", "meas"):
            first = _artifacts(tmp_path / "one" / sub)
            second = _artifacts(tmp_path / "two" / sub)
            assert first == second, f"{sub} artifacts differ between runs"

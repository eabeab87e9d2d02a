"""cli-session: one user's session of five CLI verbs, each a fresh interpreter.

A job (one round) runs, in order: ``simulate`` of a two-lobe truth state,
``simulate`` of a noisy vacuum, ``reconstruct --truth``, ``evolve
--recover-at`` and ``measure --assume-pure``.  Each verb is started with
this interpreter through ``tomokit.cli.entry``; phases, directions, times
and the noise seed are drawn per job.  Start-up imports are most of every
verb, so import, CSV and verb-overhead changes show here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import reference as ref
from harness import START_NOMINAL_S, start_sample

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
VERB = [sys.executable, "-c", "from tomokit.cli import entry; entry()"]
VERB_TIMEOUT_S = 120
# peak_rss_mb is the largest verb process, not the benchmark's own.
RSS_OF_CHILDREN = True

N = 2048
X = -12.0 + (24.0 / (N - 1)) * np.arange(N)
NOISE = 1e-4

PHASE_TOL = 1e-3
FIDELITY_MIN = 0.999
# Multiplicative noise of 1e-4 per sample: six standard deviations.
VACUUM_RTOL = 6 * NOISE
EVOLVE_TOL = 1e-3
# Noise moves the fitted variances by ~1e-5; the cross term comes out of
# purity as sqrt(sigma_xx sigma_pp - 1/4), which turns that into ~3e-3.
VARIANCE_TOL = 1e-3
CROSS_TOL = 2e-2

OUT_DIRS = ("truth_slices", "vacuum_slices", "reconstruction", "evolution", "completeness")


def make_shared(rng):
    work = os.path.join(ROOT, ".bench_out", f"cli-session-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return {"work": work, "env": env, "jobs": 0}


def close(shared):
    shutil.rmtree(shared["work"], ignore_errors=True)


def make_round(rng, shared):
    gap, offset = rng.uniform(4.5, 5.5), rng.uniform(-0.5, 0.5)
    lobes = [(offset + side * gap / 2, rng.uniform(0.3, 0.4), rng.uniform(0.6, 1.0))
             for side in (-1, 1)]
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t_max = rng.uniform(1.5, 2.5)
    inp = {"lobes": lobes, "phase": phase,
           "directions": ref.draw_directions(rng, 2),
           "oblique": ref.oblique_direction(rng),
           "noise_seed": int(rng.integers(0, 2 ** 31)),
           "state": (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.6, 0.9)),
           "t_max": t_max, "times": ref.draw_times(rng, 2, t_max)}
    shared["jobs"] += 1
    inp["dir"] = os.path.join(shared["work"], f"job{shared['jobs']}")
    os.makedirs(inp["dir"])
    ref.write_wavefunction(os.path.join(inp["dir"], "truth.csv"), X, _truth(inp))
    return [inp]


def _truth(inp):
    (c0, s0, w0), (c1, s1, w1) = inp["lobes"]
    amps = (w0 * ref.gaussian_amplitudes(X, c0, 0.0, s0)
            + w1 * np.exp(1j * inp["phase"]) * ref.gaussian_amplitudes(X, c1, 0.0, s1))
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2) * (X[1] - X[0]))


def _direction(mu, nu):
    return f"--direction={mu!r},{nu!r}"


def session(inp):
    """The five verbs of a session as (verb, arguments), with absolute paths."""
    d = inp["dir"]
    p = {name: os.path.join(d, name) for name in OUT_DIRS + ("truth.csv",)}
    x0, p0, sigma = inp["state"]
    return [
        ("simulate", [f"--state={p['truth.csv']}", _direction(1.0, 0.0)]
         + [_direction(*u) for u in inp["directions"]] + [f"--out={p['truth_slices']}"]),
        ("simulate", ["--state=vacuum", _direction(1.0, 0.0), _direction(0.0, 1.0),
                      _direction(*inp["oblique"]), f"--noise={NOISE!r}",
                      f"--seed={inp['noise_seed']}", f"--out={p['vacuum_slices']}"]),
        ("reconstruct", [f"--in={p['truth_slices']}", f"--truth={p['truth.csv']}",
                         f"--out={p['reconstruction']}"]),
        ("evolve", ["--omega=constant:1", f"--t-max={inp['t_max']!r}", "--dt=0.001",
                    f"--state=gaussian:{x0!r},{p0!r},{sigma!r}",
                    "--recover-at=" + ",".join(repr(t) for t in inp["times"]),
                    f"--out={p['evolution']}"]),
        ("measure", [f"--in={p['vacuum_slices']}", "--assume-pure",
                     f"--out={p['completeness']}"]),
    ]


def run_job(shared, inp, L):
    """The session's verbs, each rescaled by interpreter starts timed just
    before and after it."""
    codes, errors = [], []
    raw = rescaled = 0.0
    before = start_sample(shared["env"])
    for verb, args in session(inp):
        t = time.perf_counter()
        r = L("cli." + verb, subprocess.run, VERB + [verb] + args, cwd=inp["dir"],
              env=shared["env"], capture_output=True, text=True, timeout=VERB_TIMEOUT_S)
        seconds = time.perf_counter() - t
        after = start_sample(shared["env"])
        raw += seconds
        rescaled += seconds * START_NOMINAL_S / (0.5 * (before + after))
        before = after
        codes.append(r.returncode)
        errors.append(r.stderr.strip())
    return {"dir": inp["dir"], "returncodes": codes, "stderr": errors,
            "raw_s": raw, "rescaled_s": rescaled}


def _slices(directory):
    return [ref.read_slice(os.path.join(directory, n))
            for n in sorted(os.listdir(directory)) if n.startswith("slice_")]


def check(shared, inp, out, v):
    v.expect("exit", out["returncodes"] == [0] * 5,
             f"exit codes {out['returncodes']}, stderr {out['stderr']}")
    if out["returncodes"] != [0] * 5:
        return
    d = out["dir"]
    truth = _truth(inp)
    rec = ref.read_json(os.path.join(d, "reconstruction", "reconstruction.json"))
    phases = rec["phases"]
    recovered = phases[1] - phases[0] if len(phases) == 2 else np.nan
    err = abs(ref.wrap(recovered - inp["phase"]))
    v.expect("phase", err <= PHASE_TOL, f"phases {phases}, drawn {inp['phase']!r}")
    node = 0.5 * (inp["lobes"][0][0] + inp["lobes"][1][0])
    rebuilt = np.abs(truth) * np.exp(1j * np.where(X > node, recovered, 0.0))
    own = abs(np.vdot(truth, rebuilt) * (X[1] - X[0])) ** 2
    v.expect("phase", rec.get("fidelity", 0.0) >= FIDELITY_MIN and own >= FIDELITY_MIN,
             f"fidelity {rec.get('fidelity')!r} reported, {own!r} recomputed")
    wanted = [(1.0, 0.0), (0.0, 1.0), inp["oblique"]]
    got = _slices(os.path.join(d, "vacuum_slices"))
    v.expect("vacuum", len(got) == 3, f"{len(got)} vacuum slices")
    for (mu, nu, x, dens), (m, n) in zip(got, wanted):
        g = ref.gaussian_density(x, 0.0, 0.5 * (mu ** 2 + nu ** 2))
        bad = float(np.max(np.abs(dens - g) - VACUUM_RTOL * g))
        v.expect("vacuum", (mu, nu) == (m, n) and bad <= 1e-12,
                 f"slice ({mu}, {nu}) off the closed form by {bad:.2e} beyond the noise")
    evo = ref.read_json(os.path.join(d, "evolution", "manifest.json"))["recovered"]
    v.expect("evolve", [e["time"] for e in evo] == inp["times"], f"recovered at {evo}")
    x0, p0, sigma = inp["state"]
    for e in evo:
        mu, nu, x, dens = ref.read_slice(os.path.join(d, "evolution", e["file"]))
        t = e["time"]
        g = ref.gaussian_density(x, mu * x0 + nu * p0, mu ** 2 * sigma ** 2 + nu ** 2 / (4 * sigma ** 2))
        gap = float(np.max(np.abs(dens - g)))
        v.expect("evolve", abs(mu - np.cos(t)) <= 1e-6 and abs(nu - np.sin(t)) <= 1e-6
                 and gap <= EVOLVE_TOL, f"t = {t!r}: ({mu}, {nu}), off the closed form by {gap:.2e}")
    rep = ref.read_json(os.path.join(d, "completeness", "completeness.json"))
    cov = rep["covariances"]
    v.expect("measure", rep["regime"] == "three-or-more" and rep["value"] == {"finite": 0.0}
             and abs(cov["sigma_xx"] - 0.5) <= VARIANCE_TOL
             and abs(cov["sigma_pp"] - 0.5) <= VARIANCE_TOL
             and abs(cov["sigma_xp"]) <= CROSS_TOL, f"report {rep}")
    for name in OUT_DIRS:
        bad = ref.manifest_mismatches(os.path.join(d, name))
        v.expect("manifest", not bad, f"{name}: manifest disagrees on {bad}")


def cleanup(out):
    if out is not None:
        shutil.rmtree(out["dir"], ignore_errors=True)


def trace_extras(shared, inp, out, L):
    """Traced runs only, outside the job span: each verb through ``cli.main``
    in this process, and the io layer on the session's own files."""
    from tomokit import cli, dynamics, io

    d = out["dir"]
    for verb, args in session(inp):
        args = [a + "_main" if a.startswith("--out=") else a for a in args]
        L(f"cli.{verb}.main", cli.main, [verb] + args)
    copies = os.path.join(d, "io")
    os.makedirs(copies)
    read = 2 * os.path.getsize(os.path.join(d, "truth.csv"))
    for sub in ("truth_slices", "vacuum_slices"):
        for name in sorted(os.listdir(os.path.join(d, sub))):
            if name.startswith("slice_"):
                path = os.path.join(d, sub, name)
                read += os.path.getsize(path)
                s = L("io.read_slice_csv", io.read_slice_csv, path)
                L("io.write_slice_csv", io.write_slice_csv, os.path.join(copies, name), s)
    L("io.read_wavefunction_csv", io.read_wavefunction_csv, os.path.join(d, "truth.csv"))
    rows = np.loadtxt(os.path.join(d, "evolution", "trajectory.csv"), delimiter=",", skiprows=1)
    traj = L("dynamics.OscillatorTrajectory", dynamics.OscillatorTrajectory, rows[:, 0],
             rows[:, 1] + 1j * rows[:, 2], rows[:, 3] + 1j * rows[:, 4], rows[:, 5] + 1j * rows[:, 6])
    L("io.write_trajectory_csv", io.write_trajectory_csv, os.path.join(copies, "trajectory.csv"), traj)
    written = sum(os.path.getsize(os.path.join(d, sub, n))
                  for sub in OUT_DIRS for n in os.listdir(os.path.join(d, sub)))
    L.count("io.bytes_read", read)
    L.count("io.bytes_written", written)


def clone(out):
    """Copy of a job's output directory, for perturbing without harm."""
    n = 0
    while os.path.exists(f"{out['dir']}-copy{n}"):
        n += 1
    copy = f"{out['dir']}-copy{n}"
    shutil.copytree(out["dir"], copy)
    return dict(out, dir=copy, returncodes=list(out["returncodes"]))


def _edit_json(sub, name, change):
    def mutate(out):
        path = os.path.join(out["dir"], sub, name)
        payload = ref.read_json(path)
        change(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)
    return mutate


def _scale_slice(sub, name, factor):
    def mutate(out):
        path = os.path.join(out["dir"], sub, name)
        with open(path) as fh:
            head = [fh.readline(), fh.readline()]
        data = np.loadtxt(path, delimiter=",", skiprows=2)
        with open(path, "w") as fh:
            fh.write("".join(head))
            fh.write("".join(f"{float(x)!r},{float(d) * factor!r}\n" for x, d in data))
    return mutate


def _append_byte(out):
    with open(os.path.join(out["dir"], "truth_slices", "slice_000.csv"), "a") as fh:
        fh.write("\n")


PERTURBATIONS = {
    "exit": lambda out: out["returncodes"].__setitem__(2, 1),
    "phase": _edit_json("reconstruction", "reconstruction.json",
                        lambda p: p["phases"].__setitem__(1, p["phases"][1] + 0.01)),
    "vacuum": _scale_slice("vacuum_slices", "slice_002.csv", 1.01),
    "evolve": _scale_slice("evolution", "recovered_000.csv", 1.01),
    "measure": _edit_json("completeness", "completeness.json",
                          lambda p: p["covariances"].__setitem__("sigma_xx", 0.52)),
    "manifest": _append_byte,
}

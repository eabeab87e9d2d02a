"""oscillator-recovery: RK4 oscillator pairs and tomograms recovered from
position histories.

One job integrates epsilon/delta with RK4 for each frequency preset
(constant, linear-ramp, cosine-modulated) with random parameters, so every
job has the same make-up.  For the constant one it also synthesises the
harmonic position history of a random Gaussian state at random times,
recovers the initial tomograms from it and computes the same tomograms
directly with ``transform.tomogram``.  Every direction is new, so nothing
repeats across jobs.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from tomokit import core, dynamics, transform

PRESETS = ("constant", "linear-ramp", "cosine-modulated")
DT = 1e-3
T_MAX = 2.5
N_TIMES = 3
GRID = core.default_grid()

WRONSKIAN_TOL = 1e-8
EPSILON_TOL = 1e-7
RECOVERY_TOL = 1e-3


def make_shared(rng):
    return {}


def _draw(rng, preset):
    inp = {"preset": preset, "force": 0.0}
    if preset == "constant":
        omega = rng.uniform(0.7, 1.4)
        inp["params"] = [omega]
        inp["state"] = (rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.0))
        inp["times"] = ref.draw_times(rng, N_TIMES, T_MAX, omega)
    elif preset == "linear-ramp":
        inp["params"] = [rng.uniform(0.8, 1.2), rng.uniform(-0.1, 0.2)]
        inp["force"] = rng.uniform(-0.5, 0.5)
    else:
        inp["params"] = [rng.uniform(0.8, 1.2), rng.uniform(0.1, 0.4), rng.uniform(0.5, 2.0)]
        inp["force"] = rng.uniform(-0.5, 0.5)
    return inp


def make_round(rng, shared):
    return [[_draw(rng, p) for p in PRESETS]]


def run_job(shared, inp, L):
    return [_integrate(part, L) for part in inp]


def _integrate(inp, L):
    omega = L("dynamics.rate_preset", dynamics.rate_preset, inp["preset"], inp["params"])
    force = L("dynamics.rate_preset", dynamics.rate_preset, "constant", [inp["force"]])
    spec = L("dynamics.OscillatorSpec", dynamics.OscillatorSpec, omega, force, T_MAX, DT)
    traj = L("dynamics.solve_epsilon_delta", dynamics.solve_epsilon_delta, spec)
    L.count("dynamics.solve_epsilon_delta.steps", traj.times.size - 1)
    out = {"times": traj.times, "epsilon": traj.epsilon,
           "epsilon_dot": traj.epsilon_dot, "recovered": [], "direct": []}
    if inp["preset"] == "constant":
        psi = L("core.sample_state", core.sample_state, core.GaussianPreset(*inp["state"]), GRID)
        history = L("dynamics.harmonic_position_history", dynamics.harmonic_position_history,
                    psi, inp["times"], inp["params"][0])
        for t in inp["times"]:
            s = L("dynamics.initial_tomogram_from_oscillator",
                  dynamics.initial_tomogram_from_oscillator, history, traj, t)
            direct = L("transform.tomogram", transform.tomogram, psi, s.mu, s.nu)
            out["recovered"].append(s.density)
            out["direct"].append(direct.density)
    return out


def check(shared, inp, out, v):
    for part, result in zip(inp, out):
        _check(part, result, v)


def _check(inp, out, v):
    eps, epsd = out["epsilon"], out["epsilon_dot"]
    drift = float(np.max(np.abs(np.imag(np.conj(eps) * epsd) - 1.0)))
    v.expect("wronskian", drift <= WRONSKIAN_TOL, f"Wronskian drift {drift:.2e}")
    if inp["preset"] != "constant":
        return
    w = inp["params"][0]
    t = out["times"]
    err = float(np.max(np.abs(eps - (np.cos(w * t) + 1j * np.sin(w * t) / w))))
    v.expect("epsilon", err <= EPSILON_TOL, f"epsilon off the closed form by {err:.2e}")
    if len(out["recovered"]) != len(inp["times"]):
        v.expect("recovery", False, f"{len(out['recovered'])} slices for {len(inp['times'])} times")
    for t, a, b in zip(inp["times"], out["recovered"], out["direct"]):
        gap = float(np.max(np.abs(a - b)))
        v.expect("recovery", gap <= RECOVERY_TOL, f"t = {t:.3f}: recovered vs direct {gap:.2e}")


# Perturbations act on the constant-omega part, the first of each job.
def _drift_wronskian(out):
    out[0]["epsilon_dot"] = out[0]["epsilon_dot"] * (1.0 + 1e-7)


def _bend_epsilon(out):
    out[0]["epsilon"] = out[0]["epsilon"] * np.exp(1e-6j)
    out[0]["epsilon_dot"] = out[0]["epsilon_dot"] * np.exp(1e-6j)


def _shift_recovered(out):
    out[0]["recovered"] = [np.roll(d, 2) for d in out[0]["recovered"]]


PERTURBATIONS = {
    "wronskian": _drift_wronskian,
    "epsilon": _bend_epsilon,
    "recovery": _shift_recovered,
}

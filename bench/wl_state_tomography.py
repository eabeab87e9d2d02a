"""state-tomography: phases of multi-lobe states from a shared direction set.

One job samples a state of 2, 3 or 4 Gaussian lobes (one of each per round)
with known segment phases and nodes between the lobes, computes its position
slice and its slices at the run's directions, recovers the phases with both
solvers and assembles the state.  The directions are drawn once per run and
shared by every job, so transforms repeat across jobs.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from tomokit import core, reconstruct, transform

N_DIRECTIONS = 4
LOBES = (2, 3, 4)
GRID = core.default_grid()
X = GRID.points

PHASE_TOL = 5e-3
FIDELITY_MIN = 0.999
NORM_TOL = 1e-6
QUADRATURE_TOL = 1e-9


def make_shared(rng):
    return {"directions": ref.draw_directions(rng, N_DIRECTIONS)}


def _draw(rng, k):
    spacing = rng.uniform(4.0, 4.6)
    centres = (np.arange(k) - 0.5 * (k - 1)) * spacing + rng.uniform(-0.5, 0.5)
    return {"centres": centres,
            "sigmas": rng.uniform(0.3, 0.4, k),
            "weights": rng.uniform(0.6, 1.0, k),
            "phases": np.concatenate([[0.0], rng.uniform(0.0, 2.0 * np.pi, k - 1)])}


def make_round(rng, shared):
    return [_draw(rng, k) for k in LOBES]


def run_job(shared, inp, L):
    amps = np.zeros(GRID.n_points, dtype=complex)
    for c, s, w, phi in zip(inp["centres"], inp["sigmas"], inp["weights"], inp["phases"]):
        lobe = L("core.sample_state", core.sample_state, core.GaussianPreset(c, 0.0, s), GRID)
        amps += w * np.exp(1j * phi) * lobe.amplitudes
    psi = L("core.WaveFunction", core.WaveFunction, GRID, amps)
    position = L("transform.tomogram", transform.tomogram, psi, 1.0, 0.0)
    extras = [L("transform.tomogram", transform.tomogram, psi, mu, nu)
              for mu, nu in shared["directions"]]
    nodes = L("reconstruct.detect_nodes", reconstruct.detect_nodes, position)
    L.count("reconstruct.segments", nodes.size + 1)
    by_nodes = L("reconstruct.recover_phases_nodes",
                 reconstruct.recover_phases_nodes, position, extras, nodes)
    by_pieces = L("reconstruct.recover_phases_piecewise",
                  reconstruct.recover_phases_piecewise, nodes, position, extras)
    pieces = L("reconstruct.piecewise_from_position",
               reconstruct.piecewise_from_position, nodes, position, by_nodes.phases)
    rebuilt = L("reconstruct.assemble_state", reconstruct.assemble_state, pieces, GRID)
    return {"psi": psi.amplitudes,
            "directions": [(s.mu, s.nu) for s in [position] + extras],
            "densities": [s.density for s in [position] + extras],
            "nodes": nodes,
            "phases_nodes": by_nodes.phases,
            "phases_piecewise": by_pieces.phases,
            "rebuilt": rebuilt.amplitudes}


def _truth(inp):
    amps = sum(w * np.exp(1j * phi) * ref.gaussian_amplitudes(X, c, 0.0, s)
               for c, s, w, phi in zip(inp["centres"], inp["sigmas"],
                                       inp["weights"], inp["phases"]))
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2) * GRID.dx)


def check(shared, inp, out, v):
    k = len(inp["centres"])
    nodes = np.asarray(out["nodes"])
    c = inp["centres"]
    v.expect("nodes", nodes.size == k - 1 and np.all((c[:-1] < nodes) & (nodes < c[1:])),
             f"nodes {nodes} for lobes at {c}")
    for solver in ("phases_nodes", "phases_piecewise"):
        got = np.asarray(out[solver])
        if got.size != k:
            v.expect("phases", False, f"{solver}: {got.size} phases for {k} lobes")
            continue
        err = max(abs(ref.wrap(got[j] - got[0] - inp["phases"][j])) for j in range(k))
        v.expect("phases", err <= PHASE_TOL, f"{solver}: phase error {err:.2e}")
    truth = _truth(inp)
    fid = abs(np.vdot(truth, out["rebuilt"]) * GRID.dx) ** 2 / (
        np.sum(np.abs(out["rebuilt"]) ** 2) * GRID.dx)
    v.expect("fidelity", fid >= FIDELITY_MIN, f"fidelity {fid:.6f}")
    for (mu, nu), d in zip(out["directions"], out["densities"]):
        total = float(np.sum(d) * GRID.dx)
        v.expect("normalisation", abs(total - 1.0) <= NORM_TOL,
                 f"slice ({mu:.3f}, {nu:.3f}) integrates to {total!r}")


def final_check(shared, inp, out, v):
    """Outside the timed phase: two oblique slices of one job against the
    O(N^2) direct quadrature."""
    for (mu, nu), d in list(zip(out["directions"], out["densities"]))[1:3]:
        err = float(np.max(np.abs(d - ref.direct_tomogram(out["psi"], X, mu, nu))))
        v.expect("quadrature", err <= QUADRATURE_TOL,
                 f"slice ({mu:.3f}, {nu:.3f}) off the direct sum by {err:.2e}")


def _last_phase_plus(out):
    ph = np.array(out["phases_piecewise"])
    ph[-1] += 0.01
    out["phases_piecewise"] = ph


def _rotate_last_lobe(out):
    out["rebuilt"] = out["rebuilt"] * np.where(X > out["nodes"][-1], np.exp(0.5j), 1.0)


def _shift_slice(out):
    out["densities"] = list(out["densities"])
    out["densities"][1] = np.roll(out["densities"][1], 3)


PERTURBATIONS = {
    "nodes": lambda out: out.update(nodes=out["nodes"][:-1]),
    "phases": _last_phase_plus,
    "fidelity": _rotate_last_lobe,
    "normalisation": lambda out: out.update(
        densities=[d * (1 + 1e-5) for d in out["densities"]]),
    "quadrature": _shift_slice,
}

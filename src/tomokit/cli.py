"""Command-line front end.

One verb per workflow: simulate tomogram slices of a state, reconstruct
phases from a slice bundle, evolve the classical oscillator pair (with
optional initial-tomogram recovery), and measure completeness of a slice
set.  Slices and trajectories are CSV, reports and manifests JSON; every
failure exits nonzero with a single "ERROR <code>: ..." line on stderr.
Each flag is validated once, by its ``type=`` callable in :func:`build_parser`.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import core, io, transform
from .errors import (InconsistentTomogramsError, InsufficientDataError,
                     InvalidArgumentError, OutOfRangeError, TomokitError,
                     UnsupportedError)

_DEFAULT_GRID = "-12,12,2048"


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _parse_grid(text: str) -> core.SpatialGrid:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidArgumentError(
            f"--grid wants x_min,x_max,n_points, got {text!r}")
    try:
        x_min, x_max, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidArgumentError(f"malformed --grid value {text!r}") from None
    return core.make_grid(x_min, x_max, n)


def _parse_direction(text: str) -> tuple[float, float]:
    parts = _parse_float_list(text, "--direction")
    if len(parts) != 2:
        raise InvalidArgumentError(f"--direction wants mu,nu, got {text!r}")
    return parts


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise InvalidArgumentError(f"malformed {flag} value {text!r}") from None


def _parse_breakpoints(text: str) -> tuple[float, ...]:
    cuts = _parse_float_list(text, "--breakpoints")
    if not (np.all(np.isfinite(cuts)) and np.all(np.diff(cuts) > 0.0)):
        raise InvalidArgumentError(
            f"--breakpoints must be finite and strictly increasing, got {text!r}")
    return cuts


def _nonnegative(convert, flag: str):
    """Parser of one finite, nonnegative number for ``flag``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise InvalidArgumentError(f"malformed {flag} value {text!r}") from None
        if not 0 <= value < np.inf:
            raise InvalidArgumentError(f"{flag} must be finite and nonnegative")
        return value
    return parse


def _existing_dir(text: str) -> str:
    if not os.path.isdir(text):
        raise InvalidArgumentError(f"input directory {text!r} does not exist")
    return text


def _existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise InvalidArgumentError(f"truth state file {text!r} does not exist")
    return text


class _Rate(NamedTuple):
    """A parsed --omega or --force preset."""

    name: str
    params: tuple[float, ...]
    at: Callable[[float], float]


def _parse_rate(flag: str):
    def parse(text: str) -> _Rate:
        from . import dynamics
        name, _, rest = text.partition(":")
        params = _parse_float_list(rest, flag) if rest else ()
        return _Rate(name, params, dynamics.rate_preset(name, params))
    return parse


def _resolve_state(spec: str | None, grid: core.SpatialGrid) -> core.WaveFunction:
    if spec is None:
        raise InvalidArgumentError("this command needs --state")
    name, _, rest = spec.partition(":")
    if name == "vacuum" and not rest:
        return core.sample_state(core.GaussianPreset(), grid)
    if name == "gaussian":
        params = _parse_float_list(rest, "--state gaussian") if rest else ()
        if len(params) != 3:
            raise InvalidArgumentError(
                "--state gaussian wants gaussian:x0,p0,sigma")
        return core.sample_state(core.GaussianPreset(*params), grid)
    if name == "fock":
        try:
            n = int(rest)
        except ValueError:
            raise InvalidArgumentError("--state fock wants fock:n") from None
        return core.sample_state(core.FockPreset(n), grid)
    if os.path.isfile(spec):
        psi = io.read_wavefunction_csv(spec)
        core._check_sampling(psi.amplitudes, f"state file {spec!r}")
        return psi
    raise InvalidArgumentError(
        f"state {spec!r} is neither a preset (vacuum, gaussian:x0,p0,sigma, "
        "fock:n) nor an existing file")


def _ensure_outdir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidArgumentError(f"output directory {path!r} cannot be "
                                   f"created: {exc.strerror}") from None
    if not os.access(path, os.W_OK):
        raise InvalidArgumentError(f"output directory {path!r} is not writable")


def _write_manifest(outdir: str, command: str, names, extra: dict | None = None) -> None:
    payload = {
        "command": command,
        "files": {n: io.sha256_of(os.path.join(outdir, n)) for n in sorted(names)},
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        payload.update(extra)
    io.write_json(os.path.join(outdir, "manifest.json"), payload)


def _noisy(s: transform.TomogramSlice, rel: float, seed: int,
           index: int) -> transform.TomogramSlice:
    rng = np.random.default_rng([seed, index])
    d = s.density * (1.0 + rel * rng.standard_normal(s.density.size))
    return transform.TomogramSlice(s.mu, s.nu, s.grid,
                                   np.where(d < 0.0, 0.0, d), renormalize=True)


def cmd_simulate(args: argparse.Namespace) -> None:
    if not args.direction:
        raise InvalidArgumentError("simulate needs at least one --direction")
    psi = _resolve_state(args.state, args.grid)
    slices = {}
    for i, (mu, nu) in enumerate(args.direction):
        s = transform.tomogram(psi, mu, nu)
        slices[f"slice_{i:03d}.csv"] = (
            _noisy(s, args.noise, args.seed, i) if args.noise > 0.0 else s)
    _ensure_outdir(args.out)
    for name, s in slices.items():
        io.write_slice_csv(os.path.join(args.out, name), s)
    _write_manifest(args.out, "simulate", slices, {
        "directions": [[float(m), float(n)] for m, n in args.direction]})


def _load_slices(directory: str) -> list[transform.TomogramSlice]:
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("slice") and n.endswith(".csv"))
    return [io.read_slice_csv(os.path.join(directory, n)) for n in names]


def cmd_reconstruct(args: argparse.Namespace) -> None:
    from . import reconstruct
    slices = _load_slices(args.in_dir)
    position = next((s for s in slices if s.is_position), None)
    if position is None:
        raise InvalidArgumentError(
            "no position slice (mu, nu) = (1, 0) in the input directory")
    extras = [s for s in slices if s is not position]
    if args.breakpoints:
        bps = np.asarray(args.breakpoints, dtype=float)
    elif args.method == "nodes":
        bps = reconstruct.detect_nodes(position)
    else:
        raise InvalidArgumentError("--method piecewise needs --breakpoints")
    report_path = os.path.join(args.out, "reconstruction.json")
    try:
        if args.method == "nodes":
            result = reconstruct.recover_phases_nodes(position, extras, bps)
        else:
            result = reconstruct.recover_phases_piecewise(bps, position, extras)
    except (InsufficientDataError, InconsistentTomogramsError) as exc:
        _ensure_outdir(args.out)
        io.write_json(report_path, {"phases": [], "residual": None,
                                    "condition_estimate": None,
                                    "status": exc.code})
        raise
    payload = {"phases": [float(p) for p in result.phases],
               "residual": result.residual,
               "condition_estimate": result.condition_estimate,
               "status": result.status}
    if args.truth is not None:
        truth = io.read_wavefunction_csv(args.truth)
        if truth.grid != position.grid:
            raise InvalidArgumentError(
                "truth state and slices live on different grids")
        rebuilt = reconstruct.assemble_state(
            reconstruct.piecewise_from_position(bps, position, result.phases),
            position.grid)
        payload["fidelity"] = float(abs(truth.inner(rebuilt)) ** 2)
    _ensure_outdir(args.out)
    io.write_json(report_path, payload)
    _write_manifest(args.out, "reconstruct", ["reconstruction.json"])


def _recovery_request(args: argparse.Namespace):
    """Check a --recover-at request before anything is integrated or
    written; returns (omega, initial state, sorted distinct times).

    Recovery builds the position history from transform slices of the
    initial state, which needs constant frequency and no driving force.
    """
    if args.omega.name != "constant":
        raise UnsupportedError(
            "--recover-at supports only a constant --omega preset")
    if args.force.name != "constant" or any(p != 0.0 for p in args.force.params):
        raise UnsupportedError("--recover-at supports only zero --force")
    times = sorted(set(args.recover_at))
    if not all(0.0 <= t <= args.t_max for t in times):
        raise OutOfRangeError(
            f"--recover-at times must lie in [0, {args.t_max!r}]")
    psi = _resolve_state(args.state, args.grid)
    return args.omega.params[0], psi, times


def cmd_evolve(args: argparse.Namespace) -> None:
    from . import dynamics
    spec = dynamics.OscillatorSpec(args.omega.at, args.force.at, args.t_max, args.dt)
    recovery = _recovery_request(args) if args.recover_at else None
    traj = dynamics.solve_epsilon_delta(spec)
    recovered = {}
    if recovery is not None:
        omega_value, psi, times = recovery
        history = dynamics.harmonic_position_history(psi, times, omega_value)
        for i, t in enumerate(times):
            recovered[f"recovered_{i:03d}.csv"] = (
                t, dynamics.initial_tomogram_from_oscillator(history, traj, t))
    _ensure_outdir(args.out)
    io.write_trajectory_csv(os.path.join(args.out, "trajectory.csv"), traj)
    for name, (_, s) in recovered.items():
        io.write_slice_csv(os.path.join(args.out, name), s)
    _write_manifest(args.out, "evolve", ["trajectory.csv", *recovered], {
        "recovered": [{"file": name, "time": t}
                      for name, (t, _) in recovered.items()]})


def cmd_measure(args: argparse.Namespace) -> None:
    from . import completeness
    slices = _load_slices(args.in_dir)
    if not slices:
        raise InvalidArgumentError(f"no slice_*.csv files in {args.in_dir!r}")
    report = completeness.gaussian_completeness(
        completeness.MeasurementSet(tuple(slices)),
        purity_assumed=args.assume_pure)
    _ensure_outdir(args.out)
    io.write_json(os.path.join(args.out, "completeness.json"), report.payload())
    _write_manifest(args.out, "measure", ["completeness.json"])


def build_parser() -> _Parser:
    parser = _Parser(prog="tomokit",
                     description="Symplectic tomograms of 1D wavefunctions: "
                                 "simulate, reconstruct, evolve, measure.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write tomogram slice CSVs")
    sim.set_defaults(handler=cmd_simulate)
    sim.add_argument("--state", required=True,
                     help="vacuum | gaussian:x0,p0,sigma | fock:n | CSV path")
    sim.add_argument("--grid", type=_parse_grid, default=_DEFAULT_GRID,
                     help="x_min,x_max,n_points")
    sim.add_argument("--direction", type=_parse_direction, action="append",
                     default=[], metavar="MU,NU",
                     help="repeatable measurement direction")
    sim.add_argument("--noise", type=_nonnegative(float, "--noise"), default=0.0,
                     help="relative multiplicative noise level")
    sim.add_argument("--seed", type=_nonnegative(int, "--seed"), default=0,
                     help="noise RNG seed")
    sim.add_argument("--out", default=".", help="output directory")

    rec = sub.add_parser("reconstruct", help="recover segment phases from slices")
    rec.set_defaults(handler=cmd_reconstruct)
    rec.add_argument("--in", dest="in_dir", type=_existing_dir, required=True,
                     help="directory holding slice_*.csv")
    rec.add_argument("--breakpoints", type=_parse_breakpoints,
                     help="comma-separated cut positions")
    rec.add_argument("--method", choices=("nodes", "piecewise"),
                     default="nodes")
    rec.add_argument("--truth", type=_existing_file,
                     help="wavefunction CSV to score fidelity against")
    rec.add_argument("--out", default=".", help="output directory")

    evo = sub.add_parser("evolve", help="integrate the oscillator pair")
    evo.set_defaults(handler=cmd_evolve)
    evo.add_argument("--omega", type=_parse_rate("--omega"), required=True,
                     help="constant:w | linear-ramp:start,slope | "
                          "cosine-modulated:base,depth,rate")
    evo.add_argument("--force", type=_parse_rate("--force"),
                     default="constant:0", help="same presets")
    evo.add_argument("--t-max", dest="t_max", type=float, required=True)
    evo.add_argument("--dt", type=float, required=True)
    evo.add_argument("--recover-at", dest="recover_at", metavar="T1,T2,...",
                     type=lambda text: _parse_float_list(text, "--recover-at"),
                     help="recover the initial tomogram at these times")
    evo.add_argument("--state", help="initial state for recovery")
    evo.add_argument("--grid", type=_parse_grid, default=_DEFAULT_GRID,
                     help="x_min,x_max,n_points")
    evo.add_argument("--out", default=".", help="output directory")

    mea = sub.add_parser("measure", help="report completeness of a slice set")
    mea.set_defaults(handler=cmd_measure)
    mea.add_argument("--in", dest="in_dir", type=_existing_dir, required=True,
                     help="directory holding slice_*.csv")
    mea.add_argument("--assume-pure", dest="assume_pure", action="store_true")
    mea.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except TomokitError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

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
import errno
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import core, io, transform
from .errors import (InconsistentTomogramsError, InsufficientDataError,
                     InvalidArgumentError, OutOfRangeError, TomokitError,
                     UnsupportedError)

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


def _parse_breakpoints(text: str) -> np.ndarray:
    return core._increasing(_parse_float_list(text, "--breakpoints"), f"--breakpoints={text}")


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


def _existing(exists, what: str):
    """Parser of a path for which ``exists`` holds, named ``what``."""
    def parse(text: str) -> str:
        if not exists(text):
            raise InvalidArgumentError(f"{what} {text!r} does not exist")
        return text
    return parse


def _parse_rate(flag: str):
    def parse(text: str):
        from . import dynamics
        name, _, rest = text.partition(":")
        params = _parse_float_list(rest, flag) if rest else ()
        return dynamics.rate_preset(name, params)
    return parse


def _state_file(path: str, what: str, grid: core.SpatialGrid | None,
                against: str) -> core.WaveFunction:
    """The state in file ``path``, named ``what``, as read: a given ``grid``,
    named ``against``, must describe the file's grid, and the amplitudes
    pass the admission rule of :func:`core._admit`."""
    psi = io.read_wavefunction_csv(path)
    g = psi.grid
    if grid is not None and not io.same_grid(grid, g):
        raise InvalidArgumentError(
            f"{against}{grid.x_min!r},{grid.x_max!r},{grid.n_points} does not "
            f"describe the grid {g.x_min!r},{g.x_max!r},{g.n_points} of "
            f"{what} {path!r}")
    core._admit(psi.amplitudes, f"{what} {path!r}")
    return psi


def _resolve_state(spec: str | None,
                   grid: core.SpatialGrid | None) -> core.WaveFunction:
    """A preset sampled on ``grid`` (default_grid() when None), or a file
    state on its own grid, which an explicit ``grid`` must describe."""
    if spec is None:
        raise InvalidArgumentError("this command needs --state")
    name, _, rest = spec.partition(":")
    on = core.default_grid() if grid is None else grid
    if name == "vacuum" and not rest:
        return core.sample_state(core.GaussianPreset(), on)
    if name == "gaussian":
        params = _parse_float_list(rest, "--state gaussian") if rest else ()
        if len(params) != 3:
            raise InvalidArgumentError(
                "--state gaussian wants gaussian:x0,p0,sigma")
        return core.sample_state(core.GaussianPreset(*params), on)
    if name == "fock":
        try:
            n = int(rest)
        except ValueError:
            raise InvalidArgumentError("--state fock wants fock:n") from None
        return core.sample_state(core.FockPreset(n), on)
    if os.path.isfile(spec):
        return _state_file(spec, "state file", grid, "--grid=")
    raise InvalidArgumentError(
        f"state {spec!r} is neither a preset (vacuum, gaussian:x0,p0,sigma, "
        "fock:n) nor an existing file")


def _publish(outdir: str, files: dict, command: str | None = None, extra=()) -> None:
    """Create ``outdir``, write each ``name: (writer, value)`` into it and,
    given a command, the manifest of those files plus the ``extra`` items.
    An output name taken by a directory is refused before the first write."""

    def refuse(path, reason):
        raise InvalidArgumentError(f"output file {path!r} cannot be "
                                   f"written: {reason}") from None

    for name in [*files, *(["manifest.json"] if command is not None else [])]:
        path = os.path.join(outdir, name)
        if os.path.isdir(path):
            refuse(path, os.strerror(errno.EISDIR))
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise InvalidArgumentError(f"output directory {outdir!r} cannot be "
                                   f"created: {exc.strerror}") from None
    if not os.access(outdir, os.W_OK):
        raise InvalidArgumentError(f"output directory {outdir!r} is not writable")

    def put(name, write, value):
        path = os.path.join(outdir, name)
        try:
            write(path, value)
        except OSError as exc:
            refuse(path, exc.strerror)

    for name, (write, value) in files.items():
        put(name, write, value)
    if command is not None:
        put("manifest.json", io.write_json, {
            "command": command,
            "files": {n: io.sha256_of(os.path.join(outdir, n)) for n in sorted(files)},
            "created_at": datetime.now(timezone.utc).isoformat(),
            **dict(extra)})


def _noisy(s: transform.TomogramSlice, rel: float, seed: int,
           index: int) -> transform.TomogramSlice:
    rng = np.random.default_rng([seed, index])
    with np.errstate(over="ignore", invalid="ignore"):
        d = s.density * (1.0 + rel * rng.standard_normal(s.density.size))
        d = np.where(d < 0.0, 0.0, d)
        integral = float(d.sum() * s.grid.dx)
    if not 0.0 < integral < np.inf:
        raise InvalidArgumentError(
            f"--noise {rel!r} leaves slice {index} without a finite, positive integral")
    return transform.TomogramSlice(s.mu, s.nu, s.grid, d / integral)


def cmd_simulate(args: argparse.Namespace) -> None:
    if not args.direction:
        raise InvalidArgumentError("simulate needs at least one --direction")
    psi = _resolve_state(args.state, args.grid)
    slices = {}
    for i, (mu, nu) in enumerate(args.direction):
        s = transform.tomogram(psi, mu, nu)
        slices[f"slice_{i:03d}.csv"] = (io.write_slice_csv, (
            _noisy(s, args.noise, args.seed, i) if args.noise > 0.0 else s))
    _publish(args.out, slices, "simulate", {
        "directions": [[float(m), float(n)] for m, n in args.direction]})


def _load_slices(directory: str) -> list[transform.TomogramSlice]:
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("slice_") and n.endswith(".csv"))
    return [io.read_slice_csv(os.path.join(directory, n)) for n in names]


def cmd_reconstruct(args: argparse.Namespace) -> None:
    from . import reconstruct
    slices = _load_slices(args.in_dir)
    position = next((s for s in slices if s.is_position), None)
    if position is None:
        raise InvalidArgumentError(
            "no position slice (mu, nu) = (1, 0) in the input directory")
    extras = [s for s in slices if s is not position]
    bps = args.breakpoints
    if bps is None:
        if args.method != "nodes":
            raise InvalidArgumentError("--method piecewise needs --breakpoints")
        bps = reconstruct.detect_nodes(position)
    try:
        if args.method == "nodes":
            result = reconstruct.recover_phases_nodes(position, extras, bps)
        else:
            result = reconstruct.recover_phases_piecewise(bps, position, extras)
    except (InsufficientDataError, InconsistentTomogramsError) as exc:
        _publish(args.out, {"reconstruction.json": (io.write_json, {
            "phases": [], "residual": None, "condition_estimate": None,
            "status": exc.code})})
        raise
    payload = {"phases": [float(p) for p in result.phases],
               "residual": result.residual,
               # a singular fit estimates inf, which JSON cannot hold
               "condition_estimate": (result.condition_estimate
                                      if np.isfinite(result.condition_estimate) else None),
               "status": result.status}
    if args.truth is not None:
        read = _state_file(args.truth, "truth file", position.grid, "the slices' grid ")
        truth = core.WaveFunction(position.grid, read.amplitudes, normalize=False)
        rebuilt = reconstruct.assemble_state(
            reconstruct.piecewise_from_position(bps, position, result.phases),
            position.grid)
        # both states have unit norm, so an excess over 1 is roundoff
        payload["fidelity"] = min(1.0, float(abs(truth.inner(rebuilt)) ** 2))
    _publish(args.out, {"reconstruction.json": (io.write_json, payload)}, "reconstruct")


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
    spec = dynamics.OscillatorSpec(args.omega, args.force, args.t_max, args.dt)
    if not args.recover_at and (args.state, args.grid) != (None, None):
        raise InvalidArgumentError("--state and --grid only serve --recover-at")
    recovery = _recovery_request(args) if args.recover_at else None
    traj = dynamics.solve_epsilon_delta(spec)
    files = {"trajectory.csv": (io.write_trajectory_csv, traj)}
    recovered = []
    if recovery is not None:
        omega_value, psi, times = recovery
        history = dynamics.harmonic_position_history(psi, times, omega_value)
        for i, t in enumerate(times):
            name = f"recovered_{i:03d}.csv"
            files[name] = (io.write_slice_csv,
                           dynamics.initial_tomogram_from_oscillator(history, traj, t))
            recovered.append({"file": name, "time": t})
    _publish(args.out, files, "evolve", {"recovered": recovered})


def cmd_measure(args: argparse.Namespace) -> None:
    from . import completeness
    slices = _load_slices(args.in_dir)
    if not slices:
        raise InvalidArgumentError(f"no slice_*.csv files in {args.in_dir!r}")
    report = completeness.gaussian_completeness(
        completeness.MeasurementSet(tuple(slices)),
        purity_assumed=args.assume_pure)
    _publish(args.out, {"completeness.json": (io.write_json, report.payload())}, "measure")


def build_parser() -> _Parser:
    parser = _Parser(prog="tomokit",
                     description="Symplectic tomograms of 1D wavefunctions: "
                                 "simulate, reconstruct, evolve, measure.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write tomogram slice CSVs")
    sim.set_defaults(handler=cmd_simulate)
    sim.add_argument("--state", required=True,
                     help="vacuum | gaussian:x0,p0,sigma | fock:n | CSV path")
    sim.add_argument("--grid", type=_parse_grid,
                     help="x_min,x_max,n_points (default -12,12,2048; a state "
                          "file keeps its own)")
    sim.add_argument("--direction", type=_parse_direction, action="append",
                     default=[], metavar="MU,NU",
                     help="repeatable measurement direction")
    sim.add_argument("--noise", type=_nonnegative(float, "--noise"), default=0.0,
                     help="relative multiplicative noise level")
    sim.add_argument("--seed", type=_nonnegative(int, "--seed"), default=0,
                     help="noise RNG seed")
    sim.add_argument("--out", default=".", help="output directory")

    rec = sub.add_parser(
        "reconstruct", help="recover segment phases from slices",
        description="Recover one phase per segment from a position slice and "
                    "extra slices; segments end at --breakpoints or at the "
                    "nodes of the position density.  A phase jump other than "
                    "pi at a node leaves a kink whose oblique slices decay "
                    "only as 1/X^2, so the slices need a far wider grid than "
                    "the state: fock:1 with a pi/2 jump, at the default "
                    "spacing, keeps its norm within 1e-8 on [-192, 192] but "
                    "not on [-96, 96].")
    rec.set_defaults(handler=cmd_reconstruct)
    rec.add_argument("--in", dest="in_dir", type=_existing(os.path.isdir, "input directory"),
                     required=True, help="directory holding slice_*.csv")
    rec.add_argument("--breakpoints", type=_parse_breakpoints,
                     help="comma-separated cut positions")
    rec.add_argument("--method", choices=("nodes", "piecewise"),
                     default="nodes")
    rec.add_argument("--truth", type=_existing(os.path.isfile, "truth state file"),
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
    evo.add_argument("--grid", type=_parse_grid,
                     help="x_min,x_max,n_points (default -12,12,2048; a state "
                          "file keeps its own)")
    evo.add_argument("--out", default=".", help="output directory")

    mea = sub.add_parser("measure", help="report completeness of a slice set")
    mea.set_defaults(handler=cmd_measure)
    mea.add_argument("--in", dest="in_dir", type=_existing(os.path.isdir, "input directory"),
                     required=True, help="directory holding slice_*.csv")
    mea.add_argument("--assume-pure", dest="assume_pure", action="store_true")
    mea.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            args.handler(args)
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            raise InvalidArgumentError(
                f"the {args.command} request does not fit in memory{detail}") from None
    except TomokitError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

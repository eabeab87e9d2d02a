"""File formats: CSV for densities and trajectories, JSON for reports.

Floats are serialized with repr, so a write/read round trip is bit-exact.
All writes go through a temp file in the target directory followed by an
atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from .core import SpatialGrid, WaveFunction
from .errors import ParseError, TomokitError
from .transform import TomogramSlice

if TYPE_CHECKING:
    from .dynamics import OscillatorTrajectory

_GRID_UNIFORM_RTOL = 1e-9


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_json(path, payload: dict) -> None:
    """Strict JSON: a nan or infinite float raises ValueError, never
    reaching the file as the NaN or Infinity that JSON has no word for."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       allow_nan=False) + "\n")


def same_grid(a: SpatialGrid, b: SpatialGrid) -> bool:
    """Whether a and b are one grid as a CSV round trip keeps it: as many
    points, and ends that agree within _GRID_UNIFORM_RTOL of b's width."""
    atol = _GRID_UNIFORM_RTOL * (b.x_max - b.x_min)
    return (a.n_points == b.n_points and abs(a.x_min - b.x_min) <= atol
            and abs(a.x_max - b.x_max) <= atol)


def _built_on_x(x: np.ndarray, path, build):
    """build(grid) on the uniform grid of the x column.  Any TomokitError
    of the build gets path as a prefix; its class and exit status stay."""
    if x.size < 2:
        raise ParseError(f"{path}: need at least two rows")
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite width fails below
        dx = (x[-1] - x[0]) / (x.size - 1)
        uniform = np.max(np.abs(np.diff(x) - dx)) <= _GRID_UNIFORM_RTOL * dx
    if not (0.0 < dx < np.inf and uniform):
        raise ParseError(f"{path}: x column is not a uniform ascending grid of finite width")
    try:
        return build(SpatialGrid(float(x[0]), float(dx), x.size))
    except TomokitError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; any other bytes, or a file that
    cannot be read, are a ParseError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot be read: {exc.strerror}") from None
    try:
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: bytes that are not UTF-8") from None


def _parse_rows(path, lines: list[str], n_columns: int, skip: int) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(lines[skip:], start=skip + 1):
        parts = line.strip().split(",")
        if len(parts) != n_columns:
            raise ParseError(
                f"{path}:{lineno}: expected {n_columns} columns, got "
                f"{len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: malformed float") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}:{skip + 1 + bad[0]}: non-finite number")
    return data


def _write_table(path, head: list[str], *columns: np.ndarray) -> None:
    """The header lines, then one row per sample: the repr of each float64
    column's value, joined by commas."""
    rows = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
    atomic_write_text(path, "\n".join([*head, *rows]) + "\n")


def write_slice_csv(path, s: TomogramSlice) -> None:
    _write_table(path, [f"# mu={float(s.mu)!r} nu={float(s.nu)!r}", "X,density"],
                 s.grid.points, s.density)


def read_slice_csv(path) -> TomogramSlice:
    lines = _read_lines(path)
    header, columns = [line.strip() for line in (lines[:2] + ["", ""])[:2]]
    try:
        tags = dict(item.split("=", 1) for item in header.lstrip("# ").split())
        mu, nu = float(tags["mu"]), float(tags["nu"])
    except (KeyError, ValueError):
        raise ParseError(
            f"{path}:1: expected a '# mu=<float> nu=<float>' header") from None
    if not (np.isfinite(mu) and np.isfinite(nu)):
        raise ParseError(f"{path}:1: non-finite number")
    if columns != "X,density":
        raise ParseError(f"{path}:2: expected the column header 'X,density'")
    data = _parse_rows(path, lines, 2, skip=2)
    return _built_on_x(data[:, 0], path, lambda grid: TomogramSlice(mu, nu, grid, data[:, 1]))


def write_wavefunction_csv(path, psi: WaveFunction) -> None:
    """The format read_wavefunction_csv reads; a library call."""
    a = psi.amplitudes
    _write_table(path, ["x,real,imag"], psi.grid.points, a.real, a.imag)


def read_wavefunction_csv(path) -> WaveFunction:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "x,real,imag":
        raise ParseError(f"{path}:1: expected the column header 'x,real,imag'")
    data = _parse_rows(path, lines, 3, skip=1)
    return _built_on_x(data[:, 0], path, lambda grid: WaveFunction(
        grid, data[:, 1] + 1j * data[:, 2], normalize=False))


def write_trajectory_csv(path, traj: OscillatorTrajectory) -> None:
    head = "t,eps_re,eps_im,eps_dot_re,eps_dot_im,delta_re,delta_im,wronskian"
    e, ed, d = traj.epsilon, traj.epsilon_dot, traj.delta
    _write_table(path, [head], traj.times, e.real, e.imag, ed.real, ed.imag,
                 d.real, d.imag, traj.wronskian())

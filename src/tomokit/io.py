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
from .errors import ParseError
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
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _grid_from_x(x: np.ndarray, path) -> SpatialGrid:
    if x.size < 2:
        raise ParseError(f"{path}: need at least two rows")
    dx = (x[-1] - x[0]) / (x.size - 1)
    if dx <= 0 or np.max(np.abs(np.diff(x) - dx)) > _GRID_UNIFORM_RTOL * abs(dx):
        raise ParseError(f"{path}: x column is not a uniform ascending grid")
    return SpatialGrid(float(x[0]), float(dx), x.size)


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; any other bytes are a ParseError."""
    with open(path, "rb") as fh:
        raw = fh.read()
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


def write_slice_csv(path, s: TomogramSlice) -> None:
    lines = [f"# mu={float(s.mu)!r} nu={float(s.nu)!r}", "X,density"]
    lines.extend(f"{float(x)!r},{float(d)!r}"
                 for x, d in zip(s.grid.points, s.density))
    atomic_write_text(path, "\n".join(lines) + "\n")


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
    grid = _grid_from_x(data[:, 0], path)
    return TomogramSlice(mu, nu, grid, data[:, 1])


def write_wavefunction_csv(path, psi: WaveFunction) -> None:
    lines = ["x,real,imag"]
    lines.extend(f"{float(x)!r},{float(a.real)!r},{float(a.imag)!r}"
                 for x, a in zip(psi.grid.points, psi.amplitudes))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_wavefunction_csv(path) -> WaveFunction:
    lines = _read_lines(path)
    if not lines or lines[0].strip() != "x,real,imag":
        raise ParseError(f"{path}:1: expected the column header 'x,real,imag'")
    data = _parse_rows(path, lines, 3, skip=1)
    grid = _grid_from_x(data[:, 0], path)
    return WaveFunction(grid, data[:, 1] + 1j * data[:, 2], normalize=False)


def write_trajectory_csv(path, traj: OscillatorTrajectory) -> None:
    w = traj.wronskian()
    lines = ["t,eps_re,eps_im,eps_dot_re,eps_dot_im,delta_re,delta_im,wronskian"]
    for i, t in enumerate(traj.times):
        e, ed, d = traj.epsilon[i], traj.epsilon_dot[i], traj.delta[i]
        lines.append(",".join(repr(float(v)) for v in
                              (t, e.real, e.imag, ed.real, ed.imag,
                               d.real, d.imag, w[i])))
    atomic_write_text(path, "\n".join(lines) + "\n")

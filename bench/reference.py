"""Input draws and the independent references the workload checks use.

Nothing here imports tomokit: direction and time draws, closed forms, an
O(N^2) quadrature of the transform kernel, the entropy function g, the
spectrum of a two-member mixture, and plain readers for the CLI's output
files.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Directions stay at least this far (rad) from the position axis; see the
# README for why.
MIN_ANGLE = 0.26


def draw_directions(rng, n):
    """n unit directions, one per equal stratum of [MIN_ANGLE, pi - MIN_ANGLE]."""
    lo, hi = MIN_ANGLE, np.pi - MIN_ANGLE
    u = rng.uniform(0.15, 0.85, n)
    theta = lo + (hi - lo) * (np.arange(n) + u) / n
    return [(float(np.cos(t)), float(np.sin(t))) for t in theta]


def oblique_direction(rng):
    """Unit direction at least MIN_ANGLE from both axes."""
    theta = rng.uniform(MIN_ANGLE, 0.5 * np.pi - MIN_ANGLE)
    if rng.uniform() < 0.5:
        theta += 0.5 * np.pi
    return float(np.cos(theta)), float(np.sin(theta))


def draw_times(rng, n, t_max, omega=1.0):
    """n sorted times in [0.3, t_max], at least 0.05 apart, whose direction
    (cos wt, sin wt / w) keeps MIN_ANGLE from the position axis."""
    times = []
    while len(times) < n:
        t = rng.uniform(0.3, t_max)
        if (line_angle(np.cos(omega * t), np.sin(omega * t) / omega) >= MIN_ANGLE
                and all(abs(t - u) >= 0.05 for u in times)):
            times.append(float(t))
    return sorted(times)


def line_angle(mu, nu):
    """Angle between the line through (mu, nu) and the position axis."""
    a = abs(float(np.arctan2(nu, mu)))
    return min(a, np.pi - a)


def wrap(angle):
    """Angle folded into (-pi, pi]."""
    return float(np.angle(np.exp(1j * angle)))


def gaussian_density(x, mean, var):
    return np.exp(-(x - mean) ** 2 / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def gaussian_amplitudes(x, x0, p0, sigma):
    """Normalised Gaussian packet with position spread sigma, mean momentum p0."""
    amps = np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * p0 * x)
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2) * (x[1] - x[0]))


def direct_tomogram(values, x, mu, nu, block=128):
    """|transform|^2 by explicit O(N^2) summation of the kernel
    exp(-i X y/nu + i mu y^2/(2 nu)) over the input samples, in row blocks."""
    dy = x[1] - x[0]
    chirped = values * np.exp(0.5j * mu * x ** 2 / nu) * dy / np.sqrt(2.0 * np.pi * abs(nu))
    out = np.empty(x.size)
    for lo in range(0, x.size, block):
        kernel = np.exp(-1j * np.outer(x[lo:lo + block], x) / nu)
        out[lo:lo + block] = np.abs(kernel @ chirped) ** 2
    return out


def g_entropy(v):
    """(v+1) ln(v+1) - v ln v, with 0 ln 0 = 0."""
    v = float(v)
    return (v + 1.0) * np.log(v + 1.0) - (v * np.log(v) if v > 0.0 else 0.0)


def mixture_entropy_two(w1, w2, overlap):
    """Entropy of w1|a><a| + w2|b><b| from the eigenvalues of its 2x2 form."""
    disc = np.sqrt((w1 - w2) ** 2 + 4.0 * w1 * w2 * abs(overlap) ** 2)
    lam = np.array([0.5 * (1.0 + disc), 0.5 * (1.0 - disc)])
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def read_slice(path):
    """(mu, nu, X, density) from a slice CSV."""
    with open(path) as fh:
        tags = dict(t.split("=", 1) for t in fh.readline()[1:].split())
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    return float(tags["mu"]), float(tags["nu"]), data[:, 0], data[:, 1]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_wavefunction(path, x, amps):
    rows = (f"{float(a)!r},{float(b.real)!r},{float(b.imag)!r}" for a, b in zip(x, amps))
    with open(path, "w") as fh:
        fh.write("x,real,imag\n" + "\n".join(rows) + "\n")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def manifest_mismatches(directory):
    """Files whose digest differs from manifest.json, or that it omits or
    lists without the file being there."""
    listed = read_json(os.path.join(directory, "manifest.json"))["files"]
    present = set(os.listdir(directory)) - {"manifest.json"}
    bad = sorted(set(listed) ^ present)
    bad += [n for n in sorted(set(listed) & present)
            if sha256(os.path.join(directory, n)) != listed[n]]
    return bad

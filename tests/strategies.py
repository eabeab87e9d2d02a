"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import assume, strategies as st


@st.composite
def directions(draw, r_min=0.5, r_max=1.5, oblique=True):
    """(mu, nu) of length r in [r_min, r_max].

    Near-axis draws sit at an angle 10^-9 to 0.2 rad or exactly 0 from the
    position axis, with either sign of mu and of nu; with ``oblique`` half
    the draws take any angle instead.
    """
    r = draw(st.floats(r_min, r_max))
    if oblique and draw(st.booleans()):
        theta = draw(st.floats(0.0, 2.0 * np.pi))
        return r * np.cos(theta), r * np.sin(theta)
    angle = draw(st.just(0.0) | st.floats(-9.0, np.log10(0.2)).map(lambda e: 10.0 ** e))
    sign_mu, sign_nu = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    return sign_mu * r * np.cos(angle), sign_nu * r * np.sin(angle)


@st.composite
def hermite_coefficients(draw, n_max=6):
    """Complex coefficients c_0 .. c_n of sum_n c_n |n> for some n <= n_max,
    real and imaginary parts in [-1, 1], squared norm above 0.01."""
    n = draw(st.integers(0, n_max))
    parts = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                          min_size=n + 1, max_size=n + 1))
    c = np.array([a + 1j * b for a, b in parts])
    assume(np.sum(np.abs(c) ** 2) > 0.01)
    return c


# Unit directions along six lines at least 0.5 rad apart, each with the
# variants that share its line: both signs, and for position and momentum
# either sign of the zero component, whose variance rows differ in the sign
# of a zero; oblique lines may also turn by 1e-3 rad.  Direction sets then
# repeat across draws, both exactly and within a rounding of their bits.
_POSITION = [(1.0, 0.0), (-1.0, 0.0), (1.0, -0.0), (-1.0, -0.0)]
_MOMENTUM = [(0.0, 1.0), (-0.0, 1.0), (0.0, -1.0), (-0.0, -1.0)]
_OBLIQUE = [0.5, 1.0, 2.1, 2.6]


@st.composite
def _line_direction(draw, line):
    if line == 0:
        return draw(st.sampled_from(_POSITION))
    if line == 1:
        return draw(st.sampled_from(_MOMENTUM))
    theta = _OBLIQUE[line - 2] + draw(st.sampled_from([0.0, 0.0, 1e-3]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return sign * np.cos(theta), sign * np.sin(theta)


@st.composite
def gaussian_measurements(draw):
    """One ``measure`` run on closed-form slices, as a dict.

    ``sigma_xx`` in [0.3, 1.5] and ``sigma_xp`` with |sigma_xp| <= 0.4 give a
    pure covariance, which a ``scale`` in [1.2, 2.5] mixes (None keeps it
    pure); ``directions`` are 1-4 distinct lines, each a unit direction:
    position and momentum, each drawn 3 times in 4, then up to two oblique
    lines, so that every regime is drawn; ``noise`` is 0 or 1e-4, applied
    with ``seed`` as ``cli._noisy`` applies it; ``purity`` is the
    assumption.
    """
    axes = [line for line in (0, 1) if draw(st.sampled_from([True, True, True, False]))]
    lines = axes + draw(st.lists(st.integers(2, 5), min_size=0 if axes else 1,
                                 max_size=2, unique=True))
    return {"sigma_xx": draw(st.floats(0.3, 1.5)),
            "sigma_xp": draw(st.floats(-0.4, 0.4)),
            "scale": draw(st.floats(1.2, 2.5)) if draw(st.booleans()) else None,
            "directions": [draw(_line_direction(line)) for line in lines],
            "noise": draw(st.sampled_from([0.0, 1e-4])),
            "seed": draw(st.integers(0, 2 ** 16)),
            "purity": draw(st.booleans())}

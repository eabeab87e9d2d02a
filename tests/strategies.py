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

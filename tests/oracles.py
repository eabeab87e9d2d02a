"""Independent numeric references the tests check the package against.

Everything here is written the slow, obvious way (dense quadrature,
library special functions, closed forms) and shares no code with the
package internals.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import eval_hermite, gammaln


def direct_transform(values, x, mu, nu, x_out):
    """O(N^2) quadrature of the fractional integral kernel."""
    dy = x[1] - x[0]
    kernel = np.exp(1j * (-np.outer(x_out, x) / nu + 0.5 * mu * x ** 2 / nu))
    return kernel @ values * dy / np.sqrt(2.0 * np.pi * abs(nu))


def bluestein_reference(values, plan, n_out):
    """Chirp-z sum of a (..., N) stack from a transform plan's three vectors,
    written as three separate temporaries: the zero-padded FFT of the
    chirped input, its product with the kernel, and the inverse FFT."""
    padded = np.fft.fft(values * plan.pre, plan.ker.size)
    conv = np.fft.ifft(padded * plan.ker)
    return conv[..., :n_out] * plan.post


def hermite_psi(n, x):
    """Oscillator eigenfunction via the library Hermite polynomial."""
    lognorm = -0.5 * (n * np.log(2.0) + gammaln(n + 1.0) + 0.5 * np.log(np.pi))
    return np.exp(lognorm - 0.5 * x ** 2) * eval_hermite(n, x)


def gaussian_slice_density(sigma_xx, sigma_pp, sigma_xp, mu, nu, X):
    v = sigma_xx * mu ** 2 + 2.0 * sigma_xp * mu * nu + sigma_pp * nu ** 2
    return np.exp(-X ** 2 / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)


def ks_distance_two_integrals(density, x, variance):
    """Largest gap between a density's CDF and the zero-mean Gaussian CDF,
    each a running trapezoid integral of its own: the density's normalised
    by its last value, the model's started at its exact value at x[0]."""
    emp = cumulative_trapezoid(density, x, initial=0.0)
    emp /= emp[-1]
    pdf = np.exp(-x ** 2 / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)
    start = 0.5 * (1.0 + math.erf(x[0] / math.sqrt(2.0 * variance)))
    model = start + cumulative_trapezoid(pdf, x, initial=0.0)
    return float(np.max(np.abs(emp - model)))


def split_step_kinetic_first(values, x, t, omega, n_steps):
    """Harmonic propagator with kinetic-potential-kinetic splitting (the
    package uses the opposite ordering)."""
    dx = x[1] - x[0]
    k = 2.0 * np.pi * np.fft.fftfreq(x.size, dx)
    h = t / n_steps
    half_kin = np.exp(-0.25j * h * k ** 2)
    pot = np.exp(-0.5j * h * omega ** 2 * x ** 2)
    out = np.asarray(values, dtype=complex)
    for _ in range(n_steps):
        out = np.fft.ifft(half_kin * np.fft.fft(out))
        out *= pot
        out = np.fft.ifft(half_kin * np.fft.fft(out))
    return out


def free_propagate(values, x, t):
    """Free flight for time t by spectral multiplication exp(-i k^2 t/2)."""
    k = 2.0 * np.pi * np.fft.fftfreq(x.size, x[1] - x[0])
    return np.fft.ifft(np.fft.fft(values) * np.exp(-0.5j * k ** 2 * t))


def fresnel_tomogram(values, x, nu):
    """Density after free flight for time nu by O(N^2) summation of the
    Fresnel kernel (2 pi i nu)^(-1/2) exp(i (X - Y)^2/(2 nu)): the initial
    tomogram at (1, nu)."""
    dx = x[1] - x[0]
    kernel = np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (2.0 * nu))
    return np.abs(kernel @ values * dx) ** 2 / (2.0 * np.pi * abs(nu))


def mixture_entropy_two(w1, w2, overlap):
    """Entropy of w1|a><a| + w2|b><b| from the 2x2 spectrum."""
    disc = np.sqrt((w1 - w2) ** 2 + 4.0 * w1 * w2 * abs(overlap) ** 2)
    lam = np.array([(1.0 + disc) / 2.0, (1.0 - disc) / 2.0])
    lam = lam[lam > 1e-300]
    return float(-(lam * np.log(lam)).sum())


def dense_mixture_entropy(amplitudes, weights, dx):
    """Entropy of sum_j w_j |psi_j><psi_j| from the eigenvalues of the
    N x N kernel times dx."""
    n = len(amplitudes[0])
    rho = np.zeros((n, n), dtype=complex)
    for w, a in zip(weights, amplitudes):
        rho += w * np.outer(a, np.conj(a))
    lam = np.linalg.eigvalsh(rho * dx)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log(lam)).sum())


def rk4_epsilon_delta(omega, force, t_max, dt):
    """Classical RK4 on the stacked state (epsilon, epsilon', delta) with
    omega and force called at every stage; returns the sample times and
    the three complex arrays.  The steps are ``dt`` plus a short final
    step that lands on ``t_max``."""

    def rhs(t, y):
        w = float(omega(t))
        f = float(force(t))
        return np.array([y[1], -(w * w) * y[0], -1j / np.sqrt(2.0) * y[0] * f],
                        dtype=complex)

    ratio = t_max / dt
    n_full = int(round(ratio))
    if abs(ratio - n_full) > 1e-9 or n_full == 0:
        n_full = int(np.floor(ratio))
    steps = [dt] * n_full
    remainder = t_max - n_full * dt
    if remainder > 1e-12 * max(1.0, t_max):
        steps.append(remainder)

    y = np.array([1.0, 1.0j, 0.0], dtype=complex)
    times, ys = [0.0], [y]
    t = 0.0
    for h in steps:
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        times.append(t)
        ys.append(y)
    times[-1] = t_max
    ys = np.array(ys)
    return np.array(times), ys[:, 0], ys[:, 1], ys[:, 2]


def transported_distribution(initial, state, X, mu, nu):
    """Cumulative quadrature distribution at time t from the initial one.

    ``initial(X, mu, nu)`` is the t = 0 distribution and ``state`` the
    trajectory's (eps, eps', delta) at t.  The argument and direction are
    transported along the characteristics:

        X  -> X + sqrt(2) Re((mu eps + nu eps') conj(delta))
        mu -> mu Re eps + nu Re eps'
        nu -> mu Im eps + nu Im eps'
    """
    eps, epsd, delta = state
    shift = np.sqrt(2.0) * ((mu * eps + nu * epsd) * np.conj(delta)).real
    return float(initial(X + shift, mu * eps.real + nu * epsd.real,
                         mu * eps.imag + nu * epsd.imag))

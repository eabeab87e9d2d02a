"""Independent numeric references the tests check the package against.

Everything here is written the slow, obvious way (dense quadrature,
library special functions, closed forms) and shares no code with the
package internals.
"""

import decimal
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


def lstsq_pair_fit(ab):
    """Least squares of the system [A | b] as LAPACK's lstsq solves it, with
    its default rank cutoff, and the misfit A x - b formed explicitly.

    Returns the solution, the RMS misfit over the rows, the condition
    estimate sv_max/sv_min (infinite for a zero sv_min, 1 with no unknown)
    and the standard error |A x - b|/sv_min.
    """
    a, b = ab[:, :-1], ab[:, -1]
    sol, _, _, sv = np.linalg.lstsq(a, b, rcond=None)
    misfit = a @ sol - b
    residual = float(np.sqrt(np.mean(misfit ** 2)))
    if not sv.size:
        return sol, residual, 1.0, 0.0
    if sv[-1] == 0.0:
        return sol, residual, math.inf, math.inf
    return sol, residual, float(sv[0] / sv[-1]), float(np.linalg.norm(misfit) / sv[-1])


def dip_nodes(density, x, rel):
    """The deepest sample (the first of equal ones) of each run of samples
    below rel times the peak that has a sample at or above it on both
    sides, found one sample at a time."""
    cut = rel * max(density)
    nodes, seen_high, deepest = [], False, None
    for xi, di in zip(x, density):
        if di >= cut:
            if deepest is not None:
                nodes.append(deepest[1])
            seen_high, deepest = True, None
        elif seen_high and (deepest is None or di < deepest[0]):
            deepest = (di, xi)
    return np.array(nodes, dtype=float)


def hermite_psi(n, x):
    """Oscillator eigenfunction via the library Hermite polynomial."""
    lognorm = -0.5 * (n * np.log(2.0) + gammaln(n + 1.0) + 0.5 * np.log(np.pi))
    return np.exp(lognorm - 0.5 * x ** 2) * eval_hermite(n, x)


def gaussian_slice_density(sigma_xx, sigma_pp, sigma_xp, mu, nu, X):
    v = sigma_xx * mu ** 2 + 2.0 * sigma_xp * mu * nu + sigma_pp * nu ** 2
    return np.exp(-X ** 2 / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)


def uniform_trapezoid(y, dx):
    """Trapezoid rule on a uniform grid: dx times the interior sum plus
    half of each end sample."""
    return float(dx * (np.sum(y[1:-1]) + (y[0] + y[-1]) / 2.0))


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


def rk4_steps(t_max, dt):
    """The step sizes: ``dt`` repeated, plus a short final step that lands
    on ``t_max``."""
    ratio = t_max / dt
    n_full = int(round(ratio))
    if abs(ratio - n_full) > 1e-9 or n_full == 0:
        n_full = int(np.floor(ratio))
    steps = [dt] * n_full
    remainder = t_max - n_full * dt
    if remainder > 1e-12 * max(1.0, t_max):
        steps.append(remainder)
    return steps


def sequential_step_products(n):
    """The running products (I + n_j) ... (I + n_0) of a (2, 2, m) stack of
    step increments, composed one step at a time from the first, each
    returned minus I: Z_j = N_j + Z_{j-1} + N_j Z_{j-1}."""
    out = np.empty_like(n)
    z = np.zeros((2, 2))
    for j in range(n.shape[-1]):
        step = n[:, :, j]
        z = step + z + step @ z
        out[:, :, j] = z
    return out


def staged_step_increments(h, v0, vm, v1):
    """The RK4 step increments N (2, 2, m) of (epsilon, epsilon'), with
    M = I + N: one stage body run on the basis columns (1, 0) and (0, 1)
    as broadcast (2, 1) arrays against the steps h and the rates
    v = -omega^2 at each step's start v0, midpoint vm and end v1."""
    e, ed = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    h2 = 0.5 * h
    b1 = v0 * e
    e2, ed2 = e + h2 * ed, ed + h2 * b1
    b2 = vm * e2
    e3, ed3 = e + h2 * ed2, ed + h2 * b2
    e4 = e + h * ed3
    b3 = vm * e3
    ed4, b4 = ed + h * b3, v1 * e4
    return h / 6.0 * np.stack((ed + 2.0 * ed2 + 2.0 * ed3 + ed4,
                               b1 + 2.0 * b2 + 2.0 * b3 + b4))


def rk4_epsilon_delta(omega, force, t_max, dt):
    """Classical RK4 on the stacked state (epsilon, epsilon', delta) with
    omega and force called at every stage; returns the sample times and
    the three complex arrays, over the steps of ``rk4_steps``."""

    def rhs(t, y):
        w = float(omega(t))
        f = float(force(t))
        return np.array([y[1], -(w * w) * y[0], -1j / np.sqrt(2.0) * y[0] * f],
                        dtype=complex)

    y = np.array([1.0, 1.0j, 0.0], dtype=complex)
    times, ys = [0.0], [y]
    t = 0.0
    for h in rk4_steps(t_max, dt):
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


def rk4_reference(omega, force, t_max, dt, digits=50):
    """The RK4 iterate of ``rk4_epsilon_delta`` in ``decimal`` arithmetic at
    ``digits`` significant digits: the same float stage times, rate samples
    and step sizes, each converted to Decimal exactly, so what is left is
    the method's own result without float rounding.  The complex state is
    carried as real and imaginary parts; returns the sample times and the
    three arrays rounded to complex128."""
    with decimal.localcontext(decimal.Context(prec=digits)):
        D = decimal.Decimal
        drive = 1 / D(2).sqrt()

        def rhs(t, y):
            v = -D(float(omega(t))) ** 2
            f = D(float(force(t))) * drive
            er, ei, edr, edi = y[:4]
            # delta' = -(i/sqrt 2) epsilon f
            return [edr, edi, v * er, v * ei, ei * f, -er * f]

        def axpy(y, a, k):
            return [yi + a * ki for yi, ki in zip(y, k)]

        y = [D(1), D(0), D(0), D(1), D(0), D(0)]
        times, ys = [0.0], [y]
        t = 0.0
        for h in rk4_steps(t_max, dt):
            hd = D(h)
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, axpy(y, hd / 2, k1))
            k3 = rhs(t + 0.5 * h, axpy(y, hd / 2, k2))
            k4 = rhs(t + h, axpy(y, hd, k3))
            y = axpy(y, hd / 6, [a + 2 * b + 2 * c + d
                                 for a, b, c, d in zip(k1, k2, k3, k4)])
            t = t + h
            times.append(t)
            ys.append(y)
    times[-1] = t_max
    parts = np.array([[float(c) for c in y] for y in ys])
    return (np.array(times), parts[:, 0] + 1j * parts[:, 1],
            parts[:, 2] + 1j * parts[:, 3], parts[:, 4] + 1j * parts[:, 5])


def preset_rate(name, params):
    """The rate preset ``name`` as a function of one float t, in Python
    float arithmetic and ``math.cos``: nan where the cosine's argument is
    not finite."""
    params = [float(p) for p in params]
    if name == "constant":
        (value,) = params
        return lambda t: value
    if name == "linear-ramp":
        start, slope = params
        return lambda t: start + slope * t
    base, depth, rate = params

    def cosine(t):
        arg = rate * t
        return base * (1.0 + depth * math.cos(arg)) if math.isfinite(arg) else math.nan
    return cosine


def csv_text(head, *columns):
    """A CSV table as the writers once built it: the header lines, then
    one f-string row per sample of ``float(value)!r`` fields."""
    rows = [",".join(f"{float(v)!r}" for v in row) for row in zip(*columns)]
    return "\n".join(list(head) + rows) + "\n"


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


def ladder_moments(coeffs):
    """Means and covariances of the state sum_n c_n |n>, from matrices of
    x = (a + a^+)/sqrt(2) and p = i(a^+ - a)/sqrt(2) on a basis two levels
    above the top one, where every product below is exact.

    Returns (<x>, <p>, (sigma_xx, sigma_xp, sigma_pp)), sigma_xp being the
    symmetrised <(xp + px)/2> - <x><p>.
    """
    c = np.concatenate([coeffs, [0.0, 0.0]]) / np.linalg.norm(coeffs)
    a = np.diag(np.sqrt(np.arange(1.0, c.size)), 1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)

    def mean(op):
        return float(np.vdot(c, op @ c).real)

    mx, mp = mean(x), mean(p)
    return mx, mp, (mean(x @ x) - mx * mx, 0.5 * mean(x @ p + p @ x) - mx * mp,
                    mean(p @ p) - mp * mp)


def sampled_moments(density, x):
    """Mean and variance of a sampled density on uniform points x, as
    Riemann sums normalised by the density's own sum."""
    w = density / np.sum(density)
    mean = float(np.sum(w * x))
    return mean, float(np.sum(w * (x - mean) ** 2))


_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


def _unit_phasor(phase):
    """(cos, sin) of a Decimal ``phase`` by Taylor series after reduction
    to [-pi, pi], at the current context's precision."""
    two_pi = 2 * +_PI
    x = phase - two_pi * (phase / two_pi).to_integral_value()
    tiny = decimal.Decimal(10) ** -(decimal.getcontext().prec + 2)
    cos = sin = 0
    term, i = decimal.Decimal(1), 0
    while abs(term) > tiny:
        if i % 2 == 0:
            cos += term if i % 4 == 0 else -term
        else:
            sin += term if i % 4 == 1 else -term
        i += 1
        term = term * x / i
    return cos, sin


def plan_post_reference(in_grid, nu, out_grid, ks, digits=30):
    """The output vector of a transform plan at indices ``ks``,
    exp(-i(a k^2/2 + x_k y0/nu)) dy/sqrt(2 pi |nu|) with a = dx dy/nu, from
    the float grid parameters taken exactly; the phase and its exponential
    in ``decimal`` arithmetic at ``digits`` significant digits.  Returns
    the values rounded to complex128 and the phases as floats."""
    with decimal.localcontext(decimal.Context(prec=digits)):
        D = decimal.Decimal
        dy, y0, dx, x0, v = (D(float(t)) for t in (in_grid.dx, in_grid.x_min,
                                                   out_grid.dx, out_grid.x_min, nu))
        a = dx * dy / v
        w = float(dy) / math.sqrt(2.0 * math.pi * abs(float(nu)))
        values, phases = [], []
        for k in ks:
            phase = a * D(int(k)) ** 2 / 2 + (x0 + int(k) * dx) * y0 / v
            cos, sin = _unit_phasor(phase)
            values.append(complex(float(cos), -float(sin)) * w)
            phases.append(float(phase))
    return np.array(values), np.array(phases)


def thermal_entropy(nbar):
    """Entropy in nats of the photon-number distribution
    p_k = nbar^k / (nbar + 1)^(k + 1) of a thermal state, summed term by
    term until the terms vanish: the entropy of a Gaussian state whose
    symplectic eigenvalue is nbar + 1/2."""
    if nbar == 0.0:
        return 0.0
    log_q, log_norm = math.log(nbar / (nbar + 1.0)), math.log(nbar + 1.0)
    terms, k = [], 0
    while True:
        log_p = k * log_q - log_norm
        terms.append(-math.exp(log_p) * log_p)
        if k > 10 and terms[-1] < 1e-20:
            return math.fsum(terms)
        k += 1

"""Closed-form error and coherence budgets for the bistable qubit.

This module is the oracle layer: every quantity here has an independent
Monte Carlo counterpart in the simulator modules, and the test suite checks
the two against each other.

Frame convention: ``delta_f`` is the detuning of the reference (high) mode
from the rotating frame, delta_f = f_high - f_c.  A virtual detuning applied
by the protocol module plays exactly this role when probing at f_c = f_high.
All frequencies are in Hz except Rabi rates, which are angular (rad/s).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bloch import QubitParams, rabi_transition_probability

# Trajectories drawn per chunk by ak_coherence_mc; the chunk size fixes the draw
# order and bounds the per-segment arrays of a chunk's passes.
MC_CHUNK = 20000


def ramsey_likelihood(m: int, xi: int, tau, delta_f: float, params: QubitParams):
    """P(outcome m | mode xi) for one two-pulse probing cycle of length tau.

    1/2 + (-1)^(m+1) * (alpha/2) * exp(-tau/T2) * cos(2 pi (delta_f - xi*delta_tls) tau).
    Visibility alpha and T2 come from ``params``; vectorized over ``tau``.
    """
    if m not in (0, 1):
        raise ValueError("m must be 0 or 1")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    sign = 1.0 if m == 1 else -1.0
    phase = 2.0 * math.pi * (delta_f - xi * params.delta_tls) * tau
    value = 0.5 + sign * 0.5 * params.alpha * np.exp(-tau / params.t2) * np.cos(phase)
    return value if value.ndim else float(value)


def contrast(delta_tls: float, tau, alpha: float, t2: float, delta_f: float = 0.0):
    """Signal contrast |P(1|xi=0) - P(1|xi=1)| of the probing cycle.

    Equal to |alpha exp(-tau/T2) sin(2 pi (delta_f - delta_tls/2) tau)
    * sin(pi delta_tls tau)|; in the delta_f = 0 frame the two sine factors
    coincide and the contrast is alpha exp(-tau/T2) sin^2(pi delta_tls tau).
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    value = np.abs(
        alpha
        * np.exp(-tau / t2)
        * np.sin(2.0 * math.pi * (delta_f - 0.5 * delta_tls) * tau)
        * np.sin(math.pi * delta_tls * tau)
    )
    return value if value.ndim else float(value)


def tau_opt(delta_tls: float, t2: float) -> float:
    """Probing time maximizing the delta_f = 0 contrast.

    arctan(2 pi delta_tls T2) / (pi delta_tls); tends to 1/(2 delta_tls) for
    large splitting-coherence product and to T2 for a small one.
    """
    if delta_tls <= 0 or t2 <= 0:
        raise ValueError("delta_tls and t2 must be positive")
    return math.atan(2.0 * math.pi * delta_tls * t2) / (math.pi * delta_tls)


def p_err_static(delta_tls: float, t2: float, alpha: float) -> float:
    """Single-shot mode-assignment error at the optimal probing time, gamma = 0.

    p_err = (1 - S_max)/2 with
    S_max = alpha * x^2/(1+x^2) * exp(-2 arctan(x)/x),  x = 2 pi delta_tls T2.
    """
    if delta_tls <= 0 or t2 <= 0:
        raise ValueError("delta_tls and t2 must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    x = 2.0 * math.pi * delta_tls * t2
    if math.isinf(x):
        s_max = alpha
    else:
        s_max = alpha * (x * x / (1.0 + x * x)) * math.exp(-2.0 * math.atan(x) / x)
    return 0.5 * (1.0 - s_max)


def blind_x_infidelity(
    f_c: float, pops: tuple[float, float], params: QubitParams, include_floor: bool = True
) -> float:
    """Average infidelity of a pi pulse driven at fixed frequency ``f_c``.

    ``pops`` = (P_L, P_H) are the mode occupation probabilities.  The
    coherent part is the exact Rabi-formula mixture over the two detunings;
    ``include_floor`` adds the intrinsic term 1 - alpha*exp(-t_pi/T2).
    """
    p_l, p_h = pops
    if p_l < 0 or p_h < 0 or abs(p_l + p_h - 1.0) > 1e-9:
        raise ValueError("pops must be nonnegative and sum to 1")
    fidelity = p_l * rabi_transition_probability(f_c - params.f_low, params) + (
        p_h * rabi_transition_probability(f_c - params.f_high, params)
    )
    infidelity = 1.0 - fidelity
    if include_floor:
        infidelity += intrinsic_pulse_floor(params)
    return infidelity


def optimal_blind_frequency(pops: tuple[float, float], params: QubitParams) -> float:
    """Population-weighted mean frequency, the best fixed drive choice.

    Only valid in the weak-noise regime 2 pi delta_tls < rabi_rate; beyond it
    the fidelity landscape is bimodal and the weighted mean is no optimum, so
    a ValueError is raised.
    """
    p_l, p_h = pops
    if p_l < 0 or p_h < 0 or abs(p_l + p_h - 1.0) > 1e-9:
        raise ValueError("pops must be nonnegative and sum to 1")
    if 2.0 * math.pi * params.delta_tls >= params.rabi_rate:
        raise ValueError(
            "splitting exceeds the weak-noise regime; the blind fidelity is "
            "bimodal and the weighted-mean optimum does not apply"
        )
    return p_l * params.f_low + p_h * params.f_high


def intrinsic_pulse_floor(params: QubitParams) -> float:
    """Infidelity floor 1 - alpha*exp(-t_pi/T2) from decoherence and SPAM."""
    return 1.0 - params.alpha * math.exp(-params.t_pi / params.t2)


def active_x_infidelity(
    p_err: float, params: QubitParams, include_floor: bool = True
) -> float:
    """Pi-pulse infidelity when the drive frequency tracks a noisy mode estimate.

    Floor + p_err * 4 pi^2 delta_tls^2 / rabi_rate^2: a wrong estimate leaves
    the full splitting as drive detuning.
    """
    if not 0.0 <= p_err <= 0.5:
        raise ValueError("p_err must lie in [0, 0.5]")
    coherent = p_err * (2.0 * math.pi * params.delta_tls / params.rabi_rate) ** 2
    return coherent + (intrinsic_pulse_floor(params) if include_floor else 0.0)


def z_phase_error_variance(delta: float, t_g: float) -> float:
    """Variance (2 pi delta t_g)^2 / 4 of the frame phase accrued over t_g.

    ``delta`` is the splitting between the two frequencies the software frame
    may be mistracking by half, as when blindly tracking the mean frequency.
    """
    if t_g < 0:
        raise ValueError("t_g must be nonnegative")
    return (2.0 * math.pi * delta * t_g) ** 2 / 4.0


def finite_pulse_contrast(
    delta_tls: float, tau, alpha: float, t2: float, omega: float, echo: bool
):
    """Probing contrast with finite-duration pulses, delta_f = 0 frame.

    Identical prep and projection pulses tilt the rotation axes the same way,
    so their in-plane phase errors add and act as a timing offset 2/omega on
    the oscillatory factor: alpha exp(-tau/T2) sin^2(pi delta_tls (tau + 2/omega)).
    Inverting the projection drive echoes the error away (``echo=True``),
    restoring :func:`contrast` exactly.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if echo:
        return contrast(delta_tls, tau, alpha, t2, 0.0)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    value = (
        alpha
        * np.exp(-tau / t2)
        * np.sin(math.pi * delta_tls * (tau + 2.0 / omega)) ** 2
    )
    return value if value.ndim else float(value)


def _sinc(x: complex) -> complex:
    """Entire function sin(x)/x, safe for complex x and x = 0."""
    return 1.0 - x * x / 6.0 if abs(x) < 1e-8 else cmath.sin(x) / x


@dataclass(frozen=True)
class AkCoherence:
    """Ensemble coherence of a qubit under symmetric two-state frequency jumps."""

    t: np.ndarray
    c_eq: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    delta_c: np.ndarray
    s_ak: np.ndarray


def ak_coherence(t, delta_tls: float, gamma: float) -> AkCoherence:
    """Damped-oscillator coherence for frequency jumps of +-pi*delta_tls rad/s.

    Solves C'' + gamma C' + (pi delta_tls)^2 C = 0 with C(0) = 1/2:
    ``c_eq`` for equal initial mode populations (C'(0) = 0) and ``c_plus``/
    ``c_minus`` for definite initial modes (C'(0) = +-i pi delta_tls / 2).
    ``delta_c`` = c_plus - c_minus is evaluated through the independent
    identity delta_c = -2i c_eq'/(pi delta_tls), and ``s_ak`` = |delta_c| is
    the contrast available for mode discrimination.

    Underdamped for gamma < 2 pi delta_tls; larger gamma continues
    analytically into hyperbolic (overdamped) behavior.  Exact critical
    damping is handled by an ulp-level rate shift.  Each time is evaluated
    with ``math`` and ``cmath``, whose results do not depend on the SIMD
    kernels numpy picks for the CPU.
    """
    if delta_tls <= 0:
        raise ValueError("delta_tls must be positive")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w = math.pi * delta_tls
    if gamma == 2.0 * w:
        gamma *= 1.0 - 1e-12
    beta = cmath.sqrt(w * w - 0.25 * gamma * gamma)
    # Two-branch solution from the definite-mode initial conditions.
    a_plus = 0.25 * (1.0 - w / beta + 0.5j * gamma / beta)
    a_minus = 0.25 * (1.0 + w / beta + 0.5j * gamma / beta)
    c_eq, c_plus, c_minus, delta_c = [], [], [], []
    for x in t.tolist():
        envelope = math.exp(-0.5 * gamma * x)
        bt = beta * x
        sinc = _sinc(bt)
        c_eq.append(0.5 * (envelope * (cmath.cos(bt) + 0.5 * gamma * x * sinc)).real)
        back, forth = cmath.exp(-1j * bt), cmath.exp(1j * bt)
        c_plus.append(envelope * (a_plus * back + (0.5 - a_plus) * forth))
        c_minus.append(envelope * (a_minus * back + (0.5 - a_minus) * forth))
        # Same quantity through the cancellation identity; |.| is the contrast.
        delta_c.append(-2j * (-0.5 * w * w * x * sinc * envelope) / w)
    s_ak = np.array([abs(d) for d in delta_c], dtype=float)
    c_eq = np.array(c_eq, dtype=float)
    c_plus, c_minus, delta_c = (np.array(c, dtype=complex) for c in (c_plus, c_minus, delta_c))
    return AkCoherence(t=t, c_eq=c_eq, c_plus=c_plus, c_minus=c_minus, delta_c=delta_c, s_ak=s_ak)


def ak_coherence_mc(
    delta_tls: float,
    gamma: float,
    t_grid,
    n_trajectories: int,
    rng: np.random.Generator,
    initial: str = "equal",
) -> np.ndarray:
    """Monte Carlo estimate of the ensemble coherence C(t) = <exp(i phi)>/2.

    Each trajectory accumulates phase at +-pi*delta_tls rad/s and switches
    branch at symmetric rate gamma/2 per direction (exact exponential dwell
    sampling).  ``initial`` selects the branch at t = 0: "equal", "plus" or
    "minus".  Returns a complex array on ``t_grid``, which may be in any order
    and hold duplicates; its times must be finite and nonnegative.

    The sum runs once per dwell segment, not once per grid point.  With
    w = pi*delta_tls and theta = w*t, segment c of a trajectory has the phase
    w*phi(t) = a_c + s_c*theta: s_c = s0 (-1)**c is its branch, and
    a_c = w*(prefix_c - s_c*start_c), with prefix_c the signed dwells before
    it summed in order and start_c the flip that opens it.  So
    cos(w*phi) = cos(a) cos(theta) - s sin(a) sin(theta) and
    sin(w*phi) = sin(a) cos(theta) + s cos(a) sin(theta).  On the sorted grid
    segment c covers the indices [lo_c, hi_c), with hi_c = searchsorted(t,
    end_c, "left") and lo_c = hi_{c-1}, lo_0 = 0: a flip at a grid time
    counts as before it.  Each covering segment adds cos(a), s sin(a),
    s cos(a) and sin(a) at lo and subtracts them at hi of a (4, grid + 1)
    difference array; one cumulative sum along the grid gives the four sums
    over the trajectories, and one angle addition per time the coherence.
    Segment 0 has a = 0, so its terms are 1, 0, s and 0.  The work is
    O(trajectories x segments + grid).

    This differs from summing exp(1j*w*phi) trajectory by trajectory by
    rounding alone: each of the n unit terms carries an angle error of order
    eps (1 + w t_max), and sums of n terms in another order differ by order
    n eps, so the two agree to a few eps n (1 + w t_max).

    Each chunk of MC_CHUNK trajectories draws its branches, then runs one
    pass per segment: a pass draws one dwell for each trajectory still on the
    grid, in trajectory order, and keeps for the next pass the trajectories
    whose segment ends at or before the last grid time.  So only the dwells
    that open a segment on the grid, plus one past it per trajectory, are
    drawn, and memory is a few arrays of a chunk's segments and the grid's
    sums.

    A rate whose mean dwell 2/gamma is not finite reads as frozen, like
    gamma = 0: such a defect does not flip within any grid of this model's
    time scales.
    """
    if initial not in ("equal", "plus", "minus"):
        raise ValueError("initial must be 'equal', 'plus' or 'minus'")
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be at least 1")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if not np.all((t_grid >= 0.0) & (t_grid < math.inf)):
        raise ValueError("t_grid must be finite and nonnegative")
    order = np.argsort(t_grid, kind="stable")
    t_sorted = t_grid[order]
    grid_index = _grid_index(t_sorted)
    w = math.pi * delta_tls
    horizon = float(t_grid.max(initial=0.0))
    scale = 2.0 / gamma if gamma > 0.0 else math.inf  # the mean dwell
    diff = np.zeros((4, t_sorted.size + 1))
    remaining = n_trajectories
    while remaining > 0:
        n = min(MC_CHUNK, remaining)
        remaining -= n
        if initial == "equal":
            s = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        else:
            s = np.full(n, 1.0 if initial == "plus" else -1.0)
        end = rng.exponential(scale, size=n) if scale < math.inf else np.full(n, math.inf)
        hi = grid_index(end)
        # Segment 0 covers [0, hi) with the terms 1, 0, s and 0, exact integer sums.
        diff[0, 0] += n
        diff[2, 0] += s.sum()
        diff[0] -= np.bincount(hi, minlength=diff.shape[1])
        diff[2] -= np.bincount(hi, s, diff.shape[1])
        segments = []  # (lo, hi, s, a) of each later covering segment
        prefix = s * end
        while True:
            live = end <= horizon
            if not live.any():
                break
            start, lo, prefix, s = end[live], hi[live], prefix[live], -s[live]
            dwell = rng.exponential(scale, size=start.size)
            end = start + dwell
            hi = grid_index(end)
            covers = hi > lo
            a = w * (prefix - s * start)
            segments.append((lo[covers], hi[covers], s[covers], a[covers]))
            prefix = prefix + s * dwell
        if segments:
            lo, hi, s, a = map(np.concatenate, zip(*segments))
            cos_a, sin_a = np.cos(a), np.sin(a)
            for q, value in enumerate((cos_a, s * sin_a, s * cos_a, sin_a)):
                diff[q] += np.bincount(lo, value, diff.shape[1]) - np.bincount(hi, value, diff.shape[1])
    sums = np.cumsum(diff[:, :-1], axis=1)
    cos_t, sin_t = np.cos(w * t_sorted), np.sin(w * t_sorted)
    total = np.empty(t_grid.shape, dtype=complex)
    total.real[order] = sums[0] * cos_t - sums[1] * sin_t
    total.imag[order] = sums[3] * cos_t + sums[2] * sin_t
    return 0.5 * total / n_trajectories


def _grid_index(t: np.ndarray):
    """``np.searchsorted(t, keys, side="left")`` on the sorted grid ``t``, as a function of ``keys``.

    A key's bucket is floor((key - t[0]) * m / span) on m = 4 * t.size buckets,
    with the key first clipped to [t[0], t[-1]], and the same formula gives
    each grid point's bucket.  Subtraction and multiplication round
    monotonically, so a grid point in an earlier bucket than a key lies below
    it and one in a later bucket above it: the count of grid points in
    earlier buckets, a table lookup, is the answer up to the points that
    share the key's bucket, and one pass per point the fullest bucket holds
    steps over those that lie below the key.
    A grid of fewer than 2 points, or of a span so small (zero or subnormal)
    that m / span is not finite, has no buckets and takes ``np.searchsorted``.
    """
    m = 4 * t.size
    per_span = m / float(t[-1] - t[0]) if t.size > 1 and t[-1] > t[0] else math.inf
    if per_span == math.inf:
        return lambda keys: np.searchsorted(t, keys, side="left")
    origin, top = float(t[0]), float(t[-1])

    def bucket(x):
        return ((np.clip(x, origin, top) - origin) * per_span).astype(np.intp)

    table = np.searchsorted(bucket(t), np.arange(m + 2), side="left")  # grid points in earlier buckets
    passes = int(np.diff(table).max())
    padded = np.append(t, math.inf)

    def grid_index(keys):
        index = table[bucket(keys)]
        for _ in range(passes):
            index += padded[index] < keys
        return index

    return grid_index


def p_err_bandwidth(delta_tls, gamma, alpha: float, t2: float, t_wall: float):
    """Linear additive syndrome-error budget under a finite switching rate.

    (1/2) [(1 - alpha) + G/(2 delta_tls) + gamma t_wall] with
    G = 1/T2 + gamma/2, clamped to [0, 1/2].  The gamma*t_wall term is the
    probability that the estimate goes stale during the hardware dead time.
    Vectorized over ``delta_tls`` and ``gamma``, which broadcast together.
    """
    _check_bandwidth_args(delta_tls, gamma, alpha, t2, t_wall)
    delta_tls, gamma = np.asarray(delta_tls, dtype=float), np.asarray(gamma, dtype=float)
    g_eff = 1.0 / t2 + 0.5 * gamma
    raw = 0.5 * ((1.0 - alpha) + g_eff / (2.0 * delta_tls) + gamma * t_wall)
    clamped = np.where(0.5 < raw, 0.5, np.where(0.0 > raw, 0.0, raw))  # min(max(raw, 0.0), 0.5)
    return clamped if clamped.ndim else float(clamped)


def p_err_bandwidth_exact(
    delta_tls: float, gamma: float, alpha: float, t2: float, t_wall: float
) -> float:
    """Pre-expansion form (1/2)[1 - alpha exp(-G/(2 delta_tls) - gamma t_wall)].

    G = 1/T2 + gamma/2; the probe time enters at its large-splitting value
    1/(2 delta_tls).
    """
    _check_bandwidth_args(delta_tls, gamma, alpha, t2, t_wall)
    g_eff = 1.0 / t2 + 0.5 * gamma
    raw = 0.5 * (1.0 - alpha * math.exp(-g_eff / (2.0 * delta_tls) - gamma * t_wall))
    return min(max(raw, 0.0), 0.5)


def _check_bandwidth_args(delta_tls, gamma, alpha, t2, t_wall):
    if np.any(np.asarray(delta_tls) <= 0) or t2 <= 0:
        raise ValueError("delta_tls and t2 must be positive")
    if np.any(np.asarray(gamma) < 0) or t_wall < 0:
        raise ValueError("gamma and t_wall must be nonnegative")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")


@dataclass(frozen=True)
class ImprovementMap:
    """Design-space map of log10[(1-F_blind)/(1-F_active)].

    ``splittings`` holds the normalized splitting 2 pi delta_tls / omega,
    ``switching`` the dimensionless product gamma * t_cyc with
    t_cyc = 1/(2 delta_tls) + t_wall.  ``values[i, j]`` corresponds to
    (splittings[i], switching[j]).  ``zero_contour`` lists, per splitting,
    the interpolated switching value where the improvement crosses zero
    (NaN where it does not cross inside the grid).
    """

    splittings: np.ndarray
    switching: np.ndarray
    values: np.ndarray
    zero_contour: np.ndarray


def improvement_map(
    splittings,
    switching,
    alpha: float = 0.94,
    t_pi: float = 48e-9,
    t2: float = 61e-6,
    t_wall: float = 8e-6,
) -> ImprovementMap:
    """log10 of the infidelity ratio of blind driving to active estimation on a
    grid, and its zero contour.

    The blind arm drives midway between the modes (equal populations, the
    worst case); the active arm pays p_err from the linear bandwidth budget.
    A cell is log10[(floor + c/4) / (floor + p_err c)] with the pulse floor
    1 - alpha exp(-t_pi/T2) and c = x^2 for the normalized splitting x,
    computed with the scalar formula's operations in its order, so a 1x1 map
    gives every cell of a larger one bit for bit: the per-row terms are
    Python floats (``v ** 2`` is the C ``pow``, which numpy replaces by a
    multiplication) and each cell takes ``math.log10``, which ``np.log10``
    does not match to the last ulp.
    """
    splittings = np.atleast_1d(np.asarray(splittings, dtype=float))
    switching = np.atleast_1d(np.asarray(switching, dtype=float))
    if not (np.all(np.isfinite(splittings)) and np.all(np.isfinite(switching))):
        raise ValueError("normalized splittings and switching must be finite")
    if np.any(splittings <= 0) or np.any(switching < 0):
        raise ValueError("normalized splittings must be positive, switching nonnegative")
    omega = math.pi / t_pi
    delta = [x * omega / (2.0 * math.pi) for x in splittings.tolist()]
    t_cyc = [1.0 / (2.0 * d) + t_wall for d in delta]
    coherent = np.array([(2.0 * math.pi * d / omega) ** 2 for d in delta])[:, None]
    gamma = switching / np.array(t_cyc)[:, None]
    p_err = p_err_bandwidth(np.array(delta)[:, None], gamma, alpha, t2, t_wall)
    floor = 1.0 - alpha * math.exp(-t_pi / t2)
    blind = floor + 0.25 * coherent
    active = floor + p_err * coherent
    ratio = blind / active
    values = np.fromiter(map(math.log10, ratio.ravel().tolist()), float, ratio.size).reshape(gamma.shape)
    contour = np.full(splittings.size, np.nan)
    if switching.size > 1:  # a row's contour lies in its first pair of cells that meets or crosses 0
        a, b = values[:, :-1], values[:, 1:]
        hit = (a == 0.0) | (a * b < 0.0)
        i = np.flatnonzero(hit.any(axis=1))
        j = hit[i].argmax(axis=1)
        a, b = a[i, j], b[i, j]
        contour[i] = switching[j]
        cross = a != 0.0
        i, j, a, b = i[cross], j[cross], a[cross], b[cross]
        contour[i] = switching[j] + a / (a - b) * (switching[j + 1] - switching[j])
    return ImprovementMap(
        splittings=splittings, switching=switching, values=values, zero_contour=contour
    )

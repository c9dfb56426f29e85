"""Acceptance suite: one test per release criterion, with PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each test states its runtime budget; Monte Carlo tolerances are
3-sigma unless a criterion fixes a different bound.  Seeds are pinned for
reproducibility.
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from bistable_qubit import analytics
from bistable_qubit import benchmarking as rb
from bistable_qubit.bloch import GROUND, QubitParams, apply, detuning, free_map, pulse_map
from bistable_qubit.fitting import (
    fit_fringe_time_offset,
    fit_two_frequency_mixture,
    quadrature_amplitudes,
)
from bistable_qubit.protocol import (
    MitigationConfig,
    default_tau_probe,
    make_environment,
    run_mitigation,
    syndrome_cycle,
    syndrome_error_rate,
    x_gate_excited_population,
)
from bistable_qubit.streams import substream
from bistable_qubit.telegraph import TelegraphParams

SEED = 20260809
QP = QubitParams.defaults()
FROZEN = TelegraphParams(0.0, 0.0)


def _report(number: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} {name}: {verdict} ({detail}) "
        f"[{elapsed:.1f}s of {budget:.0f}s budget]"
    )
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


# Each Monte Carlo criterion is one function of its root seed, run by its test
# at SEED and by tools/margins.py at the sweep seeds.  It returns an Outcome:
# every pass rule as a Check, and the detail the test prints.
class Check(NamedTuple):
    """One pass rule as statistic / tolerance, and whether the rule holds (an
    inclusive bound holds at a ratio of exactly 1)."""

    ratio: float
    ok: bool


def below(statistic, bound, inclusive=False) -> Check:
    """The rule ``statistic < bound`` (``<=`` if inclusive)."""
    return Check(statistic / bound, bool(statistic <= bound if inclusive else statistic < bound))


def above(statistic, bound, inclusive=False) -> Check:
    """The rule ``statistic > bound`` (``>=`` if inclusive), as bound / statistic."""
    ratio = bound / statistic if statistic > 0 else math.inf
    return Check(ratio, bool(statistic >= bound if inclusive else statistic > bound))


class Outcome(NamedTuple):
    """A criterion's checks by name, and the detail its ACCEPTANCE line prints."""

    checks: dict[str, Check]
    detail: str

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks.values())


# Sample sizes of the Monte Carlo criteria, sized by the seed sweep of
# tools/margins.py so that no stream can fail a criterion by the draw.
MITIGATION_ROWS = 1280  # criteria 02 and 03: rows of 50 probe times x 10 repetitions
STATIC_CYCLES = 1_000_000  # criterion 04: syndrome cycles on a frozen defect
BANDWIDTH_CYCLES = 250_000  # criterion 04: syndrome cycles per switching rate
FLOOR_SEQUENCES = 400  # criterion 05: sequences per depth
FLOOR_SHOTS = 6  # criterion 05: shots per sequence
IMPROVEMENT_WINDOWS = 70  # criterion 06: RB windows
IMPROVEMENT_SEQUENCES = 84  # criterion 06: sequences per depth and window
IMPROVEMENT_SHOTS = 4  # criterion 06: shots per sequence
AK_TRAJECTORIES = 100_000  # criterion 07
THRESHOLD_SHOTS = 20_000  # criterion 08: shots per switching rate
FORCED_GUESSES = 200_000  # criterion 08: coin-flip estimates
MAP_CYCLES = 150_000  # criterion 09: simulated cycles of the reference cell


def criteria_02_03(seed: int, rows: int = MITIGATION_ROWS) -> tuple[Outcome, Outcome]:
    """Criteria 02 and 03 from one interleaved fringe experiment of ``rows`` rows."""
    config = MitigationConfig(
        tau_grid=tuple(np.linspace(0.0, 2.5e-6, 50)),
        n_reps=10,
        rows=rows,
        det_nofb=2.0e6,
        det_fb=2.33e6,
        tau_probe=default_tau_probe(QP),
        idle_between_rows=1.0,
    )
    env = make_environment(QP, TelegraphParams.from_dwell_time(10.0), substream(seed, "acceptance-mitigate"))
    result = run_mitigation(env, config)
    taus = np.asarray(config.tau_grid)

    shots_per_point = config.n_reps * config.rows
    fit = fit_two_frequency_mixture(
        taus, result.no_feedback.mean(axis=0), config.det_nofb, config.det_nofb - QP.delta_tls, QP.t2
    )
    node = fit.envelope_node_time
    ideal = 0.5 / QP.delta_tls
    rel = abs(node - ideal) / ideal
    beating = Outcome(
        {
            "02 node rel / 0.02": below(rel if fit.ok else math.inf, 0.02),
            "02 400 / shots per point": above(shots_per_point, 400, inclusive=True),
        },
        f"node {node * 1e6:.3f} us vs {ideal * 1e6:.3f} us (rel {rel:.3f}), "
        f"{shots_per_point} shots/point",
    )

    amps = quadrature_amplitudes(
        taus,
        result.feedback.mean(axis=0),
        [config.det_fb, config.det_fb - QP.delta_tls, config.det_fb + QP.delta_tls],
        QP.t2,
    )
    ratio = max(amps[1], amps[2]) / amps[0]
    suppression = Outcome(
        {"03 sideband / principal / 0.05": below(ratio, 0.05)},
        f"sideband/principal = {ratio:.4f} (principal {amps[0]:.3f})",
    )
    return beating, suppression


@pytest.fixture(scope="module")
def mitigation_run():
    """Criteria 02 and 03 at SEED, and the time they took together."""
    started = time.monotonic()
    outcomes = criteria_02_03(SEED)
    return outcomes, time.monotonic() - started


def test_criterion_01_optimal_probing_time():
    started = time.monotonic()
    coherent_limit = analytics.tau_opt(374e3, math.inf)
    ok = abs(coherent_limit - 1.0 / (2 * 374e3)) < 1e-18
    ok &= abs(coherent_limit - 1.337e-6) < 1e-9

    tau = analytics.tau_opt(374e3, 43e-6)
    search = minimize_scalar(
        lambda t: -analytics.contrast(374e3, t, 0.94, 43e-6),
        bounds=(1e-15, 1.0 / 374e3),
        method="bounded",
        options={"xatol": 1e-8 / 374e3},
    )
    rel = abs(tau - float(search.x)) / tau
    ok &= rel < 1e-4
    _report(
        1,
        "optimal probing time",
        ok,
        f"limit {coherent_limit * 1e6:.4f} us; transcendental vs search rel {rel:.1e}",
        time.monotonic() - started,
        budget=1.0,
    )


def test_criterion_02_open_loop_beating_node(mitigation_run):
    (outcome, _), elapsed = mitigation_run
    _report(2, "open-loop fringe beating", outcome.ok, outcome.detail, elapsed, budget=60.0)


def test_criterion_03_feedback_suppresses_beating(mitigation_run):
    (_, outcome), elapsed = mitigation_run
    _report(3, "feedback beating suppression", outcome.ok, outcome.detail, elapsed, budget=120.0)


def criterion_04(seed: int) -> Outcome:
    tau = default_tau_probe(QP)

    # Static budget: cycles against the closed form, 3-sigma binomial.
    rng = substream(seed, "acceptance-perr-static")
    env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
    p_mc = syndrome_error_rate(env, STATIC_CYCLES, tau, True)
    p_th = analytics.p_err_static(QP.delta_tls, QP.t2, QP.alpha)
    sigma = math.sqrt(p_th * (1.0 - p_th) / STATIC_CYCLES)

    # Finite switching: stale-estimate penalty slope against the exact form.
    gammas = (2e3, 6e3, 1.2e4)
    measured, expected = [], []
    for gamma in gammas:
        rng = substream(seed, "acceptance-perr-bw", f"{gamma}")
        env = make_environment(
            QP, TelegraphParams.symmetric(gamma), rng, finite_pulses=False
        )
        measured.append(syndrome_error_rate(env, BANDWIDTH_CYCLES, tau, False))
        expected.append(
            analytics.p_err_bandwidth_exact(QP.delta_tls, gamma, QP.alpha, QP.t2, QP.t_wall)
        )
    x = np.array(gammas) * QP.t_wall
    slope_mc = np.polyfit(x, measured, 1)[0]
    slope_th = np.polyfit(x, expected, 1)[0]
    slope_rel = abs(slope_mc - slope_th) / slope_th

    return Outcome(
        {
            "04 static |z| / 3": below(abs(p_mc - p_th), 3.0 * sigma),
            "04 slope rel / 0.10": below(slope_rel, 0.10),
        },
        f"static {p_mc:.5f} vs {p_th:.5f} ({abs(p_mc - p_th) / sigma:.1f} sigma); "
        f"stale slope rel dev {slope_rel:.3f}",
    )


def test_criterion_04_syndrome_error_rate():
    started = time.monotonic()
    outcome = criterion_04(SEED)
    _report(4, "syndrome error rate", outcome.ok, outcome.detail, time.monotonic() - started, budget=300.0)


def criterion_05(seed: int, n_sequences: int = FLOOR_SEQUENCES) -> Outcome:
    rng = substream(seed, "acceptance-rb-floor")
    env = make_environment(QP, FROZEN, rng, pinned_mode=0)
    config = rb.RbConfig(tau_probe=default_tau_probe(QP), n_sequences=n_sequences, shots_per_sequence=FLOOR_SHOTS)
    fit = rb.run_rb_interleaved(env, config)[0].fit_nofb
    floor = rb.decoherence_floor_per_gate(QP)
    rel = abs(fit.r_native - floor) / floor
    return Outcome(
        {"05 floor rel / 0.25": below(rel if fit.ok else math.inf, 0.25)},
        f"r_native {fit.r_native:.3e} vs t_gate(1/T1+1/Tphi)/3 = {floor:.3e} (rel {rel:.3f})",
    )


def test_criterion_05_benchmarking_decoherence_floor():
    started = time.monotonic()
    outcome = criterion_05(SEED)
    _report(
        5, "benchmarking decoherence floor", outcome.ok, outcome.detail, time.monotonic() - started, budget=600.0
    )


def criterion_06(seed: int) -> Outcome:
    rng = substream(seed, "acceptance6")
    env = make_environment(QP, TelegraphParams.from_dwell_time(6.0), rng)
    config = rb.RbConfig(
        tau_probe=default_tau_probe(QP),
        n_sequences=IMPROVEMENT_SEQUENCES,
        shots_per_sequence=IMPROVEMENT_SHOTS,
        n_windows=IMPROVEMENT_WINDOWS,
        idle_between_windows=0.6,
    )
    windows = rb.run_rb_interleaved(env, config)
    floor = rb.decoherence_floor_per_gate(QP)

    valid = [w for w in windows if w.fit_nofb.ok and w.fit_fb.ok]
    r_l = np.array([w.fit_nofb.r_native for w in valid if w.mode_fraction_l >= 0.9])
    r_h = np.array([w.fit_nofb.r_native for w in valid if w.mode_fraction_l <= 0.1])
    r_fb = np.array([w.fit_fb.r_native for w in valid])
    r_nofb = np.array([w.fit_nofb.r_native for w in valid])

    elevated = float(r_l.mean()) if r_l.size else math.nan
    separation = (elevated - r_h.mean()) / math.sqrt(
        r_l.var(ddof=1) / r_l.size + r_h.var(ddof=1) / r_h.size
    )
    fb_mean = float(r_fb.mean())
    fb_p95 = float(np.percentile(r_fb, 95))
    reduction = 1.0 - float(r_fb.max()) / float(r_nofb.max())

    return Outcome(
        {
            "06 coverage 5 / min(n_L, n_H)": above(min(r_l.size, r_h.size), 5, inclusive=True),
            "06 elevated / 3e-3": below(elevated, 3e-3, inclusive=True),
            "06 1e-3 / elevated": above(elevated, 1e-3, inclusive=True),
            "06 separation 5 / sep": above(separation, 5.0),
            "06 fb mean / 2 floor": below(fb_mean, 2.0 * floor, inclusive=True),
            "06 fb p95 / 2 floor": below(fb_p95, 2.0 * floor, inclusive=True),
            "06 0.60 / reduction": above(reduction, 0.60, inclusive=True),
        },
        f"elevated {elevated:.2e} (n={r_l.size}), quiet {r_h.mean():.2e} (n={r_h.size}), "
        f"fb mean {fb_mean:.2e} vs 2x floor {2 * floor:.2e}, "
        f"worst-case reduction {reduction:.2f}",
    )


def test_criterion_06_benchmarking_improvement():
    started = time.monotonic()
    outcome = criterion_06(SEED)
    _report(6, "benchmarking improvement", outcome.ok, outcome.detail, time.monotonic() - started, budget=1800.0)


def criterion_07(seed: int) -> Outcome:
    delta = QP.delta_tls
    w = math.pi * delta

    # Finite-difference residual of the damped-oscillator equation.
    residual_max = 0.0
    for gamma in (0.0, 0.3 * 2 * w, 0.8 * 2 * w):
        h = 1e-3 / w
        for t0 in np.linspace(1e-8, 3.0 / delta, 60):
            c = analytics.ak_coherence(np.array([t0 - h, t0, t0 + h]), delta, gamma).c_eq
            cdd = (c[0] - 2 * c[1] + c[2]) / h**2
            cd = (c[2] - c[0]) / (2 * h)
            res = abs(cdd + gamma * cd + w * w * c[1]) / (w * w * max(abs(c[1]), 0.1))
            residual_max = max(residual_max, res)

    # Trajectory-averaged Monte Carlo against the closed form.
    gamma = 0.4 * 2 * math.pi * delta
    t_grid = np.linspace(0.0, 3.0 / delta, 75)
    rng = substream(seed, "acceptance-ak")
    mc = analytics.ak_coherence_mc(delta, gamma, t_grid, AK_TRAJECTORIES, rng)
    closed = analytics.ak_coherence(t_grid, delta, gamma)
    deviation = float(np.max(np.abs(mc.real - closed.c_eq)))

    return Outcome(
        {
            "07 ODE residual / 1e-6": below(residual_max, 1e-6),
            "07 MC deviation / 0.01": below(deviation, 0.01),
            "07 MC imaginary / 0.01": below(float(np.max(np.abs(mc.imag))), 0.01),
        },
        f"ODE residual {residual_max:.1e}; MC deviation {deviation:.4f} over 1e5 trajectories",
    )


def test_criterion_07_switching_coherence_model():
    started = time.monotonic()
    outcome = criterion_07(SEED)
    _report(7, "switching coherence model", outcome.ok, outcome.detail, time.monotonic() - started, budget=120.0)


def _threshold_point(qp, gamma, n_shots, rng):
    """One switching-rate point: empirical p_err and both arms' infidelity."""
    tau = default_tau_probe(qp)
    f_blind = analytics.optimal_blind_frequency((0.5, 0.5), qp)
    pinned = 0 if gamma == 0 else None
    env = make_environment(
        qp, TelegraphParams.symmetric(gamma), rng, pinned_mode=pinned, finite_pulses=False
    )
    active = np.empty(n_shots)
    blind = np.empty(n_shots)
    wrong = 0
    for i in range(n_shots):
        if gamma == 0:
            env.xi = int(rng.random() < 0.5)
        _, xi_hat = syndrome_cycle(env, tau)
        xi = env.xi
        wrong += xi_hat != xi
        active[i] = x_gate_excited_population(qp, qp.mode_frequency(xi_hat), xi)
        blind[i] = x_gate_excited_population(qp, f_blind, xi)
    # Populations are fidelity-like: feedback wins when the active arm's
    # excited population exceeds the blind arm's.
    diff = float(np.mean(active) - np.mean(blind))
    sigma = math.sqrt(np.var(active) / n_shots + np.var(blind) / n_shots)
    return wrong / n_shots, diff, sigma


def criterion_08(seed: int) -> Outcome:
    # Larger splitting makes the coherent errors resolvable above shot noise.
    qp = QubitParams.defaults(f_low=5.10e9 - 3e6)
    gammas = (0.0, 1e4, 4e4, 1.1e5, 2.5e5, 5e5)
    disagreements = wins = losses = 0
    details = []
    for gamma in gammas:
        rng = substream(seed, "acceptance-threshold", f"{gamma}")
        p_err, diff, sigma = _threshold_point(qp, gamma, THRESHOLD_SHOTS, rng)
        if abs(diff) > 3.0 * sigma:
            disagreements += (diff > 0) != (p_err < 0.25)
            wins += diff > 0
            losses += diff < 0
            details.append(f"g={gamma:.0f}: p={p_err:.3f} {'+' if diff > 0 else '-'}")

    # Forced coin-flip estimate: active coherent error = 2x blind optimum.
    qp2 = QubitParams.defaults(f_low=5.10e9 - 1e6)
    f_blind = analytics.optimal_blind_frequency((0.5, 0.5), qp2)
    rng = substream(seed, "acceptance-forced")
    active_sum = blind_sum = 0.0
    for _ in range(FORCED_GUESSES):
        xi = int(rng.random() < 0.5)
        f_guess = qp2.mode_frequency(int(rng.random() < 0.5))
        active_sum += x_gate_excited_population(qp2, f_guess, xi)
        blind_sum += x_gate_excited_population(qp2, f_blind, xi)
    floor = 1.0 - x_gate_excited_population(qp2, qp2.f_high, 0)
    active_coherent = 1.0 - active_sum / FORCED_GUESSES - floor
    blind_coherent = 1.0 - blind_sum / FORCED_GUESSES - floor
    ratio = active_coherent / blind_coherent

    return Outcome(
        {
            "08 sign disagreements / 1": below(disagreements, 1),
            "08 1 / min(wins, losses)": above(min(wins, losses), 1, inclusive=True),
            "08 forced |ratio - 2| / 0.30": below(abs(ratio - 2.0), 0.30),  # within 15 percent of 2
        },
        f"sign agreement at {'; '.join(details)}; forced-guess ratio {ratio:.3f}",
    )


def test_criterion_08_feedback_utility_thresholds():
    started = time.monotonic()
    outcome = criterion_08(SEED)
    _report(8, "feedback utility thresholds", outcome.ok, outcome.detail, time.monotonic() - started, budget=300.0)


def criterion_09(seed: int) -> Outcome:
    splittings = np.logspace(math.log10(5e-3), math.log10(0.5), 40)
    switching = np.logspace(-3, math.log10(3.0), 60)
    amap = analytics.improvement_map(splittings, switching)

    # Pipeline identity: every cell equals the explicit formula composition.
    omega = math.pi / 48e-9
    identity_err = 0.0
    for i in (0, 13, 39):
        for j in (0, 29, 59):
            delta = splittings[i] * omega / (2 * math.pi)
            gamma = switching[j] / (1.0 / (2 * delta) + 8e-6)
            p_err = analytics.p_err_bandwidth(delta, gamma, 0.94, 61e-6, 8e-6)
            base = 1.0 - 0.94 * math.exp(-48e-9 / 61e-6)
            coherent = splittings[i] ** 2
            expected = math.log10((base + 0.25 * coherent) / (base + p_err * coherent))
            identity_err = max(identity_err, abs(amap.values[i, j] - expected))

    # Reference-parameter cell against the simulator (slow switching).
    cell = analytics.improvement_map(
        [2 * math.pi * QP.delta_tls / QP.rabi_rate], [1e-4], 0.94, 48e-9, 61e-6, 8e-6
    ).values[0, 0]
    map_ratio = 10.0**cell
    rng = substream(seed, "acceptance-map-sim")
    env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
    tau = default_tau_probe(QP)
    f_blind = analytics.optimal_blind_frequency((0.5, 0.5), QP)
    active_sum = blind_sum = 0.0
    for _ in range(MAP_CYCLES):
        env.xi = int(rng.random() < 0.5)
        _, xi_hat = syndrome_cycle(env, tau)
        xi = env.xi
        active_sum += QP.alpha * x_gate_excited_population(QP, QP.mode_frequency(xi_hat), xi)
        blind_sum += QP.alpha * x_gate_excited_population(QP, f_blind, xi)
    sim_ratio = (1.0 - blind_sum / MAP_CYCLES) / (1.0 - active_sum / MAP_CYCLES)
    factor = max(sim_ratio / map_ratio, map_ratio / sim_ratio)

    # Steps against the map's monotonicity: along each splitting's switching
    # axis it must not rise, and across splittings at the slowest switching not fall.
    rising = int(np.sum(~(np.diff(amap.values, axis=1) <= 1e-12)))
    falling = int(np.sum(~(np.diff(amap.values[:, 0]) >= -1e-12)))
    return Outcome(
        {
            "09 NaN contour columns / 1": below(int(np.isnan(amap.zero_contour).sum()), 1),
            "09 rising steps / 1": below(rising, 1),
            "09 falling small-split steps / 1": below(falling, 1),
            "09 identity err / 1e-12": below(identity_err, 1e-12),
            "09 1 / map ratio": above(map_ratio, 1.0, inclusive=True),
            "09 map-sim factor / 2": below(factor, 2.0),
        },
        f"contour on all {splittings.size} columns; identity err {identity_err:.1e}; "
        f"map ratio {map_ratio:.4f} vs simulated {sim_ratio:.4f} (x{factor:.2f})",
    )


def test_criterion_09_design_space_map():
    started = time.monotonic()
    outcome = criterion_09(SEED)
    _report(9, "design-space improvement map", outcome.ok, outcome.detail, time.monotonic() - started, budget=120.0)


def test_criterion_10_unit_and_property_checks():
    started = time.monotonic()
    ideal = QubitParams.defaults(
        t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0
    )

    # Bloch norm contraction under a random operation stream.
    rng = substream(SEED, "acceptance-norm")
    state = GROUND
    norm_ok = True
    for _ in range(20_000):
        if rng.random() < 0.5:
            m = free_map(float(rng.uniform(-2e6, 2e6)), float(rng.uniform(0, 1e-6)), QP)
        else:
            axis, angle = float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-math.pi, math.pi))
            m = pulse_map(axis, angle, float(rng.uniform(-2e6, 2e6)), QP, True)
        state = apply(m, state)
        norm_ok &= math.hypot(*state) <= 1.0 + 1e-9

    # Two-pulse probability identity to 1e-12 on a parameter grid.
    ramsey_ok = True
    for tau in np.linspace(0.05e-6, 3.0e-6, 10):
        for off in (-2e6, -0.5e6, 0.0, 0.7e6, 2e6):
            for xi in (0, 1):
                f_c = ideal.f_high + off
                dq = detuning(ideal, f_c, xi)
                state = apply(pulse_map(0.0, -math.pi / 2, dq, ideal, False), GROUND)
                state = apply(free_map(dq, float(tau), ideal), state)
                state = apply(pulse_map(0.0, -math.pi / 2, dq, ideal, False), state)
                p = (1.0 - state[2]) / 2.0
                expected = 0.5 * (1.0 + math.cos(2.0 * math.pi * dq * tau))
                ramsey_ok &= abs(p - expected) < 1e-12

    # Clifford group closure over all 576 products.
    closure_ok = True
    for a in rb.UNITARIES:
        for b in rb.UNITARIES:
            idx = rb.match_element(a @ b)
            closure_ok &= 0 <= idx < 24

    # Finite-pulse fringe offset equals 2/rabi_rate within 1 percent.
    f_mid = 0.5 * (ideal.f_low + ideal.f_high)
    taus = np.linspace(0.05e-6, 2.5e-6, 250)
    contrast = []
    for tau in taus:
        ps = []
        for xi in (0, 1):
            dq = detuning(ideal, f_mid, xi)
            state = apply(pulse_map(0.0, math.pi / 2, dq, ideal, True), GROUND)
            state = apply(free_map(dq, float(tau), ideal), state)
            state = apply(pulse_map(math.pi / 2, -math.pi / 2, dq, ideal, True), state)
            ps.append((1.0 - state[2]) / 2.0)
        contrast.append(abs(ps[0] - ps[1]))
    expected_offset = 2.0 / ideal.rabi_rate
    offset, _ = fit_fringe_time_offset(taus, np.array(contrast), ideal.delta_tls, expected_offset)
    echo_ok = abs(offset - expected_offset) < 0.01 * expected_offset

    _report(
        10,
        "unit and property checks",
        norm_ok and ramsey_ok and closure_ok and echo_ok,
        f"norm, probability identity, closure, pulse offset {offset * 1e9:.2f} ns "
        f"vs {expected_offset * 1e9:.2f} ns",
        time.monotonic() - started,
        budget=60.0,
    )

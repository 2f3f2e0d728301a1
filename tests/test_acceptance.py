"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines.

Every criterion is asserted at its stated tolerance. Two checks encode
published target values that the exact model narrowly misses; they are kept
strict rather than loosened, so they fail honestly:

* criterion 5 requires a mean phonon number of at least 0.1 at the pinned
  two-drive optimum; the converged value is 0.098311 (cutoff-independent to
  seven digits) while the correlation matches the published 0.0141 to four
  digits, so the 0.1 figure is a rounding of the same state, not a
  reachable target.
* criterion 7 requires photon and phonon statistics to agree within 10
  percent across the full detuning sweep at cavity damping ten times the
  qubit damping; the residual adiabaticity corrections at that ratio reach
  25 percent at the blockade dip (delta = 3) and 237 percent at
  delta = -7.5, the worst point of the scan. At a damping ratio of thirty
  they drop to 0.9 percent at the dip, which confirms the mechanism, but
  still reach 28 percent far from it (delta = -8.4), so raising the ratio
  alone would not meet the bound across the full sweep.
"""

import math
import time

import numpy as np
import pytest

from phonoblock.analytics import (
    no_qubit_drive_optimum,
    optimal_drive_roots,
    perturbative_amplitudes,
    quadratic_residual,
    thermal_occupation,
    two_drive_settings,
)
from phonoblock.correlations import g2_tau, g2_zero, mean_occupation
from phonoblock.hilbert import check_state, lowering
from phonoblock.model import (
    DetectionParams,
    MqParams,
    build_h_mq,
    build_h_total,
    collapse_ops,
    three_mode_space,
    two_mode_space,
)
from phonoblock.solver import (
    build_liouvillian,
    evolve,
    steady_state,
    trace_preservation_residual,
)
from phonoblock.sweep import solve_point

RNG = np.random.default_rng(20260214)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _two_mode(params: MqParams, mech_cutoff: int = 8):
    space = two_mode_space(mech_cutoff)
    liou = build_liouvillian(build_h_mq(params, space), collapse_ops(params, space))
    return space, liou, steady_state(liou)


def _three_mode(params: DetectionParams, cavity_cutoff: int = 3, mech_cutoff: int = 6):
    space = three_mode_space(cavity_cutoff, mech_cutoff)
    liou = build_liouvillian(build_h_total(params, space), collapse_ops(params, space))
    return space, liou, steady_state(liou)


def _g2(params: MqParams, mech_cutoff: int = 8) -> float:
    return solve_point(params, mech_cutoff, None, ("g2_zero",))[0]["g2_zero"]


def _two_drive_params(delta_opt: float, branch: str, eps: float, n_th: float = 0.0,
                      delta: float | None = None) -> MqParams:
    omega, phi = two_drive_settings(delta_opt, 3.0, 1.0, 1.0, eps, branch)
    return MqParams(
        delta=delta_opt if delta is None else delta,
        j=3.0, eps=eps, omega_drv=omega, phi=phi, n_th=n_th,
    )


UCPNB = MqParams(delta=0.0, j=1 / math.sqrt(2), eps=0.01)
CPNB = MqParams(delta=10.0, j=10.0, eps=0.01)


def test_criterion_01_interference_blockade_optimum():
    start = time.perf_counter()
    g2 = _g2(UCPNB)
    elapsed = time.perf_counter() - start
    ok = 0.0015 <= g2 <= 0.006 and elapsed < 1.0
    _report(1, "interference-blockade optimum", ok, f"g2={g2:.5f}, {elapsed:.2f}s")
    assert 0.0015 <= g2 <= 0.006, g2
    assert elapsed < 1.0, elapsed


def test_criterion_02_strong_coupling_blockade_and_parity():
    g2_pos = _g2(CPNB)
    g2_neg = _g2(MqParams(delta=-10.0, j=10.0, eps=0.01))
    ok = 0.07 <= g2_pos <= 0.14 and 0.07 <= g2_neg <= 0.14 and abs(g2_pos - g2_neg) <= 1e-6
    _report(2, "strong-coupling blockade, detuning parity", ok,
            f"g2(+)={g2_pos:.5f}, g2(-)={g2_neg:.5f}, diff={abs(g2_pos - g2_neg):.2e}")
    assert 0.07 <= g2_pos <= 0.14, g2_pos
    assert 0.07 <= g2_neg <= 0.14, g2_neg
    assert abs(g2_pos - g2_neg) <= 1e-6


def test_criterion_03_no_drive_optimum_matches_scan():
    grid = np.linspace(0.3, 1.6, 66)
    step = grid[1] - grid[0]
    details = []
    ok = True
    for gamma in (0.2, 1.0, 5.0):
        predicted = no_qubit_drive_optimum(1.0, gamma)[1]
        values = [
            _g2(MqParams(delta=0.0, j=float(j), eps=0.01, gamma=gamma)) for j in grid
        ]
        found = float(grid[int(np.argmin(values))])
        ok = ok and abs(found - predicted) <= step + 1e-12
        details.append(f"gamma={gamma}: scan {found:.4f} vs formula {predicted:.4f}")
        assert abs(found - predicted) <= step + 1e-12, details[-1]
    _report(3, "no-qubit-drive optimum location", ok, "; ".join(details))


def _first_unity_crossing(j: float, delta: float) -> float:
    lo, hi = 1e-7, 1e-2
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        g2 = _g2(MqParams(delta=delta, j=j, eps=0.01, n_th=mid))
        if g2 < 1.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_criterion_04_thermal_fragility_crossings():
    cpnb = _first_unity_crossing(10.0, 10.0)
    ucpnb = _first_unity_crossing(0.71, 0.0)
    ok_cpnb = 8.85e-5 / 2 <= cpnb <= 8.85e-5 * 2
    ok_ucpnb = 0.8e-5 / 2 <= ucpnb <= 0.8e-5 * 2
    _report(4, "thermal fragility thresholds", ok_cpnb and ok_ucpnb,
            f"strong-coupling n_th={cpnb:.3g} (target 8.85e-5), "
            f"interference n_th={ucpnb:.3g} (target 0.8e-5)")
    assert ok_cpnb, cpnb
    assert ok_ucpnb, ucpnb


def test_criterion_05_two_drive_enhancement():
    results = {}
    for label, branch, dopt in (("plus", "+", 3.0), ("minus", "-", -3.0)):
        values, _, _ = solve_point(_two_drive_params(dopt, branch, eps=0.2), 12, None,
                                   ("g2_zero", "n_b"))
        results[label] = (values["g2_zero"], values["n_b"])
    ok = all(
        0.007 <= g2 <= 0.028 and n_b >= 0.1 for g2, n_b in results.values()
    )
    detail = ", ".join(
        f"{k}: g2={g2:.5f}, n_b={n_b:.5f}" for k, (g2, n_b) in results.items()
    )
    _report(5, "two-drive enhancement", ok, detail)
    for label, (g2, n_b) in results.items():
        assert 0.007 <= g2 <= 0.028, (label, g2)
        # Known honest failure: the converged occupation at the pinned point
        # is 0.098311 while the published figure rounds it to "larger than
        # 0.1"; the bound is kept as stated.
        assert n_b >= 0.1, (label, n_b)


def test_criterion_06_robust_blockade_at_finite_temperature():
    params = _two_drive_params(3.0, "+", eps=0.4, n_th=0.06)
    g2_12 = _g2(params, mech_cutoff=12)
    g2_14 = _g2(params, mech_cutoff=14)
    converged = abs(g2_14 - g2_12) / g2_12 < 5e-3
    ok = g2_12 < 1.0 and converged
    _report(6, "blockade at thermal occupation 0.06", ok,
            f"g2={g2_12:.4f}, cutoff change {abs(g2_14 - g2_12) / g2_12:.2e}")
    assert g2_12 < 1.0, g2_12
    assert converged


def test_criterion_07_detection_equivalence():
    start = time.perf_counter()
    omega, phi = two_drive_settings(3.0, 3.0, 1.0, 1.0, eps=0.2, branch="+")
    deltas = np.linspace(-9.0, 9.0, 61)
    worst_photon = 0.0
    worst_photon_delta = 0.0
    worst_cavity_backaction = 0.0
    for delta in deltas:
        base = MqParams(delta=float(delta), j=3.0, eps=0.2,
                        omega_drv=omega, phi=phi, n_th=1e-3)
        det = DetectionParams(base=base, g_om=0.1, gamma_cav=10.0)
        values, _, _ = solve_point(det, 6, 3, ("g2_zero", "g2a_zero"))
        g2_b3, g2_a = values["g2_zero"], values["g2a_zero"]
        rel_photon = abs(g2_a - g2_b3) / g2_b3
        if rel_photon > worst_photon:
            worst_photon, worst_photon_delta = rel_photon, float(delta)
        g2_b2 = _g2(base)
        worst_cavity_backaction = max(
            worst_cavity_backaction, abs(g2_b3 - g2_b2) / g2_b2
        )
    elapsed = time.perf_counter() - start
    ok = worst_photon <= 0.1 and worst_cavity_backaction <= 0.1 and elapsed < 600
    _report(7, "optomechanical detection equivalence", ok,
            f"max photon-phonon rel diff {worst_photon:.3f} at delta="
            f"{worst_photon_delta:g}, max cavity back-action {worst_cavity_backaction:.3g}, "
            f"{elapsed:.0f}s")
    assert worst_cavity_backaction <= 0.1, worst_cavity_backaction
    assert elapsed < 600, elapsed
    # Known honest failure: at gamma_cav = 10 kappa the adiabatic
    # photon-phonon correspondence carries corrections far above 10 percent
    # (25 percent at the dip); the bound is kept as stated.
    assert worst_photon <= 0.1, worst_photon


def test_criterion_08_regression_suite():
    details = []
    # zero-delay boundary equals the equal-time value
    boundary_ok = True
    for params in (UCPNB, CPNB, _two_drive_params(3.0, "+", eps=0.2)):
        space, liou, rho = _two_mode(params)
        b = lowering(space, "m")
        tau0 = g2_tau(liou, rho, b, [0.0])[0][1]
        boundary_ok = boundary_ok and abs(tau0 - g2_zero(rho, b)) <= 1e-8
    details.append(f"tau=0 boundary {'ok' if boundary_ok else 'BROKEN'}")
    # decorrelation after twenty lifetimes
    late_ok = True
    for params in (UCPNB, CPNB):
        space, liou, rho = _two_mode(params)
        b = lowering(space, "m")
        horizon = 20.0 / min(params.gamma, params.kappa)
        late = g2_tau(liou, rho, b, [horizon])[0][1]
        late_ok = late_ok and abs(late - 1.0) <= 0.01
        details.append(f"g2({horizon:.0f})={late:.4f}")
    # coherent fixed point stays flat
    space, liou, rho = _two_mode(MqParams(j=0.0, eps=0.3))
    b = lowering(space, "m")
    flat = g2_tau(liou, rho, b, np.linspace(0.0, 20.0, 11))
    flat_ok = all(abs(v - 1.0) <= 1e-6 for _, v in flat)
    details.append(f"coherent flatness {'ok' if flat_ok else 'BROKEN'}")
    ok = boundary_ok and late_ok and flat_ok
    _report(8, "delayed-correlation regression suite", ok, "; ".join(details))
    assert boundary_ok and late_ok and flat_ok


def test_criterion_09_weak_drive_oracle_equivalence():
    worst = 0.0
    checked = 0
    for delta in np.linspace(-2.0, 2.0, 9):
        for j in np.linspace(0.2, 2.0, 7):
            params = MqParams(delta=float(delta), j=float(j), eps=0.01)
            full = _g2(params)
            if full < 0.02:
                continue
            estimate = perturbative_amplitudes(params).g2_weak_drive
            worst = max(worst, abs(estimate - full) / full)
            checked += 1
    # the double-excitation amplitude vanishes wherever the optimum
    # condition is met exactly
    c2g_values = []
    for gamma in (0.5, 1.0, 2.0):
        j_opt = no_qubit_drive_optimum(1.0, gamma)[1]
        amps = perturbative_amplitudes(
            MqParams(delta=0.0, j=j_opt, eps=0.01, gamma=gamma)
        )
        c2g_values.append(abs(amps.c2g))
    for branch in ("+", "-"):
        amps = perturbative_amplitudes(_two_drive_params(3.0, branch, eps=0.01))
        c2g_values.append(abs(amps.c2g))
    vanish_ok = max(c2g_values) <= 1e-12
    ok = worst <= 0.1 and vanish_ok and checked > 30
    _report(9, "weak-drive oracle equivalence", ok,
            f"worst rel dev {worst:.3f} over {checked} points, "
            f"max |c2g| at optima {max(c2g_values):.1e}")
    assert worst <= 0.1, worst
    assert vanish_ok, max(c2g_values)


def test_criterion_10_root_residuals_and_ordering():
    worst = 0.0
    for _ in range(1000):
        delta_opt = float(RNG.uniform(-5, 5))
        j_opt = float(RNG.uniform(0.1, 10))
        kappa = float(RNG.uniform(0.1, 5))
        gamma = float(RNG.uniform(0.1, 5))
        roots = optimal_drive_roots(delta_opt, j_opt, kappa, gamma)
        for branch in ("+", "-"):
            worst = max(
                worst,
                quadratic_residual(roots.root(branch), delta_opt, j_opt, kappa, gamma),
            )
    ordering_ok = True
    for delta_opt in (0.01, 0.5, 3.0):
        right = optimal_drive_roots(delta_opt, 3.0, 1.0, 1.0)
        left = optimal_drive_roots(-delta_opt, 3.0, 1.0, 1.0)
        ordering_ok = ordering_ok and right.eta_plus > right.eta_minus
        ordering_ok = ordering_ok and left.eta_plus < left.eta_minus
    ok = worst <= 1e-10 and ordering_ok
    _report(10, "optimum-root residuals and ordering", ok,
            f"worst residual {worst:.2e} over 1000 draws, ordering "
            f"{'ok' if ordering_ok else 'BROKEN'}")
    assert worst <= 1e-10, worst
    assert ordering_ok


def test_criterion_11_state_validity_suite():
    cases: list[tuple[str, MqParams | DetectionParams, int]] = [
        ("c1", UCPNB, 8),
        ("c2+", CPNB, 8),
        ("c2-", MqParams(delta=-10.0, j=10.0, eps=0.01), 8),
        ("c3", MqParams(delta=0.0, j=0.55, eps=0.01, gamma=0.2), 8),
        ("c4", MqParams(delta=10.0, j=10.0, eps=0.01, n_th=8.85e-5), 8),
        ("c5", _two_drive_params(3.0, "+", eps=0.2), 12),
        ("c6", _two_drive_params(3.0, "+", eps=0.4, n_th=0.06), 12),
        (
            "c7",
            DetectionParams(
                base=_two_drive_params(3.0, "+", eps=0.2, n_th=1e-3),
                g_om=0.1,
                gamma_cav=10.0,
            ),
            6,
        ),
    ]
    checked = 0
    for label, params, cutoff in cases:
        if isinstance(params, DetectionParams):
            space, liou, rho = _three_mode(params, mech_cutoff=cutoff)
        else:
            space, liou, rho = _two_mode(params, mech_cutoff=cutoff)
        check_state(rho)
        assert trace_preservation_residual(liou) <= 1e-10, label
        checked += 1
    # evolved states along a regression trajectory stay valid
    space, liou, rho = _two_mode(UCPNB)
    b = lowering(space, "m")
    n_b = mean_occupation(rho, b)
    conditional = type(rho)(space, (b.mat @ rho.mat @ b.dag().mat) / n_b)
    for state in evolve(conditional, liou, [0.0, 1.0, 5.0, 20.0]):
        check_state(state)
        checked += 1
    _report(11, "state-validity suite", True,
            f"{checked} states validated, all generators trace-preserving")


def test_criterion_12_thermal_helper_device_point():
    n = thermal_occupation(6e9, 0.025)
    ok = 0.9e-5 <= n <= 1.1e-5
    _report(12, "thermal occupation of the demonstrated device", ok,
            f"n_th={n:.3e}")
    assert ok, n

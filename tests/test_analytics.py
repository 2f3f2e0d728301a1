"""Closed-form optima, weak-drive amplitudes, and thermal helpers."""

import math

import numpy as np
import pytest

from phonoblock.analytics import (
    effective_mech_params,
    no_qubit_drive_optimum,
    optimal_coefficients,
    optimal_drive_roots,
    perturbative_amplitudes,
    quadratic_residual,
    thermal_occupation,
    two_drive_settings,
)
from phonoblock.correlations import g2_zero
from phonoblock.errors import ParameterError, SingularSystemError
from phonoblock.hilbert import lowering
from phonoblock.model import MqParams
from oracle import model_steady_state

RNG = np.random.default_rng(424242)


def _full_g2(p):
    space, _, rho = model_steady_state(p)
    return g2_zero(rho, lowering(space, "m"))


def test_coefficients_vanish_at_no_drive_optimum():
    kappa, gamma = 1.0, 1.0
    j_opt = 0.5 * math.sqrt(kappa * (kappa + gamma))
    a0, a1, a2 = optimal_coefficients(0.0, j_opt, kappa, gamma)
    assert abs(a0) < 1e-14
    assert a1 != 0 and a2 != 0


def test_coefficients_decoupled_limit():
    delta, kappa, gamma = 1.3, 1.0, 0.7
    a0, a1, a2 = optimal_coefficients(delta, 0.0, kappa, gamma)
    assert a1 == 0 and a2 == 0
    expected = math.sqrt(2) * (delta - 0.5j * kappa) * (2 * delta - 0.5j * (kappa + gamma))
    assert a0 == pytest.approx(expected)


def test_roots_satisfy_quadratic():
    for delta_opt in (-3.0, 0.0, 3.0):
        roots = optimal_drive_roots(delta_opt, 3.0, 1.0, 1.0)
        for branch in ("+", "-"):
            assert quadratic_residual(roots.root(branch), delta_opt, 3.0, 1.0, 1.0) < 1e-10


def test_roots_residual_for_random_draws():
    for _ in range(200):
        delta_opt = float(RNG.uniform(-5, 5))
        j_opt = float(RNG.uniform(0.1, 10))
        kappa = float(RNG.uniform(0.1, 5))
        gamma = float(RNG.uniform(0.1, 5))
        roots = optimal_drive_roots(delta_opt, j_opt, kappa, gamma)
        for branch in ("+", "-"):
            assert (
                quadratic_residual(roots.root(branch), delta_opt, j_opt, kappa, gamma)
                < 1e-10
            )


def test_root_modulus_ordering_follows_detuning_sign():
    plus = optimal_drive_roots(3.0, 3.0, 1.0, 1.0)
    minus = optimal_drive_roots(-3.0, 3.0, 1.0, 1.0)
    assert plus.eta_plus > plus.eta_minus
    assert minus.eta_plus < minus.eta_minus


def test_root_phases_jump_across_zero_detuning():
    left = optimal_drive_roots(-0.01, 3.0, 1.0, 1.0)
    right = optimal_drive_roots(0.01, 3.0, 1.0, 1.0)
    assert abs(right.phi_plus - left.phi_plus) > math.pi / 4
    assert abs(right.phi_minus - left.phi_minus) > math.pi / 4


def test_root_phases_wrapped():
    for delta_opt in np.linspace(-6, 6, 25):
        roots = optimal_drive_roots(float(delta_opt), 3.0, 1.0, 1.0)
        for phi in (roots.phi_plus, roots.phi_minus):
            assert -math.pi < phi <= math.pi


def test_roots_require_positive_coupling():
    with pytest.raises(ParameterError):
        optimal_drive_roots(1.0, 0.0, 1.0, 1.0)


def test_no_qubit_drive_optimum_values():
    delta_opt, j_opt = no_qubit_drive_optimum(1.0, 1.0)
    assert delta_opt == 0.0
    assert j_opt == pytest.approx(1 / math.sqrt(2))
    assert no_qubit_drive_optimum(1.0, 0.0)[1] == pytest.approx(0.5)
    assert no_qubit_drive_optimum(1.0, 5.0)[1] == pytest.approx(0.5 * math.sqrt(6))


def test_two_drive_settings_consistency():
    roots = optimal_drive_roots(3.0, 3.0, 1.0, 1.0)
    omega, phi = two_drive_settings(3.0, 3.0, 1.0, 1.0, eps=0.2, branch="+")
    assert omega == pytest.approx(roots.eta_plus * 0.2)
    assert phi == pytest.approx(roots.phi_plus)


def test_two_drive_optimum_reaches_deep_blockade():
    omega, phi = two_drive_settings(3.0, 3.0, 1.0, 1.0, eps=0.2, branch="+")
    g2 = _full_g2(MqParams(delta=3.0, j=3.0, eps=0.2, omega_drv=omega, phi=phi))
    assert 0.007 <= g2 <= 0.028


def test_weak_drive_amplitude_vanishes_at_optima():
    # no qubit drive
    amps = perturbative_amplitudes(
        MqParams(delta=0.0, j=1 / math.sqrt(2), eps=0.005)
    )
    assert abs(amps.c2g) < 1e-12
    # two drives at the interference optimum
    omega, phi = two_drive_settings(3.0, 3.0, 1.0, 1.0, eps=0.005, branch="+")
    amps = perturbative_amplitudes(
        MqParams(delta=3.0, j=3.0, eps=0.005, omega_drv=omega, phi=phi)
    )
    assert abs(amps.c2g) < 1e-12


def test_weak_drive_amplitudes_raise_on_a_singular_system():
    # at zero detuning and coupling the single-excitation determinant is
    # -kappa * gamma / 4, which underflows for rates of 1e-160
    with pytest.raises(SingularSystemError, match="single-excitation system is singular"):
        perturbative_amplitudes(MqParams(kappa=1e-160, gamma=1e-160, eps=0.01))


def test_weak_drive_estimate_against_full_solver():
    p = MqParams(delta=0.3, j=1.0, eps=0.005)
    estimate = perturbative_amplitudes(p).g2_weak_drive
    full = _full_g2(p)
    assert abs(estimate - full) / full < 0.05


def test_weak_drive_amplitude_hierarchy():
    amps = perturbative_amplitudes(
        MqParams(delta=0.5, j=1.0, eps=0.01, omega_drv=0.008, phi=0.3)
    )
    first = max(abs(amps.c0e), abs(amps.c1g))
    second = max(abs(amps.c1e), abs(amps.c2g))
    assert first < 0.1  # well below the ground-state amplitude of 1
    assert second * 10 < first


def test_weak_drive_rejects_thermal_bath():
    with pytest.raises(ParameterError):
        perturbative_amplitudes(MqParams(eps=0.005, n_th=0.1))


def test_thermal_occupation_device_point():
    n = thermal_occupation(6e9, 0.025)
    assert 0.9e-5 <= n <= 1.1e-5


def test_thermal_occupation_limits():
    assert thermal_occupation(1e9, 0.0) == 0.0
    # hbar omega = k_B T ln 2 gives exactly one quantum
    temp = 0.1
    freq = 1.380649e-23 * temp * math.log(2) / (2 * math.pi * 1.054571817e-34)
    assert thermal_occupation(freq, temp) == pytest.approx(1.0, abs=1e-12)
    assert thermal_occupation(1e30, 1e-3) == 0.0  # overflow guard
    with pytest.raises(ParameterError):
        thermal_occupation(-1.0, 0.1)
    with pytest.raises(ParameterError):
        thermal_occupation(1e9, -0.1)


def test_thermal_occupation_depends_on_the_ratio_only():
    # h f / k T = 1e-9 .. 1e2 at frequencies and temperatures whose products
    # with HBAR and K_B underflow
    for ratio in (1e-9 / 4.799243073366221e-11, 1.0, 100.0, 1e12):
        ordinary = thermal_occupation(ratio, 1.0)
        assert ordinary > 0.0
        assert thermal_occupation(ratio * 1e-300, 1e-300) == pytest.approx(ordinary, rel=1e-12)
    assert thermal_occupation(6e9, 1e-320) == 0.0


def test_thermal_occupation_monotonicity():
    # ranges keep the exponent well away from the underflow guard, where
    # both values would round to exactly zero
    for _ in range(50):
        f1, f2 = sorted(RNG.uniform(1e8, 1e10, size=2))
        t1, t2 = sorted(RNG.uniform(0.01, 1.0, size=2))
        if f1 == f2 or t1 == t2:
            continue
        assert thermal_occupation(f2, t1) < thermal_occupation(f1, t1)
        assert thermal_occupation(f1, t1) < thermal_occupation(f1, t2)


def test_effective_mech_params_decoupled():
    out = effective_mech_params(0.0, 10.0, 1000.0, 0.5, 0.02)
    assert out.gamma_eff == pytest.approx(0.5)
    assert out.n_eff == pytest.approx(0.02)
    assert out.gamma_om == 0.0
    assert out.n_om == pytest.approx(10.0**2 / (16 * 1000.0**2))
    assert out.delta_omega == 0.0


def test_effective_mech_params_sideband_limit():
    gamma_cav = 1.0
    omega_m = 100.0 * gamma_cav
    out = effective_mech_params(0.3, gamma_cav, omega_m, 0.1, 0.0)
    assert out.gamma_om == pytest.approx(4 * 0.3**2 / gamma_cav, rel=0.01)


def test_effective_mech_params_readout_regime_negligible():
    # readout settings leave the mechanical damping and occupation unchanged
    # to leading order
    gamma = 1.0
    n_m_th = 1e-3
    out = effective_mech_params(0.1, 10.0, 6e3, gamma, n_m_th)
    assert out.gamma_om < 1e-2 * gamma
    assert out.gamma_om * out.n_om < 1e-2 * gamma * n_m_th
    assert abs(out.gamma_eff - gamma) / gamma < 1e-2
    assert abs(out.n_eff - n_m_th) / n_m_th < 1e-2

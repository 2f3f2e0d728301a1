"""Equal-time and delayed second-order correlations."""

import numpy as np
import pytest

from phonoblock.correlations import g2_tau, g2_zero, mean_occupation, relative_tail
from phonoblock.errors import UnpopulatedModeError
from phonoblock.hilbert import DensityMatrix, fock_dm, lowering
from phonoblock.model import MqParams, three_mode_space, two_mode_space
from oracle import model_steady_state


def test_coherent_fixed_point_is_poissonian():
    space, _, rho = model_steady_state(MqParams(j=0.0, eps=0.3))
    assert g2_zero(rho, lowering(space, "m")) == pytest.approx(1.0, abs=1e-6)


def test_thermal_fixed_point_is_bunched():
    space, _, rho = model_steady_state(MqParams(j=0.0, eps=0.0, n_th=0.2), 12)
    assert g2_zero(rho, lowering(space, "m")) == pytest.approx(2.0, abs=1e-4)


def test_interference_blockade_depth():
    # moderate coupling at the no-qubit-drive optimum: g2 around 0.003
    space, _, rho = model_steady_state(MqParams(delta=0.0, j=1 / np.sqrt(2), eps=0.01))
    g2 = g2_zero(rho, lowering(space, "m"))
    assert 0.0015 <= g2 <= 0.006


def test_relative_tail_reads_each_modes_reduced_populations():
    # a product of diagonal states: the mode's reduced populations are its own
    space = three_mode_space(2, 4)
    pops = {"a": np.array([0.9, 0.09, 0.01]), "q": np.array([0.7, 0.3]),
            "m": np.array([0.5, 0.3, 0.1, 0.07, 0.03])}
    diag = np.array([1.0])
    for f in space.factors:
        diag = np.kron(diag, pops[f.label])
    rho = DensityMatrix(space, np.diag(diag).astype(complex))
    assert relative_tail(rho, lowering(space, "m")) == pytest.approx(0.03 / 0.1, rel=1e-14)
    assert relative_tail(rho, lowering(space, "a")) == pytest.approx(1.0, rel=1e-14)


def test_relative_tail_is_infinite_without_two_quanta():
    space = two_mode_space(4)
    b = lowering(space, "m")
    assert relative_tail(fock_dm(space, {"m": 1}), b) == np.inf
    assert relative_tail(fock_dm(space, {"m": 2}), b) == 0.0


def test_unpopulated_mode_guard():
    space, _, rho = model_steady_state(MqParams(j=1.0, eps=0.0, n_th=0.0))
    with pytest.raises(UnpopulatedModeError):
        g2_zero(rho, lowering(space, "m"))


def test_mean_occupation_examples():
    space, _, rho = model_steady_state(MqParams(j=0.0, eps=0.3))
    assert mean_occupation(rho, lowering(space, "m")) == pytest.approx(0.36, abs=1e-6)
    vac = fock_dm(space)
    assert mean_occupation(vac, lowering(space, "m")) == 0.0


def test_g2_tau_boundary_matches_equal_time():
    for p in (
        MqParams(delta=0.0, j=1 / np.sqrt(2), eps=0.01),
        MqParams(delta=10.0, j=10.0, eps=0.01),
        MqParams(delta=1.0, j=2.0, eps=0.05, omega_drv=0.03, phi=0.7),
    ):
        space, liou, rho = model_steady_state(p)
        b = lowering(space, "m")
        series = g2_tau(liou, rho, b, [0.0, 0.5])
        assert series[0][1] == pytest.approx(g2_zero(rho, b), abs=1e-8)


def test_g2_tau_coherent_case_flat():
    space, liou, rho = model_steady_state(MqParams(j=0.0, eps=0.3))
    b = lowering(space, "m")
    for _, value in g2_tau(liou, rho, b, [0.0, 1.0, 3.0, 10.0]):
        assert value == pytest.approx(1.0, abs=1e-6)


def test_g2_tau_blockade_recovers_on_phonon_lifetime():
    # strong-coupling blockade point: antibunched at zero delay, decorrelated
    # after a few phonon lifetimes (2 pi / kappa scale)
    space, liou, rho = model_steady_state(MqParams(delta=10.0, j=10.0, eps=0.01))
    b = lowering(space, "m")
    taus = [0.0, 2 * np.pi, 3 * 2 * np.pi]
    series = dict(g2_tau(liou, rho, b, taus))
    assert 0.07 <= series[0.0] <= 0.14
    assert 0.85 <= series[2 * np.pi] <= 1.0
    assert series[3 * 2 * np.pi] == pytest.approx(1.0, abs=0.01)


def test_g2_even_in_detuning_without_qubit_drive():
    for delta in (0.3, 2.0, 10.0):
        space, _, rho_p = model_steady_state(MqParams(delta=delta, j=10.0, eps=0.01))
        _, _, rho_m = model_steady_state(MqParams(delta=-delta, j=10.0, eps=0.01))
        b = lowering(space, "m")
        assert g2_zero(rho_p, b) == pytest.approx(g2_zero(rho_m, b), abs=1e-6)


def test_g2_nonnegative_and_real():
    p = MqParams(delta=3.0, j=3.0, eps=0.2, omega_drv=0.62, phi=0.21)
    space, _, rho = model_steady_state(p)
    assert g2_zero(rho, lowering(space, "m")) >= 0.0

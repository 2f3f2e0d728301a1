"""Hamiltonian assembly, collapse channels, and the dressed ladder."""

from dataclasses import fields

import numpy as np
import pytest

from phonoblock.analytics import two_drive_settings
from phonoblock.errors import ParameterError
from phonoblock.hilbert import hermiticity_defect, lowering, make_space, number
from phonoblock.model import (
    DetectionParams,
    MqParams,
    _TWO_MODE_H,
    build_h_mq,
    build_h_total,
    collapse_ops,
    device_preset,
    dressed_spectrum,
    flat_params,
    model_cutoffs,
    model_space,
    term_generators,
    three_mode_space,
    two_mode_space,
    with_flat_updates,
    with_two_drive_optimum,
    wrap_phase,
)

RNG = np.random.default_rng(20260809)


def test_h_mq_pure_detuning_spectrum():
    space = two_mode_space()
    h = build_h_mq(MqParams(delta=1.0), space)
    # diag of delta (n_b + n_q): every combination of phonon number and
    # qubit excitation appears once
    expected = sorted(n + e for n in range(9) for e in (0, 1))
    assert np.allclose(np.sort(np.linalg.eigvalsh(h.mat)), expected, atol=1e-12)


def test_h_mq_jaynes_cummings_doublets():
    # resonant undriven ladder at the smallest admissible cutoff: manifolds
    # at 0, +/-J, +/-sqrt(2) J, and the truncated top state at 0
    space = make_space([("m", 2), ("q", "qubit")])
    h = build_h_mq(MqParams(delta=0.0, j=1.0), space)
    expected = sorted([0.0, -1.0, 1.0, -np.sqrt(2), np.sqrt(2), 0.0])
    assert np.allclose(np.sort(np.linalg.eigvalsh(h.mat)), expected, atol=1e-12)


def test_h_mq_hermitian_for_random_params():
    space = two_mode_space(4)
    for _ in range(100):
        p = MqParams(
            delta=float(RNG.uniform(-20, 20)),
            j=float(RNG.uniform(0, 15)),
            eps=float(RNG.uniform(0, 2)),
            omega_drv=float(RNG.uniform(0, 2)),
            phi=float(RNG.uniform(-np.pi, np.pi)),
            kappa=float(RNG.uniform(0.1, 5)),
            gamma=float(RNG.uniform(0.1, 5)),
            n_th=float(RNG.uniform(0, 1)),
        )
        assert hermiticity_defect(build_h_mq(p, space).mat) < 1e-12


def test_h_total_decouples_at_zero_readout_coupling():
    cavity_cutoff, mech_cutoff = 3, 4
    space = three_mode_space(cavity_cutoff, mech_cutoff)
    base = MqParams(delta=0.7, j=1.3, eps=0.2, omega_drv=0.4, phi=0.5)
    h = build_h_total(DetectionParams(base=base, g_om=0.0, gamma_cav=10.0), space)
    mq_space = two_mode_space(mech_cutoff)
    h_mq = build_h_mq(base, mq_space)
    eye_cav = np.eye(cavity_cutoff + 1, dtype=complex)
    n_cav = np.diag(np.arange(cavity_cutoff + 1)).astype(complex)
    expected = np.kron(eye_cav, h_mq.mat) + base.delta * np.kron(
        n_cav, np.eye(mq_space.total_dim)
    )
    assert np.allclose(h.mat, expected, atol=1e-14)


def test_h_total_beam_splitter_doublet():
    # cavity-mechanics exchange alone: single-excitation eigenvalues +/-|G|
    space = three_mode_space(2, 2)
    p = DetectionParams(base=MqParams(delta=0.0, j=0.0), g_om=1.0, gamma_cav=1.0)
    evals = np.linalg.eigvalsh(build_h_total(p, space).mat)
    assert np.isclose(evals.min(), -2.0, atol=1e-12)  # two-excitation manifold
    for target in (-1.0, 1.0):
        assert np.any(np.isclose(evals, target, atol=1e-12))


def test_h_total_hermitian_for_complex_coupling():
    space = three_mode_space(2, 3)
    for _ in range(100):
        g = float(RNG.uniform(0, 2)) * np.exp(1j * float(RNG.uniform(-np.pi, np.pi)))
        p = DetectionParams(
            base=MqParams(
                delta=float(RNG.uniform(-5, 5)),
                j=float(RNG.uniform(0, 5)),
                eps=float(RNG.uniform(0, 1)),
                omega_drv=float(RNG.uniform(0, 1)),
                phi=float(RNG.uniform(-np.pi, np.pi)),
            ),
            g_om=g,
            gamma_cav=float(RNG.uniform(0.5, 20)),
        )
        assert hermiticity_defect(build_h_total(p, space).mat) < 1e-12


def test_collapse_ops_zero_temperature():
    space = two_mode_space(4)
    p = MqParams(kappa=1.0, gamma=1.0, n_th=0.0)
    channels = collapse_ops(p, space)
    assert len(channels) == 2
    assert channels[0][0] == pytest.approx(p.gamma)
    assert channels[1][0] == pytest.approx(p.kappa)


def test_collapse_ops_thermal_rates():
    space = two_mode_space(4)
    channels = collapse_ops(MqParams(kappa=1.0, gamma=1.0, n_th=0.5), space)
    assert [rate for rate, _ in channels] == pytest.approx([1.5, 0.5, 1.5, 0.5])


def test_collapse_ops_three_mode_cavity_channel():
    space = three_mode_space(2, 3)
    p = DetectionParams(base=MqParams(n_th=0.0), g_om=0.1, gamma_cav=7.0)
    channels = collapse_ops(p, space)
    assert len(channels) == 3
    rate, op = channels[-1]
    assert rate == pytest.approx(7.0)
    assert np.array_equal(op.mat, lowering(space, "a").mat)


def test_collapse_rates_nonnegative():
    space = two_mode_space(3)
    for _ in range(50):
        p = MqParams(
            kappa=float(RNG.uniform(0.01, 10)),
            gamma=float(RNG.uniform(0.01, 10)),
            n_th=float(RNG.uniform(0, 3)),
        )
        assert all(rate >= 0 for rate, _ in collapse_ops(p, space))


def test_dressed_spectrum_closed_form():
    rungs = dressed_spectrum(10.0, 10.0, 2)
    assert rungs[0] == (1, pytest.approx(20.0), pytest.approx(0.0))
    n, e_plus, e_minus = rungs[1]
    assert (n, e_plus, e_minus) == (
        2,
        pytest.approx(20 + 10 * np.sqrt(2)),
        pytest.approx(20 - 10 * np.sqrt(2)),
    )
    with pytest.raises(ParameterError):
        dressed_spectrum(1.0, 0.0, 0)


def test_dressed_spectrum_matches_dense_diagonalization():
    j, delta = 3.0, 1.5
    space = two_mode_space(7)
    evals = np.linalg.eigvalsh(build_h_mq(MqParams(delta=delta, j=j), space).mat)
    for n, e_plus, e_minus in dressed_spectrum(j, delta, 4):
        for target in (e_plus, e_minus):
            assert np.min(np.abs(evals - target)) < 1e-10, (n, target)


def test_drive_sign_phase_invariance():
    # (omega, phi) -> (-omega, phi + pi) leaves the drive terms unchanged.
    # MqParams rejects a negative drive amplitude, so a plain field map stands in.
    generators, _ = term_generators(two_mode_space(4))

    def h(f):  # the two-mode table's coefficient * generator terms, summed
        return sum(c(f) * g.mat for (c, _), g in zip(_TWO_MODE_H, generators))

    for _ in range(20):
        eps = float(RNG.uniform(0, 1))
        omega = float(RNG.uniform(0, 1))
        phi = float(RNG.uniform(-np.pi, np.pi))
        direct = dict(delta=0.0, j=0.0, eps=eps, omega_drv=omega, phi=phi)
        flipped = dict(delta=0.0, j=0.0, eps=eps, omega_drv=-omega, phi=phi + np.pi)
        assert np.allclose(h(direct), h(flipped), atol=1e-14)


def test_total_excitation_conserved_without_drives():
    space = two_mode_space(5)
    h = build_h_mq(MqParams(delta=2.0, j=3.0), space)
    n_tot = (number(space, "m") + number(space, "q")).mat
    assert np.max(np.abs(h.mat @ n_tot - n_tot @ h.mat)) < 1e-12

    space3 = three_mode_space(3, 4)
    h3 = build_h_total(
        DetectionParams(base=MqParams(delta=2.0, j=3.0), g_om=0.3 + 0.4j), space3
    )
    n_tot3 = (
        number(space3, "a") + number(space3, "m") + number(space3, "q")
    ).mat
    assert np.max(np.abs(h3.mat @ n_tot3 - n_tot3 @ h3.mat)) < 1e-12


def test_params_validation():
    with pytest.raises(ParameterError):
        MqParams(j=-0.1)
    with pytest.raises(ParameterError):
        MqParams(kappa=0.0)
    with pytest.raises(ParameterError):
        MqParams(gamma=-1.0)
    with pytest.raises(ParameterError):
        MqParams(n_th=-1e-9)
    with pytest.raises(ParameterError):
        MqParams(delta=float("inf"))
    with pytest.raises(ParameterError):
        DetectionParams(gamma_cav=0.0)


def test_phase_wrapping():
    assert MqParams(phi=3 * np.pi).phi == pytest.approx(np.pi)
    assert MqParams(phi=-np.pi).phi == pytest.approx(np.pi)
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert -np.pi < MqParams(phi=-1.5 * np.pi).phi <= np.pi


@pytest.mark.parametrize(
    "phi", [0.1, -0.1, 1.0, np.pi, -2.5, -3.0, np.nextafter(-np.pi, 0.0)]
)
def test_wrap_phase_keeps_an_in_range_phase(phi):
    # (phi + pi) % 2pi - pi would move 0.1 to 0.10000000000000009
    assert wrap_phase(phi) == phi
    assert MqParams(phi=phi).phi == phi


def test_space_factor_requirements():
    with pytest.raises(ParameterError):
        build_h_mq(MqParams(), make_space([("m", 3)]))
    with pytest.raises(ParameterError):
        build_h_total(DetectionParams(), two_mode_space(3))


def test_builders_reject_the_other_models_space():
    with pytest.raises(ParameterError):
        build_h_mq(MqParams(), three_mode_space())
    with pytest.raises(ParameterError):
        collapse_ops(MqParams(), three_mode_space())
    with pytest.raises(ParameterError):
        collapse_ops(DetectionParams(), two_mode_space())


def test_builders_require_the_declared_labels():
    # same factor kinds as the two-mode space, other labels
    space = make_space([("x", 3), ("y", "qubit")])
    with pytest.raises(ParameterError, match="labelled"):
        build_h_mq(MqParams(), space)
    with pytest.raises(ParameterError, match="labelled"):
        collapse_ops(MqParams(), space)
    swapped = make_space([("m", 3), ("a", 3), ("q", "qubit")])
    with pytest.raises(ParameterError, match="labelled"):
        build_h_total(DetectionParams(), swapped)
    assert two_mode_space().labels == ("m", "q")
    assert three_mode_space().labels == ("a", "m", "q")


def test_three_mode_hamiltonian_contains_the_two_mode_terms():
    # with the cavity in vacuum, H_total restricted to a = 0 is H_mq exactly
    base = MqParams(delta=-1.3, j=2.1, eps=0.4, omega_drv=0.7, phi=2.0)
    space = three_mode_space(2, 5)
    h = build_h_total(DetectionParams(base=base, g_om=0.3 - 0.2j), space)
    h_mq = build_h_mq(base, two_mode_space(5))
    d = h_mq.mat.shape[0]
    assert np.array_equal(h.mat[:d, :d], h_mq.mat)


def test_device_preset_matches_reported_numbers():
    mq = device_preset()
    assert mq.j == pytest.approx(124 / 9, rel=1e-12)
    assert mq.gamma == pytest.approx(26 / 9, rel=1e-12)
    assert 0.9e-5 < mq.n_th < 1.1e-5


def test_with_two_drive_optimum_matches_two_drive_settings():
    base = MqParams(delta=1.5, j=3.0, eps=0.2, kappa=1.2, gamma=0.8)
    for branch in ("+", "-"):
        p = with_two_drive_optimum(base, 3.0, branch)
        omega, phi = two_drive_settings(3.0, 3.0, 1.2, 0.8, 0.2, branch)
        assert p.omega_drv == omega
        assert p.phi == phi
        assert p.delta == base.delta


def test_with_two_drive_optimum_rejects_bad_branch():
    with pytest.raises(ParameterError):
        with_two_drive_optimum(MqParams(j=3.0, eps=0.2), 3.0, "x")


def test_with_two_drive_optimum_sets_three_mode_base():
    base = MqParams(j=3.0, eps=0.2)
    det = with_two_drive_optimum(DetectionParams(base=base, gamma_cav=20.0), 3.0, "-")
    assert det.base == with_two_drive_optimum(base, 3.0, "-")
    assert det.gamma_cav == 20.0


def test_flat_params_schema_and_round_trip():
    p = DetectionParams(
        base=MqParams(delta=1.5, j=2.0, eps=0.3, phi=0.4, n_th=0.01),
        g_om=0.2 + 0.1j,
        gamma_cav=30.0,
    )
    flat = flat_params(p)
    assert list(flat) == [f.name for f in fields(MqParams)] + ["g_om", "gamma_cav"]
    assert flat_params(p.base) == {k: flat[k] for k in flat_params(MqParams())}
    assert with_flat_updates(DetectionParams(), flat) == p
    q = with_flat_updates(p, {"j": 4.0, "gamma_cav": 5.0})
    assert (q.base.j, q.gamma_cav, q.base.delta, q.g_om) == (4.0, 5.0, 1.5, p.g_om)


def test_build_model_picks_space_and_default_cutoffs():
    p = MqParams(j=1.0, eps=0.1)
    space = model_space(p)
    assert space == two_mode_space()
    assert len(collapse_ops(p, space)) == 2
    det = DetectionParams(base=MqParams(j=1.0, eps=0.1))
    space3 = model_space(det, mech_cutoff=4)
    assert space3 == three_mode_space(mech_cutoff=4)
    assert len(collapse_ops(det, space3)) == 3


@pytest.mark.parametrize(
    "params, cutoffs",
    [
        (MqParams(), {"mech_cutoff": 0}),
        (DetectionParams(), {"mech_cutoff": 0}),
        (DetectionParams(), {"cavity_cutoff": 0}),
        # the two-mode model has no cavity to truncate
        (MqParams(), {"cavity_cutoff": 3}),
    ],
)
def test_build_model_rejects_zero_cutoff(params, cutoffs):
    with pytest.raises(ParameterError, match="cutoff"):
        model_space(params, **cutoffs)


def test_model_cutoffs_defaults_and_errors():
    assert model_cutoffs(MqParams()) == (8, None)
    assert model_cutoffs(MqParams(), mech_cutoff=12) == (12, None)
    assert model_cutoffs(DetectionParams()) == (6, 3)
    assert model_cutoffs(DetectionParams(), 4, 2) == (4, 2)
    # the space of the params' model is built at exactly these truncations
    space = model_space(DetectionParams(), cavity_cutoff=2)
    assert [space.factor(label).dim - 1 for label in ("m", "a")] == [6, 2]
    with pytest.raises(ParameterError, match="cavity_cutoff"):
        model_cutoffs(MqParams(), cavity_cutoff=3)

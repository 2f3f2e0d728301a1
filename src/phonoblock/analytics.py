"""Closed-form results: interference optima, weak-drive amplitudes, thermal
occupations, and adiabatic readout parameters.

Strong phonon antibunching by destructive interference occurs where the
two-phonon excitation amplitude vanishes. For weak drives that condition is a
quadratic in the complex drive ratio z = eta e^{-i phi} (qubit drive over
mechanical drive),

    A2 z^2 + A1 z + A0 = 0,

whose two roots give the drive settings that place the interference optimum
at a chosen detuning and coupling. With no qubit drive the condition reduces
to A0 = 0, fixing detuning zero and coupling sqrt(kappa (kappa + gamma)) / 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SingularSystemError
from .model import MqParams, _require_finite, _require_nonneg, _require_positive, wrap_phase

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J / K


@dataclass(frozen=True)
class OptimalRoots:
    """Moduli and phases of the two drive-ratio roots z = eta e^{-i phi}."""

    eta_plus: float
    phi_plus: float
    eta_minus: float
    phi_minus: float

    def select(self, branch: str) -> tuple[float, float]:
        """Modulus and phase (eta, phi) of the '+' or '-' root."""
        if branch == "+":
            return self.eta_plus, self.phi_plus
        if branch == "-":
            return self.eta_minus, self.phi_minus
        raise ParameterError(f"branch must be '+' or '-', got {branch!r}")

    def root(self, branch: str) -> complex:
        eta, phi = self.select(branch)
        return eta * cmath.exp(-1j * phi)


def _require_optimum_inputs(delta_opt: float, kappa: float, gamma: float) -> None:
    _require_finite("delta_opt", delta_opt)
    _require_positive("kappa", kappa)
    _require_positive("gamma", gamma)


def optimal_coefficients(
    delta_opt: float, j_opt: float, kappa: float, gamma: float
) -> tuple[complex, complex, complex]:
    """Coefficients (A0, A1, A2) of the interference-optimum quadratic."""
    _require_finite("j_opt", j_opt)
    _require_optimum_inputs(delta_opt, kappa, gamma)
    half_kg = 2.0 * delta_opt - 0.5j * (kappa + gamma)
    a2 = math.sqrt(2.0) * j_opt**2 + 0.0j
    a1 = -2.0 * math.sqrt(2.0) * j_opt * half_kg
    a0 = math.sqrt(2.0) * j_opt**2 + math.sqrt(2.0) * (delta_opt - 0.5j * kappa) * half_kg
    return a0, a1, a2


def optimal_drive_roots(
    delta_opt: float, j_opt: float, kappa: float, gamma: float
) -> OptimalRoots:
    """Both roots of the optimum quadratic, principal square-root branch.

    z(+/-) = (2 delta/J - i (kappa+gamma)/(2J))
             +/- sqrt((delta/J - i gamma/(2J)) (2 delta/J - i (kappa+gamma)/(2J)) - 1)

    The '+' label uses the principal +sqrt, which makes eta_plus the larger
    modulus for positive delta_opt and the smaller one for negative.
    """
    _require_positive("j_opt", j_opt)
    _require_optimum_inputs(delta_opt, kappa, gamma)
    center = 2.0 * delta_opt / j_opt - 0.5j * (kappa + gamma) / j_opt
    radicand = (delta_opt / j_opt - 0.5j * gamma / j_opt) * center - 1.0
    root = cmath.sqrt(radicand)
    z_plus = center + root
    z_minus = center - root
    roots = OptimalRoots(
        eta_plus=abs(z_plus),
        phi_plus=wrap_phase(-cmath.phase(z_plus)),
        eta_minus=abs(z_minus),
        phi_minus=wrap_phase(-cmath.phase(z_minus)),
    )
    for f in fields(roots):  # finite inputs can still overflow
        _require_finite(f.name, getattr(roots, f.name))
    return roots


def quadratic_residual(
    z: complex, delta_opt: float, j_opt: float, kappa: float, gamma: float
) -> float:
    """|A2 z^2 + A1 z + A0| relative to |A0| + |A1| + |A2|."""
    a0, a1, a2 = optimal_coefficients(delta_opt, j_opt, kappa, gamma)
    scale = abs(a0) + abs(a1) + abs(a2)
    return abs(a2 * z * z + a1 * z + a0) / scale


def no_qubit_drive_optimum(kappa: float, gamma: float) -> tuple[float, float]:
    """Optimal (detuning, coupling) for interference blockade without a
    qubit drive: (0, sqrt(kappa (kappa + gamma)) / 2)."""
    _require_positive("kappa", kappa)
    _require_nonneg("gamma", gamma)
    j_opt = 0.5 * math.sqrt(kappa * (kappa + gamma))
    _require_finite("J_opt", j_opt)  # finite inputs can still overflow
    return 0.0, j_opt


def two_drive_settings(
    delta_opt: float,
    j_opt: float,
    kappa: float,
    gamma: float,
    eps: float,
    branch: str = "+",
) -> tuple[float, float]:
    """Qubit-drive amplitude and phase realizing the chosen optimum root."""
    eta, phi = optimal_drive_roots(delta_opt, j_opt, kappa, gamma).select(branch)
    return eta * eps, phi


@dataclass(frozen=True)
class PerturbativeAmplitudes:
    """Weak-drive stationary amplitudes of the lowest excitation states.

    Normalization fixes the joint ground-state amplitude to one. Fields name
    the phonon number and qubit state: ``c1g`` is one phonon with the qubit
    in the ground state, ``c0e`` zero phonons with the qubit excited, etc.
    """

    c0e: complex
    c1g: complex
    c1e: complex
    c2g: complex

    @property
    def g2_weak_drive(self) -> float:
        """Leading-order estimate 2 |c2g|^2 / |c1g|^4 of g2(0)."""
        denom = abs(self.c1g) ** 4
        if denom == 0.0:
            return math.inf
        return 2.0 * abs(self.c2g) ** 2 / denom


def perturbative_amplitudes(p: MqParams) -> PerturbativeAmplitudes:
    """Solve the weak-drive amplitude equations at zero temperature.

    Two 2x2 linear systems determine the single- and double-excitation
    amplitudes of the stationary wave function. Valid for drives well below
    the damping rates; the derivation assumes a zero-temperature bath.

    Raises
    ------
    ParameterError
        If ``n_th`` is nonzero.
    SingularSystemError
        At parameter degeneracies that make either system singular.
    """
    if p.n_th != 0.0:
        raise ParameterError("weak-drive amplitudes are defined for n_th = 0")
    e_phase = cmath.exp(-1j * p.phi)
    det = (p.delta - 0.5j * p.kappa) * (p.delta - 0.5j * p.gamma) - p.j**2
    if abs(det) < 1e-300:
        raise SingularSystemError("single-excitation system is singular")
    c0e = (p.eps * p.j - p.omega_drv * (p.delta - 0.5j * p.gamma) * e_phase) / det
    c1g = (p.j * p.omega_drv * e_phase - p.eps * (p.delta - 0.5j * p.kappa)) / det
    a = np.array(
        [
            [2.0 * p.delta - 0.5j * (p.kappa + p.gamma), math.sqrt(2.0) * p.j],
            [math.sqrt(2.0) * p.j, 2.0 * p.delta - 1j * p.gamma],
        ],
        dtype=complex,
    )
    rhs = np.array(
        [
            -(p.eps * c0e + p.omega_drv * e_phase * c1g),
            -math.sqrt(2.0) * p.eps * c1g,
        ],
        dtype=complex,
    )
    try:
        c1e, c2g = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"double-excitation system is singular: {exc}") from exc
    return PerturbativeAmplitudes(c0e=c0e, c1g=c1g, c1e=complex(c1e), c2g=complex(c2g))


def thermal_occupation(freq_hz: float, temp_k: float) -> float:
    """Bose-Einstein occupation of a mode of ordinary frequency ``freq_hz``.

    Uses exact SI values of hbar and the Boltzmann constant. Returns 0 at zero
    temperature; an occupation that overflows a float raises ParameterError.
    """
    if not 0 < freq_hz < math.inf:
        raise ParameterError(f"frequency must be positive and finite, got {freq_hz}")
    if not 0 <= temp_k < math.inf:
        raise ParameterError(f"temperature must be non-negative and finite, got {temp_k}")
    if temp_k == 0.0:
        return 0.0
    # h f / k T as (h / k) (f / T): the products HBAR f and K_B T underflow
    # at inputs where the ratio f / T is still exact
    x = (2.0 * math.pi * HBAR / K_B) * (freq_hz / temp_k)
    if x > 700.0:  # expm1 overflow guard; occupation is below 1e-300 here
        return 0.0
    n = 1.0 / math.expm1(x) if x > 0.0 else math.inf  # x underflows for hf << kT
    if n == math.inf:
        raise ParameterError(f"occupation at {freq_hz} Hz and {temp_k} K overflows a float")
    return n


class EffectiveMechParams(NamedTuple):
    """Mechanical damping and occupation after eliminating the cavity."""

    gamma_eff: float
    n_eff: float
    gamma_om: float
    n_om: float
    delta_omega: float


def effective_mech_params(
    g_om: complex, gamma_cav: float, omega_m: float, gamma: float, n_m_th: float
) -> EffectiveMechParams:
    """Cavity-induced damping, occupation, and frequency shift of the NAMR.

    In the resolved-sideband regime the readout cavity adds a damping channel
    gamma_om with effective occupation n_om; the mechanical mode then relaxes
    at gamma + gamma_om toward the rate-weighted mixture of bath occupations,
    with a small frequency pull delta_omega.
    """
    if gamma_cav <= 0 or omega_m <= 0:
        raise ParameterError("gamma_cav and omega_m must be positive")
    g2 = abs(g_om) ** 2
    denom = gamma_cav**2 + 16.0 * omega_m**2
    gamma_om = (4.0 * g2 / gamma_cav) * (16.0 * omega_m**2 / denom)
    n_om = gamma_cav**2 / (16.0 * omega_m**2)
    gamma_eff = gamma + gamma_om
    n_eff = (gamma * n_m_th + gamma_om * n_om) / gamma_eff
    delta_omega = 8.0 * g2 * omega_m / denom
    return EffectiveMechParams(gamma_eff, n_eff, gamma_om, n_om, delta_omega)

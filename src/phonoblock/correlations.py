"""Second-order correlation functions and occupations from steady states.

Equal-time statistics come straight from the steady state. Delayed
correlations use the quantum regression theorem: the conditional state after
one quantum subtraction, ``b rho_ss b' / n_b``, evolves under the same
generator as the state itself, and the delayed correlation is its occupation
renormalized by the stationary one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import UnpopulatedModeError
from .hilbert import DensityMatrix, Operator, expectation
from .solver import Liouvillian, evolve

OCCUPATION_FLOOR = 1e-12
IMAG_RESIDUAL_TOL = 1e-10


def mean_occupation(rho_ss: DensityMatrix, b: Operator) -> float:
    """Stationary occupation Tr(b'b rho) of the mode with lowering operator b."""
    value = expectation(rho_ss, b.dag() @ b)
    return float(value.real)


def g2_zero(rho_ss: DensityMatrix, b: Operator) -> float:
    """Equal-time normalized second-order correlation of the mode with
    lowering operator b.

    Returns Tr(b'b'bb rho) / Tr(b'b rho)^2; the value is 1 for a coherent
    fixed point, 2 for a thermal one, and below 1 under blockade.

    Raises
    ------
    UnpopulatedModeError
        If the mode occupation is at or below the division-guard floor.
    """
    n = expectation(rho_ss, b.dag() @ b)
    if n.real <= OCCUPATION_FLOOR:
        raise UnpopulatedModeError(
            f"mode occupation {n.real:.3e} too small to normalize g2"
        )
    num = expectation(rho_ss, b.dag() @ b.dag() @ b @ b)
    if abs(num.imag) > IMAG_RESIDUAL_TOL * max(1.0, abs(num.real)):
        raise UnpopulatedModeError(
            f"correlator has non-negligible imaginary part {num.imag:.3e}"
        )
    return max(float(num.real) / float(n.real) ** 2, 0.0)


def g2_tau(
    liou: Liouvillian,
    rho_ss: DensityMatrix,
    b: Operator,
    tau_grid: Sequence[float],
) -> list[tuple[float, float]]:
    """Delayed correlation g2(tau) on an ascending non-negative grid.

    The tau = 0 value reproduces :func:`g2_zero` by construction, and the
    curve relaxes to 1 on the lifetime of the mode. Normalization uses the
    stationary occupation throughout.
    """
    n_b = expectation(rho_ss, b.dag() @ b).real
    if n_b <= OCCUPATION_FLOOR:
        raise UnpopulatedModeError(
            f"mode occupation {n_b:.3e} too small to normalize g2"
        )
    conditional = (b.mat @ rho_ss.mat @ b.dag().mat) / n_b
    states = evolve(DensityMatrix(rho_ss.space, conditional), liou, tau_grid)
    nb_op = b.dag() @ b
    out = []
    for t, state in zip(tau_grid, states):
        value = expectation(state, nb_op).real / n_b
        out.append((float(t), max(float(value), 0.0)))
    return out

"""Reference generator and solves the test suite checks the package against.

Every command assembles a model point's generator from its space's cached
basis (``solver.assemble``). This module keeps the direct Kronecker-product
builder for arbitrary operators, column-major as in the package,

    L = -i (I kron H - H^T kron I)
        + sum_k rate_k (conj(o_k) kron o_k
                        - (I kron o_k'o_k + (o_k'o_k)^T kron I) / 2),

written with the same sparse float operations as the basis, so a model
point's generator from either path is equal bit for bit. Around it sit the
generator's action on a state, its trace-preservation residual, the trace
distance of two states, the Kronecker generator and steady state of a model
point, and a dense steady state with iterative refinement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from phonoblock.correlations import g2_zero, mean_occupation
from phonoblock.errors import SpaceMismatchError, StateValidityError
from phonoblock.hilbert import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    hermiticity_defect,
    lowering,
)
from phonoblock.model import DetectionParams, MqParams, build_h_mq, collapse_ops, model_space
from phonoblock.solver import HERMITIAN_INPUT_TOL, Liouvillian, steady_state, unvec, vec


def _dissipator(o: sp.csr_matrix, eye: sp.csr_matrix) -> sp.csr_matrix:
    """Superoperator of rho -> o rho o' - {o'o, rho} / 2."""
    odo = (o.conjugate().T @ o).tocsr()
    return (
        sp.kron(o.conjugate(), o, format="csr")
        - 0.5 * sp.kron(eye, odo, format="csr")
        - 0.5 * sp.kron(odo.T, eye, format="csr")
    )


def build_liouvillian(
    h: Operator, collapses: Sequence[tuple[float, Operator]]
) -> Liouvillian:
    """Generator of a Hamiltonian and (rate, operator) pairs, with an empty
    map of column orders of its own.

    Raises SpaceMismatchError for an operator on another space than the
    Hamiltonian, and StateValidityError for a non-Hermitian Hamiltonian.
    """
    defect = hermiticity_defect(h.mat)
    if defect > HERMITIAN_INPUT_TOL:
        raise StateValidityError(
            f"Hamiltonian Hermiticity defect {defect:.3e} exceeds {HERMITIAN_INPUT_TOL}"
        )
    space = h.space
    eye = sp.identity(space.total_dim, dtype=complex, format="csr")
    hs = sp.csr_matrix(h.mat)
    lio = -1j * (sp.kron(eye, hs, format="csr") - sp.kron(hs.T, eye, format="csr"))
    for rate, op in collapses:
        if op.space != space:
            raise SpaceMismatchError("collapse operator on a different space")
        lio = lio + rate * _dissipator(sp.csr_matrix(op.mat), eye)
    return Liouvillian(space, lio.tocsr(), {})


def apply(liou: Liouvillian, rho_mat: np.ndarray) -> np.ndarray:
    """Action of the generator on a state, returned in matrix form."""
    return unvec(liou.matrix @ vec(rho_mat), liou.dim)


def trace_preservation_residual(liou: Liouvillian) -> float:
    """Max-norm of vec(I)^T L; zero for a trace-preserving generator."""
    d = liou.dim
    tr = np.zeros(d * d, dtype=complex)
    tr[:: d + 1] = 1.0
    return float(np.max(np.abs(liou.matrix.T @ tr)))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference of two states."""
    if a.space != b.space:
        raise SpaceMismatchError("states on different spaces")
    diff = a.mat - b.mat
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


def model_liouvillian(params: MqParams | DetectionParams, space: HilbertSpace) -> Liouvillian:
    """Kronecker-built generator of the params' model on ``space``."""
    return build_liouvillian(build_h_mq(params, space), collapse_ops(params, space))


def model_steady_state(
    params: MqParams | DetectionParams,
    mech_cutoff: int | None = None,
    cavity_cutoff: int | None = None,
) -> tuple[HilbertSpace, Liouvillian, DensityMatrix]:
    """Space, Kronecker-built generator and its sparse-LU steady state of a
    model point; a cutoff left as None takes the model's default."""
    space = model_space(params, mech_cutoff, cavity_cutoff)
    liou = model_liouvillian(params, space)
    return space, liou, steady_state(liou)


def refined_dense_scalars(params: MqParams | DetectionParams, mech_cutoff: int | None,
                          cavity_cutoff: int | None) -> dict[str, float]:
    """g2_zero, n_b and, with a cavity, g2a_zero of the Kronecker-built
    generator's steady state, by dense LU with three steps of iterative
    refinement on a long-double residual."""
    space = model_space(params, mech_cutoff, cavity_cutoff)
    d = space.total_dim
    a = model_liouvillian(params, space).matrix.toarray()
    a[0, :] = 0.0
    a[0, :: d + 1] = 1.0
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    lu = scipy.linalg.lu_factor(a)
    x = scipy.linalg.lu_solve(lu, b)
    a_long = a.astype(np.clongdouble)
    for _ in range(3):
        residual = b - a_long @ x.astype(np.clongdouble)
        x = x + scipy.linalg.lu_solve(lu, residual.astype(complex))
    rho = unvec(x, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = DensityMatrix(space, rho / np.trace(rho).real)
    b = lowering(space, "m")
    scalars = {"g2_zero": g2_zero(rho, b), "n_b": mean_occupation(rho, b)}
    if cavity_cutoff is not None:
        scalars["g2a_zero"] = g2_zero(rho, lowering(space, "a"))
    return scalars

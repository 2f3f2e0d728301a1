"""Liouvillian construction, steady states, and time evolution.

The master equation is vectorized column-major: stacking the columns of rho
turns ``A rho B`` into ``(B^T kron A) vec(rho)``, so the generator becomes

    L = -i (I kron H - H^T kron I)
        + sum_k rate_k (conj(o_k) kron o_k
                        - (I kron o_k'o_k + (o_k'o_k)^T kron I) / 2)

stored sparse, since its dimension is the squared Hilbert dimension. The
column-major convention is fixed package-wide and pinned by a vectorization
oracle in the test suite.

L is linear in the real term coefficients of the model (see the term table
in :mod:`phonoblock.model`): with H = sum_k c_k G_k, every G_k and every jump
operator gives one fixed superoperator. :func:`liouvillian_basis` builds
them once per Hilbert space on one shared CSR pattern, so :func:`assemble`
makes each point's L with one sparse product, ``basis @ coeffs``, equal bit
for bit to the direct Kronecker builder :func:`build_liouvillian`. That
builder takes arbitrary operators and is the reference the basis is tested
against.

The steady state is the one-dimensional kernel of L, found by replacing one
row of L with the vectorized trace functional (spliced into the CSR arrays)
and solving the resulting nonsingular system with a direct sparse LU
factorization. Time evolution applies the exact action of the matrix
exponential (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011) through
``scipy.sparse.linalg.expm_multiply``.

Everything a space needs across points lives in its cached
:class:`LiouvillianBasis`: the term superoperators, the read-only lowering
operators the observables use, and SuperLU's COLAMD column order for each
sparsity pattern of the trace-row system. The order depends only on the
pattern, which is keyed exactly, since a zero rate or drive drops entries on
the same space. A pattern's first system is factored with COLAMD; a later
one is factored as the symmetric permutation P^T A P with
``permc_spec="NATURAL"``, each column's entries kept in A's own storage
order. SuperLU then meets the same entries in the same order and breaks
pivot ties towards the same diagonal entry, so factors and solution are bit
for bit those of a fresh COLAMD factorization. Permuting only the columns
would not do: SuperLU prefers the diagonal of the matrix it is given, and on
tied pivots that moves the solution. An evicted basis takes its operators
and orders with it, so ``liouvillian_basis.cache_clear()`` resets all
per-space state.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, norm as sparse_norm, splu

from .errors import (
    EvolutionError,
    SpaceMismatchError,
    StateValidityError,
    SteadyStateError,
)
from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    check_state,
    hermiticity_defect,
    lowering,
)
from .model import DetectionParams, MqParams, term_coefficients, term_generators

log = logging.getLogger(__name__)

HERMITIAN_INPUT_TOL = 1e-10
STEADY_RESIDUAL_RTOL = 1e-9
TRACE_DRIFT_TOL = 1e-8
# Largest ||L||_1 * h of one propagation sub-step. expm_multiply switches to
# scipy's randomized 1-norm estimator once the trace-shifted norm of h L
# exceeds about 63; the shift at most doubles the norm, so sub-steps of 10
# keep the exact-norm path: bit-reproducible and the global RNG untouched.
EXPM_NORM_STEP = 10.0
# Work budget: the most sub-steps one evolve call may take.
MAX_SUBSTEPS = 100_000
# Spaces whose Liouvillian basis, with its lowering operators and column
# orders, stays cached: a sweep uses two (its cutoff and the cutoff + 2
# re-solve), a three-mode detect three.
BASIS_CACHE_SIZE = 4


# trace-row sparsity pattern (indptr, indices bytes) -> its column order
_Orders = dict[tuple[bytes, bytes], "ColumnOrder"]


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Sparse master-equation generator on the vectorized state space.

    ``orders`` holds the column orders :func:`steady_state` finds: those of
    the generator's basis when assembled from one, else a map of its own.
    """

    space: HilbertSpace
    matrix: sp.csr_matrix
    orders: _Orders = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.space.total_dim

    def __repr__(self) -> str:
        return f"Liouvillian({self.space!r}, nnz={self.matrix.nnz})"


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-major vectorization."""
    return np.asarray(mat, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def _dissipator(o: sp.csr_matrix, eye: sp.csr_matrix) -> sp.csr_matrix:
    """Superoperator of rho -> o rho o' - {o'o, rho} / 2."""
    odo = (o.conjugate().T @ o).tocsr()
    return (
        sp.kron(o.conjugate(), o, format="csr")
        - 0.5 * sp.kron(eye, odo, format="csr")
        - 0.5 * sp.kron(odo.T, eye, format="csr")
    )


def _require_hermitian(h: Operator) -> None:
    defect = hermiticity_defect(h.mat)
    if defect > HERMITIAN_INPUT_TOL:
        raise StateValidityError(
            f"Hamiltonian Hermiticity defect {defect:.3e} exceeds {HERMITIAN_INPUT_TOL}"
        )


def build_liouvillian(
    h: Operator, collapses: Sequence[tuple[float, Operator]]
) -> Liouvillian:
    """Assemble the generator from a Hamiltonian and (rate, operator) pairs.

    This is the direct Kronecker-product builder for any operators; model
    points go through :func:`assemble`, which reproduces it bit for bit.

    Raises
    ------
    SpaceMismatchError
        If any operator lives on a different space than the Hamiltonian.
    StateValidityError
        If the Hamiltonian is not Hermitian within tolerance.
    """
    _require_hermitian(h)
    space = h.space
    eye = sp.identity(space.total_dim, dtype=complex, format="csr")
    hs = sp.csr_matrix(h.mat)
    lio = -1j * (sp.kron(eye, hs, format="csr") - sp.kron(hs.T, eye, format="csr"))
    for rate, op in collapses:
        if op.space != space:
            raise SpaceMismatchError("collapse operator on a different space")
        lio = lio + rate * _dissipator(sp.csr_matrix(op.mat), eye)
    return Liouvillian(space, lio.tocsr())


@dataclass(frozen=True, eq=False)
class LiouvillianBasis:
    """Every term's superoperator of one space on one shared CSR pattern.

    ``stack`` has one row per stored entry of the pattern and one column per
    superoperator: the two halves ``-i (I kron G)`` and ``+i (G^T kron I)`` of
    each Hamiltonian generator's commutator, then each jump operator's
    dissipator. Kept apart, the halves make every diagonal entry round as
    ``c G_ket - c G_bra``, the way the Kronecker builder rounds it, so
    ``stack @ coeffs`` is bit for bit the data of that builder's L. The
    pattern arrays are read-only: every point assembles on copies of them.
    ``lowering_ops`` holds each factor's read-only lowering operator by
    label, and ``orders`` the column order of each trace-row pattern solved
    so far.
    """

    space: HilbertSpace
    indptr: np.ndarray
    indices: np.ndarray
    stack: sp.csr_matrix
    lowering_ops: Mapping[str, Operator]
    orders: _Orders = field(default_factory=dict)

    @classmethod
    def from_generators(
        cls, space: HilbertSpace, hamiltonian: Sequence[Operator], jumps: Sequence[Operator]
    ) -> "LiouvillianBasis":
        """Build the basis; a non-Hermitian Hamiltonian generator raises
        StateValidityError, so real coefficients always give a Hermitian H."""
        eye = sp.identity(space.total_dim, dtype=complex, format="csr")
        terms = []
        for g in hamiltonian:
            _require_hermitian(g)
            gs = sp.csr_matrix(g.mat)
            terms += [-1j * sp.kron(eye, gs, format="csr"), 1j * sp.kron(gs.T, eye, format="csr")]
        terms += [_dissipator(sp.csr_matrix(o.mat), eye) for o in jumps]
        n = space.total_dim ** 2
        coo = [t.tocoo() for t in terms]
        keys, entry = np.unique(
            np.concatenate([c.row.astype(np.int64) * n + c.col for c in coo]),
            return_inverse=True,
        )
        column = np.repeat(np.arange(len(coo)), [c.nnz for c in coo])
        values = np.concatenate([c.data for c in coo])
        stack = sp.csr_matrix((values, (entry, column)), shape=(len(keys), len(coo)))
        # keys are sorted row-major, so the pattern's CSR order is theirs
        pattern = sp.csr_matrix((np.ones(len(keys)), (keys // n, keys % n)), shape=(n, n))
        ops = {label: lowering(space, label) for label in space.labels}
        for arr in (pattern.indptr, pattern.indices, stack.data, stack.indices, stack.indptr,
                    *(op.mat for op in ops.values())):
            arr.flags.writeable = False
        return cls(space, pattern.indptr, pattern.indices, stack, ops)

    def assemble(self, h_coeffs: Sequence[float], rates: Sequence[float]) -> Liouvillian:
        """L for real Hamiltonian coefficients and channel rates, in the order
        of the generators. Entries that come out exactly zero are dropped, as
        the Kronecker builder drops them."""
        n = self.space.total_dim ** 2
        coeffs = np.concatenate((np.repeat(np.asarray(h_coeffs, dtype=float), 2),
                                 np.asarray(rates, dtype=float)))
        data = self.stack @ coeffs
        mat = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))
        mat.eliminate_zeros()
        return Liouvillian(self.space, mat, self.orders)


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def liouvillian_basis(space: HilbertSpace) -> LiouvillianBasis:
    """The cached basis of the model whose factor labels ``space`` carries."""
    return LiouvillianBasis.from_generators(space, *term_generators(space))


def assemble(p: MqParams | DetectionParams, space: HilbertSpace) -> Liouvillian:
    """Generator of the params' model on ``space``: one product of the space's
    cached basis with the params' term coefficients."""
    return liouvillian_basis(space).assemble(*term_coefficients(p, space))


def apply(liou: Liouvillian, rho_mat: np.ndarray) -> np.ndarray:
    """Action of the generator on a state, returned in matrix form."""
    return unvec(liou.matrix @ vec(rho_mat), liou.dim)


def trace_preservation_residual(liou: Liouvillian) -> float:
    """Max-norm of vec(I)^T L; zero for a trace-preserving generator."""
    d = liou.dim
    tr = np.zeros(d * d, dtype=complex)
    tr[:: d + 1] = 1.0
    return float(np.max(np.abs(liou.matrix.T @ tr)))


def max_abs_entry(liou: Liouvillian) -> float:
    data = liou.matrix.data
    return float(np.max(np.abs(data))) if data.size else 0.0


def _with_trace_row(
    m: sp.csr_matrix, d: int, weight: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (data, indices, indptr) of ``m`` with row 0 replaced by
    ``weight * vec(I)^T``, spliced on the CSR arrays; ``m`` itself is left
    untouched."""
    start = m.indptr[1]
    indptr = np.concatenate(([0], m.indptr[1:] - start + d)).astype(m.indptr.dtype)
    indices = np.concatenate(
        (np.arange(0, d * d, d + 1, dtype=m.indices.dtype), m.indices[start:])
    )
    data = np.concatenate((np.full(d, weight, dtype=m.dtype), m.data[start:]))
    return data, indices, indptr


@dataclass(frozen=True, eq=False)
class ColumnOrder:
    """SuperLU's column order for one sparsity pattern, and the layout that
    factors a matrix of that pattern in it.

    ``perm[i]`` is the position of row and column i in the symmetrically
    permuted matrix P^T A P. ``gather``, ``indices`` and ``indptr`` are its
    CSC arrays: ``data[gather]`` for the CSR data of A. Within each column the
    entries keep the order of A's own CSC arrays. All arrays are owned and
    read-only.
    """

    perm: np.ndarray
    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def of_pattern(
        cls, indices: np.ndarray, indptr: np.ndarray, perm: np.ndarray
    ) -> "ColumnOrder":
        """Layout of the CSR pattern (indices, indptr) under ``perm``, the
        ``perm_c`` of a SuperLU factorization of that pattern."""
        n = len(indptr) - 1
        perm = np.asarray(perm)
        # columns relabelled, rows in A's labels: tocsc keeps them ascending,
        # as in A's CSC arrays; the entry numbers become the gather
        slots = sp.csr_matrix(
            (np.arange(len(indices)), perm[indices], indptr), shape=(n, n)
        ).tocsc()
        # owned copies: SuperLU's perm_c is a view that keeps the whole
        # factorization alive
        arrays = [
            np.array(a, dtype=np.intc)
            for a in (perm, slots.data, perm[slots.indices], slots.indptr)
        ]
        for arr in arrays:
            arr.flags.writeable = False
        return cls(*arrays)

    def solve(self, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for the CSR data of A, factored in this order."""
        n = len(self.perm)
        mat = sp.csc_matrix((data[self.gather], self.indices, self.indptr), shape=(n, n))
        # The entries are not sorted within a column, and must not be: their
        # order breaks SuperLU's pivot ties. splu sorts unless told otherwise;
        # the pattern has no duplicates, so the canonical flag is safe to set.
        mat.has_canonical_format = True
        b = np.empty_like(rhs)
        b[self.perm] = rhs
        return splu(mat, permc_spec="NATURAL").solve(b)[self.perm]


def steady_state(liou: Liouvillian) -> DensityMatrix:
    """Unique trace-one fixed point of the generator.

    One row of L is replaced by the trace functional (scaled to the mean
    magnitude of L's entries to keep the system well conditioned) and the
    resulting nonsingular system is solved by sparse LU. A sparsity pattern
    new to ``liou.orders`` is factored with COLAMD, its column order kept
    there and logged at debug level; a known one is factored in that order. The result is Hermitized,
    normalized to unit trace, and validated.

    Raises
    ------
    SteadyStateError
        If the factorization fails or the residual ||L vec(rho)||_max
        exceeds tolerance (degenerate dark states, zero damping).
    StateValidityError
        If the solution violates density-matrix tolerances.
    """
    d = liou.dim
    n = d * d
    scale = max_abs_entry(liou)
    if scale == 0.0:
        raise SteadyStateError("generator is identically zero; no unique fixed point")
    weight = float(np.mean(np.abs(liou.matrix.data)))
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = weight
    data, indices, indptr = _with_trace_row(liou.matrix, d, weight)
    key = (indptr.tobytes(), indices.tobytes())
    try:
        if key in liou.orders:
            x = liou.orders[key].solve(data, rhs)
        else:
            lu = splu(sp.csr_matrix((data, indices, indptr), shape=(n, n)).tocsc())
            x = lu.solve(rhs)
            liou.orders[key] = ColumnOrder.of_pattern(indices, indptr, lu.perm_c)
            log.debug("new column order: %d stored entries on %r", len(indices), liou.space)
    except RuntimeError as exc:  # SuperLU reports singularity this way
        raise SteadyStateError(f"sparse LU factorization failed: {exc}") from exc
    rho = unvec(x, d)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if tr == 0.0 or not np.isfinite(tr):
        raise SteadyStateError(f"steady-state trace is degenerate: {tr}")
    rho = rho / tr
    residual = float(np.max(np.abs(liou.matrix @ vec(rho))))
    if residual > STEADY_RESIDUAL_RTOL * scale:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds "
            f"{STEADY_RESIDUAL_RTOL:.0e} * ||L||_max = {STEADY_RESIDUAL_RTOL * scale:.3e}"
        )
    state = DensityMatrix(liou.space, rho)
    check_state(state)
    return state


def steady_state_residual(liou: Liouvillian, state: DensityMatrix) -> float:
    return float(np.max(np.abs(liou.matrix @ vec(state.mat))))


def evolve(
    rho0: DensityMatrix, liou: Liouvillian, t_grid: Sequence[float]
) -> list[DensityMatrix]:
    """Propagate a state and return it at each requested time.

    Propagation starts at t = 0 from ``rho0``. Each output interval is split
    into equal sub-steps with ``||L||_1 h <= EXPM_NORM_STEP``, and each
    sub-step applies ``exp(h L)`` exactly with ``expm_multiply``. Identical
    inputs give bit-identical states. Trace conservation is monitored at
    every output time.

    Raises
    ------
    EvolutionError
        On a grid that is not finite, non-negative and strictly ascending, a
        generator so stiff that the grid needs more than ``MAX_SUBSTEPS``
        sub-steps, NaN contamination, or trace drift beyond tolerance.
    """
    if rho0.space != liou.space:
        raise SpaceMismatchError("initial state and Liouvillian on different spaces")
    times = [float(t) for t in t_grid]
    if not times:
        return []
    if not all(0.0 <= t < np.inf for t in times):
        raise EvolutionError("t_grid times must be finite and >= 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise EvolutionError("t_grid must be strictly ascending")

    norm = float(sparse_norm(liou.matrix, 1))
    if not np.isfinite(norm):
        raise EvolutionError("NaN/Inf entries in the generator")
    intervals = np.diff([0.0, *times])
    substeps = [int(np.ceil(norm * dt / EXPM_NORM_STEP)) for dt in intervals]
    if sum(substeps) > MAX_SUBSTEPS:
        raise EvolutionError(
            f"generator too stiff: ||L||_1 = {norm:.3e} needs {sum(substeps)} "
            f"sub-steps over t = {times[-1]}, above the budget of {MAX_SUBSTEPS}"
        )

    d = liou.dim
    y = vec(rho0.mat)
    trace0 = np.trace(rho0.mat)
    out: list[DensityMatrix] = []
    for t, dt, n_sub in zip(times, intervals, substeps):
        if n_sub:
            step = (dt / n_sub) * liou.matrix
            for _ in range(n_sub):
                y = expm_multiply(step, y)
        snapshot = unvec(y, d)
        if not np.all(np.isfinite(snapshot)):
            raise EvolutionError(f"NaN/Inf encountered at t = {t} during propagation")
        drift = abs(np.trace(snapshot) - trace0)
        if drift > TRACE_DRIFT_TOL * max(1.0, abs(trace0)):
            raise EvolutionError(f"trace drift {drift:.3e} at t = {t} exceeds tolerance")
        out.append(DensityMatrix(liou.space, snapshot))
    return out


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference of two states."""
    if a.space != b.space:
        raise SpaceMismatchError("states on different spaces")
    diff = a.mat - b.mat
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))

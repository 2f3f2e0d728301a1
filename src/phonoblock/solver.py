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
for bit to the formula above built from Kronecker products. That direct
builder, for arbitrary operators, is the reference the basis is tested
against; it lives in the test suite, in ``tests/oracle.py``.

The steady state is the one-dimensional kernel of L, found by replacing one
row of L with the vectorized trace functional (spliced into the CSR arrays)
and solving the resulting nonsingular system. Time evolution applies the
exact action of the matrix exponential (Al-Mohy and Higham, SIAM J. Sci.
Comput. 33, 2011) through ``scipy.sparse.linalg.expm_multiply``.

Which solver a system takes depends on the model. The three-mode model (a
space with the cavity factor ``a``) is solved by GMRES (Saad and Schultz,
SIAM J. Sci. Stat. Comput. 7, 856 (1986)), right-preconditioned with the
exact inverse of the generator's no-jump part rho -> K rho + rho K', where
K = -i H - sum_k rate_k o_k'o_k / 2, from one d x d eigendecomposition of K
(d = 56 against n = d^2 = 3136 at the default cutoffs), then one correction
step that solves for the residual. On 2 cores a point takes 9-27 ms (7 to 12
iterations over the fig11 presets, and up to 9 more in the correction), and
g2, g2a and n_b lie within 1.3e-15 relative of a refined dense solve at four
fig11 points; without the correction GMRES missed by up to 1.9e-10. GMRES
keeps no state between points.

Every other space, the two-mode model's and arbitrary operators', is solved
by sparse LU. GMRES with the same preconditioner does not hold there: at
cutoff 18 it stopped at a relative residual of 1.4-3.5e-12 against its
1e-12 target after 134-172 iterations (fig6b and fig6d, eps >= 0.79),
fig8a's sweep took 10.6-13.9 s against the LU's 7.7-11.3 s, and at fig4b's
worst point (gamma = 4.12, j = 1.13) it landed 1.3e-11 from a refined dense
solve, against the LU's 3.4e-13.

Everything a space needs across points lives in its cached
:class:`LiouvillianBasis`: the term superoperators, the read-only lowering
operators the observables use, and a :class:`ColumnOrder` for each sparsity
pattern of an LU-solved trace-row system, keyed exactly, since a zero rate
or drive drops entries on the same space. A new pattern's order comes from
one factorization in the minimum-degree order of A^T + A
(``permc_spec="MMD_AT_PLUS_A"``) in SuperLU's symmetric mode, which takes the
diagonal pivot unless it is below ``DiagPivotThresh`` = 0.01 of its
column's largest entry. Every system, the pattern's first included, is then
factored and solved as the symmetric permutation P^T A P in that order, so
a table depends neither on the cache's state nor on the order of its
points. On the preset points checked every pivot was the diagonal one, and
g2 comes out within about 1e-12 relative of a refined dense solve. An
evicted basis takes its operators and orders with it, so
``liouvillian_basis.cache_clear()`` resets all per-space state.

Every steady-state solve runs with each OpenBLAS it calls set to one thread
(:class:`_OneBlasThread`): the one SuperLU links to, whose LAPACK GMRES
calls too, and numpy's own, which the preconditioner's dense products use.
numpy and scipy each ship an OpenBLAS that starts one thread per core, and
on few cores their spinning workers take CPU from each other. The blocked
kernels also split their sums by thread count, so for a given BLAS build a
steady state does not depend on the host's thread count.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import (
    LinearOperator,
    expm_multiply,
    gmres,
    norm as sparse_norm,
    splu,
)

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
# orders, stays cached: a sweep uses one, its cutoff, when every row's Fock
# tail skips the re-solve and two with the cutoff + 2 re-solve; a three-mode
# detect uses two (the readout space and the two-mode reference at mech
# cutoff + 2).
BASIS_CACHE_SIZE = 4
# SuperLU options of every steady-state factorization: prefer the diagonal
# pivot unless it is below 1% of its column's largest entry, which keeps the
# symmetric fill-reducing order intact.
_PIVOTING = {"SymmetricMode": True, "DiagPivotThresh": 0.01}
# GMRES of a three-mode steady state: restart length, restarts allowed per
# call, and the relative residual of the solve and of its correction step.
KRYLOV_RESTART = 100
KRYLOV_MAX_RESTARTS = 5
KRYLOV_RTOL = 1e-12
CORRECTION_RTOL = 1e-6
# Smallest |lambda_i + conj(lambda_j)| the preconditioner divides by, relative
# to the largest: a dark state of K (an undriven ground state) has lambda = 0.
SYLVESTER_FLOOR = 1e-12


# trace-row sparsity pattern (indptr, indices bytes) -> its column order
_Orders = dict[tuple[bytes, bytes], "ColumnOrder"]


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Sparse master-equation generator on the vectorized state space.

    ``orders`` holds the column orders :func:`steady_state` finds: those of
    the basis the generator was assembled from.
    """

    space: HilbertSpace
    matrix: sp.csr_matrix
    orders: _Orders

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
    def of_system(
        cls, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray
    ) -> "ColumnOrder":
        """Order and layout of the CSR matrix (data, indices, indptr): one
        factorization in the minimum-degree order of A^T + A supplies the
        order, its ``perm_c``."""
        n = len(indptr) - 1
        mat = sp.csr_matrix((data, indices, indptr), shape=(n, n)).tocsc()
        perm = np.asarray(splu(mat, permc_spec="MMD_AT_PLUS_A", options=_PIVOTING).perm_c)
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
        return splu(mat, permc_spec="NATURAL", options=_PIVOTING).solve(b)[self.perm]


# (get, set) names of OpenBLAS's thread-count calls: the scipy and numpy
# wheels' builds (numpy's ILP64 one adds the 64_ suffix), then a system OpenBLAS
_OPENBLAS_THREAD_CALLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("", "64_")
)


def _openblas_thread_calls(owner: str, path: str) -> tuple | None:
    """The (get, set) thread-count calls of the OpenBLAS that the extension
    at ``path`` links to, or None for a BLAS without them (MKL, Accelerate):
    dlsym on the extension searches its dependencies, so it finds exactly
    the BLAS that extension calls."""
    import ctypes

    lib = ctypes.CDLL(path)
    for names in _OPENBLAS_THREAD_CALLS:
        try:
            get, set_ = (lib[name] for name in names)
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        log.debug("%s runs on one BLAS thread, set through %s", owner, names[1])
        return get, set_
    log.debug("no OpenBLAS thread calls in %s's BLAS; it keeps its default threads", owner)
    return None


@functools.cache
def _blas_pools() -> tuple[tuple, ...]:
    """(get, set) thread calls of each OpenBLAS a steady-state solve runs on,
    resolved once, at the first solve: the one SuperLU links to, whose LAPACK
    (``lartg``, ``trsv``) GMRES calls too, and numpy's own, which the
    preconditioner's dense products run on."""
    from scipy.sparse.linalg._dsolve import _superlu

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath

    pools = (_openblas_thread_calls("SuperLU", _superlu.__file__),
             _openblas_thread_calls("numpy", _multiarray_umath.__file__))
    return tuple(calls for calls in pools if calls is not None)


class _OneBlasThread:
    """Scope in which the OpenBLAS pools of a steady-state solve, SuperLU's
    and numpy's, run on one thread each.

    The caller's counts come back on exit, also when the solve raises, so a
    caller's own BLAS keeps its threads outside the scope. The package
    starts no threads, so the scope is neither re-entrant nor safe against
    another thread setting a count meanwhile.
    """

    def __enter__(self) -> None:
        self._restore = []
        for get, set_ in _blas_pools():
            self._restore.append((set_, get()))
            set_(1)

    def __exit__(self, *exc) -> None:
        # in reverse, in case both pools are one library
        for set_, before in reversed(self._restore):
            set_(before)


def _no_jump_inverse(matrix: sp.csr_matrix, d: int):
    """Exact inverse of Y -> K Y + Y K', on column-major vectors, where K =
    -i H - sum_k rate_k o_k'o_k / 2 is the generator's no-jump part.

    K is read from L itself: the top-left d x d block of L is K +
    conj(K_00) I when no jump operator has a (0, 0) entry, and the
    imaginary part of that shift cancels in K Y + Y K'. With K = V diag(l)
    V^-1, the inverse is Y -> V [(V^-1 Y V^-') / (l_i + conj(l_j))] V'.

    An eigenvector of K with Re l = 0 is annihilated by every jump operator
    and is an eigenvector of H, so its projector is a fixed point of L. One
    such dark state (an undriven ground state) is floored; two or more raise
    SteadyStateError, since the fixed point is then not unique.
    """
    block = matrix[:d, :d].toarray()
    k = block - 0.5 * block[0, 0] * np.eye(d)
    try:
        lam, v = np.linalg.eig(k)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError(f"no eigenbasis for the preconditioner: {exc}") from exc
    denom = lam[:, None] + lam.conj()[None, :]
    floor = SYLVESTER_FLOOR * float(np.max(np.abs(denom)))
    dark = int(np.count_nonzero(np.abs(np.diagonal(denom)) < floor))
    if dark > 1:
        raise SteadyStateError(f"{dark} dark states of the no-jump part; no unique fixed point")
    denom[np.abs(denom) < floor] = -floor
    v_h, v_inv_h = v.conj().T, v_inv.conj().T

    def apply(y: np.ndarray) -> np.ndarray:
        sylvester = (v_inv @ y.reshape(d, d).T @ v_inv_h) / denom
        return (v @ sylvester @ v_h).reshape(-1, order="F")

    return apply


def _krylov_solve(a: sp.csr_matrix, rhs: np.ndarray, precondition) -> tuple[np.ndarray, list[int]]:
    """x with A x = rhs by GMRES, right-preconditioned: GMRES solves
    (A M^-1) z = rhs and x = M^-1 z; then one correction step solves for
    the residual and adds its M^-1 dz. Returns x and each call's iterations."""
    n = a.shape[0]
    preconditioned = LinearOperator((n, n), matvec=lambda z: a @ precondition(z), dtype=complex)
    iterations: list[int] = []

    def solve(b: np.ndarray, rtol: float) -> np.ndarray:
        steps: list[float] = []  # one residual estimate per iteration
        z, info = gmres(preconditioned, b, rtol=rtol, atol=0.0, restart=KRYLOV_RESTART,
                        maxiter=KRYLOV_MAX_RESTARTS, callback=steps.append,
                        callback_type="pr_norm")
        if info:
            residual = np.linalg.norm(b - preconditioned @ z) / np.linalg.norm(b)
            raise SteadyStateError(
                f"GMRES did not converge in {len(steps)} iterations: relative residual "
                f"{residual:.3e} against {rtol:.0e}"
            )
        iterations.append(len(steps))
        return precondition(z)

    x = solve(rhs, KRYLOV_RTOL)
    x += solve(rhs - a @ x, CORRECTION_RTOL)
    return x, iterations


def steady_state(liou: Liouvillian) -> DensityMatrix:
    """Unique trace-one fixed point of the generator.

    One row of L is replaced by the trace functional (scaled to the mean
    magnitude of L's entries to keep the system well conditioned). On a
    space with the cavity factor ``a`` the resulting nonsingular system is
    solved by GMRES, right-preconditioned with the inverse of L's no-jump
    part, and one correction step; the iterations and the residual are
    logged at debug level. On every other space it is solved by sparse LU
    in its pattern's column order from ``liou.orders``; a pattern new there
    gets its order first, logged at debug level. Either solver runs with
    its OpenBLAS pools on one thread. The result is Hermitized, normalized
    to unit trace, and validated.

    Raises
    ------
    SteadyStateError
        If the factorization fails, GMRES exhausts ``KRYLOV_MAX_RESTARTS``
        restarts, K has no eigenbasis or more than one dark state, or the
        residual ||L vec(rho)||_max exceeds tolerance (degenerate dark
        states, zero damping).
    StateValidityError
        If the solution violates density-matrix tolerances.
    """
    d = liou.dim
    n = d * d
    magnitudes = np.abs(liou.matrix.data)
    scale = float(np.max(magnitudes)) if magnitudes.size else 0.0
    if scale == 0.0:
        raise SteadyStateError("generator is identically zero; no unique fixed point")
    weight = float(np.mean(magnitudes))
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = weight
    data, indices, indptr = _with_trace_row(liou.matrix, d, weight)
    krylov = "a" in liou.space.labels
    with _OneBlasThread():
        if krylov:
            a = sp.csr_matrix((data, indices, indptr), shape=(n, n))
            x, iterations = _krylov_solve(a, rhs, _no_jump_inverse(liou.matrix, d))
        else:
            key = (indptr.tobytes(), indices.tobytes())
            try:
                if key not in liou.orders:
                    liou.orders[key] = ColumnOrder.of_system(data, indices, indptr)
                    log.debug("new column order: %d stored entries on %r", len(indices), liou.space)
                x = liou.orders[key].solve(data, rhs)
            except RuntimeError as exc:  # SuperLU reports singularity this way
                raise SteadyStateError(f"sparse LU factorization failed: {exc}") from exc
    rho = unvec(x, d)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if tr == 0.0 or not np.isfinite(tr):
        raise SteadyStateError(f"steady-state trace is degenerate: {tr}")
    rho = rho / tr
    residual = float(np.max(np.abs(liou.matrix @ vec(rho))))
    gate = STEADY_RESIDUAL_RTOL * scale
    if krylov:
        log.debug("GMRES: %d + %d iterations, residual %.2e of the gate on %r",
                  *iterations, residual / gate, liou.space)
    if residual > gate:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds "
            f"{STEADY_RESIDUAL_RTOL:.0e} * ||L||_max = {gate:.3e}"
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

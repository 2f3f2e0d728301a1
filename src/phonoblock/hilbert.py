"""Composite Hilbert spaces built from truncated boson and two-level factors.

A :class:`HilbertSpace` is an ordered list of factors; operators on single
factors are embedded into the composite space by Kronecker products taken in
declaration order, so matrix layouts are reproducible bit-for-bit across runs.
Operators are stored as dense complex matrices (composite dimensions stay
small at desk scale); only the Liouvillian in :mod:`phonoblock.solver` goes
sparse, since it scales with the squared dimension.

All objects are immutable after construction and safe to share between
threads; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ParameterError, SpaceMismatchError, StateValidityError

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = -1e-8


@dataclass(frozen=True)
class Factor:
    """One subsystem: a truncated boson mode or a two-level system.

    A boson factor with cutoff N spans Fock states |0> .. |N> (dim N+1).
    A qubit factor has basis ordering |g>, |e> (dim 2).
    """

    label: str
    kind: str  # "boson" or "qubit"
    dim: int


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tuple of factors defining a composite space."""

    factors: tuple[Factor, ...]

    @property
    def total_dim(self) -> int:
        d = 1
        for f in self.factors:
            d *= f.dim
        return d

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.factors)

    def factor(self, label: str) -> Factor:
        return self.factors[self.factor_index(label)]

    def factor_index(self, label: str) -> int:
        for i, f in enumerate(self.factors):
            if f.label == label:
                return i
        raise ParameterError(f"no factor labelled {label!r} in space {self.labels}")

    def __repr__(self) -> str:
        parts = ", ".join(f"{f.label}:{f.kind}({f.dim})" for f in self.factors)
        return f"HilbertSpace[{parts}]"


def make_space(factor_specs: Iterable[tuple[str, int | str]]) -> HilbertSpace:
    """Build a composite space from ``(label, spec)`` pairs.

    ``spec`` is either an integer boson cutoff N (dim N+1, states |0>..|N>)
    or the string ``"qubit"`` (dim 2, ordering |g>, |e>).

    Raises
    ------
    ParameterError
        On duplicate labels, boson cutoff below 2, or an unknown kind.
    """
    factors: list[Factor] = []
    seen: set[str] = set()
    for label, spec in factor_specs:
        if label in seen:
            raise ParameterError(f"duplicate factor label {label!r}")
        seen.add(label)
        if spec == "qubit":
            factors.append(Factor(label, "qubit", 2))
        elif isinstance(spec, int) and not isinstance(spec, bool):
            if spec < 2:
                raise ParameterError(
                    f"boson cutoff for {label!r} must be >= 2, got {spec}"
                )
            factors.append(Factor(label, "boson", spec + 1))
        else:
            raise ParameterError(
                f"factor spec for {label!r} must be an int cutoff or 'qubit', got {spec!r}"
            )
    if not factors:
        raise ParameterError("a space needs at least one factor")
    return HilbertSpace(tuple(factors))


@dataclass(frozen=True, eq=False)
class Operator:
    """Complex square matrix tied to a :class:`HilbertSpace`."""

    space: HilbertSpace
    mat: np.ndarray

    def dag(self) -> "Operator":
        return Operator(self.space, self.mat.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        _require_same_space(self.space, other.space)
        return Operator(self.space, self.mat @ other.mat)

    def __add__(self, other: "Operator") -> "Operator":
        _require_same_space(self.space, other.space)
        return Operator(self.space, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        _require_same_space(self.space, other.space)
        return Operator(self.space, self.mat - other.mat)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.mat * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.mat)

    def __repr__(self) -> str:
        return f"Operator({self.space!r}, {self.mat.shape[0]}x{self.mat.shape[1]})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """System state on a :class:`HilbertSpace`.

    Validity (trace one, Hermitian, positive within tolerance) is checked by
    :func:`check_state`, not enforced at construction, so intermediate states
    from propagation can be represented without masking numerical problems.
    """

    space: HilbertSpace
    mat: np.ndarray

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def __repr__(self) -> str:
        return f"DensityMatrix({self.space!r})"


def _require_same_space(a: HilbertSpace, b: HilbertSpace) -> None:
    if a != b:
        raise SpaceMismatchError(f"operands on different spaces: {a!r} vs {b!r}")


def _single_factor_lowering(factor: Factor) -> np.ndarray:
    m = np.zeros((factor.dim, factor.dim), dtype=complex)
    if factor.kind == "boson":
        for n in range(1, factor.dim):
            m[n - 1, n] = np.sqrt(n)
    else:
        m[0, 1] = 1.0  # sigma_minus = |g><e|
    return m


def embed(space: HilbertSpace, label: str, single: np.ndarray) -> Operator:
    """Embed a single-factor matrix into the composite space.

    Identity acts on every other factor; the Kronecker product follows the
    declaration order of the factors.
    """
    idx = space.factor_index(label)
    if single.shape != (space.factors[idx].dim,) * 2:
        raise ParameterError(
            f"matrix shape {single.shape} does not match factor "
            f"{label!r} of dim {space.factors[idx].dim}"
        )
    out = np.array([[1.0 + 0.0j]])
    for i, f in enumerate(space.factors):
        out = np.kron(out, single if i == idx else np.eye(f.dim, dtype=complex))
    return Operator(space, out)


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.total_dim, dtype=complex))


def lowering(space: HilbertSpace, label: str) -> Operator:
    """Annihilation operator of a boson factor, or sigma_minus of a qubit.

    For a boson factor the single-factor matrix has <n-1|b|n> = sqrt(n); the
    result is embedded in the full space with identities on other factors.
    """
    return embed(space, label, _single_factor_lowering(space.factor(label)))


def raising(space: HilbertSpace, label: str) -> Operator:
    return lowering(space, label).dag()


def number(space: HilbertSpace, label: str) -> Operator:
    b = lowering(space, label)
    return b.dag() @ b


def basis_ket(space: HilbertSpace, levels: Mapping[str, int] | None = None) -> np.ndarray:
    """Product basis ket with the given level per factor (default 0).

    Qubit levels: 0 is the ground state, 1 the excited state.
    """
    levels = dict(levels or {})
    ket = np.array([1.0 + 0.0j])
    for f in space.factors:
        n = levels.pop(f.label, 0)
        if not 0 <= n < f.dim:
            raise ParameterError(f"level {n} out of range for factor {f.label!r}")
        v = np.zeros(f.dim, dtype=complex)
        v[n] = 1.0
        ket = np.kron(ket, v)
    if levels:
        raise ParameterError(f"unknown factor labels in levels: {sorted(levels)}")
    return ket


def fock_dm(space: HilbertSpace, levels: Mapping[str, int] | None = None) -> DensityMatrix:
    """Projector onto a product basis state, as a density matrix."""
    ket = basis_ket(space, levels)
    return DensityMatrix(space, np.outer(ket, ket.conj()))


def expectation(rho: DensityMatrix, op: Operator) -> complex:
    """Tr(op rho). Raises on a space mismatch."""
    _require_same_space(rho.space, op.space)
    return complex(np.sum(op.mat * rho.mat.T))


def hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T)))


def min_eigenvalue(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0])


def check_state(rho: DensityMatrix) -> None:
    """Validate trace, Hermiticity, and positivity of a state.

    Raises
    ------
    StateValidityError
        If |Tr rho - 1| > TRACE_TOL, the Hermiticity defect exceeds
        HERMITICITY_TOL, or the smallest eigenvalue is below POSITIVITY_TOL.
    """
    tr = rho.trace
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateValidityError(f"trace deviates from one: Tr rho = {tr}")
    defect = hermiticity_defect(rho.mat)
    if defect > HERMITICITY_TOL:
        raise StateValidityError(f"Hermiticity defect {defect:.3e} > {HERMITICITY_TOL}")
    lam = min_eigenvalue(rho.mat)
    if lam < POSITIVITY_TOL:
        raise StateValidityError(f"negative eigenvalue {lam:.3e} below {POSITIVITY_TOL}")

"""Liouvillian action, steady states, and exact propagation."""

import logging
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import gmres, splu

from phonoblock.correlations import g2_tau, g2_zero, mean_occupation
from phonoblock.errors import (
    EvolutionError,
    ParameterError,
    SpaceMismatchError,
    StateValidityError,
    SteadyStateError,
)
from phonoblock.hilbert import (
    DensityMatrix,
    Operator,
    check_state,
    expectation,
    fock_dm,
    lowering,
    make_space,
    number,
)
from phonoblock import solver
from phonoblock.model import (
    DetectionParams,
    MqParams,
    model_space,
    three_mode_space,
    two_mode_space,
)
from phonoblock.solver import (
    BASIS_CACHE_SIZE,
    LiouvillianBasis,
    assemble,
    liouvillian_basis,
    evolve,
    steady_state,
    unvec,
    vec,
)
from phonoblock.sweep import figure_panels
from oracle import (
    apply,
    build_liouvillian,
    model_liouvillian,
    trace_distance,
    trace_preservation_residual,
)

RNG = np.random.default_rng(7)


def _random_hermitian(space):
    d = space.total_dim
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return Operator(space, 0.5 * (m + m.conj().T))


def _random_collapses(space, n=2):
    d = space.total_dim
    out = []
    for _ in range(n):
        m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        out.append((float(RNG.uniform(0.1, 2.0)), Operator(space, m)))
    return out


def test_single_phonon_decay_action():
    space = make_space([("m", 3)])
    b = lowering(space, "m")
    h = Operator(space, np.zeros((4, 4), dtype=complex))
    liou = build_liouvillian(h, [(1.0, b)])
    rho = fock_dm(space, {"m": 1}).mat
    expected = fock_dm(space, {"m": 0}).mat - rho
    assert np.allclose(apply(liou, rho), expected, atol=1e-14)


def test_free_phase_rotation_action():
    delta = 0.7
    space = make_space([("m", 3)])
    h = delta * number(space, "m")
    liou = build_liouvillian(h, [])
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 1] = 1.0  # |0><1|
    assert np.allclose(apply(liou, rho), 1j * delta * rho, atol=1e-14)


def test_trace_preservation_random_generators():
    space = make_space([("m", 3), ("q", "qubit")])
    for _ in range(20):
        liou = build_liouvillian(_random_hermitian(space), _random_collapses(space))
        scale = max(np.abs(liou.matrix.data))
        assert trace_preservation_residual(liou) < 1e-10 * max(1.0, scale)


def test_vectorization_against_matrixwise_rhs():
    # Independent oracle: assemble the master-equation right-hand side
    # matrix-wise, never through the superoperator, on random states.
    space = make_space([("m", 5), ("q", "qubit")])  # 12-dim
    h = _random_hermitian(space)
    collapses = _random_collapses(space, n=3)
    liou = build_liouvillian(h, collapses)
    for _ in range(10):
        d = space.total_dim
        r = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        r = 0.5 * (r + r.conj().T)
        rhs = -1j * (h.mat @ r - r @ h.mat)
        for rate, op in collapses:
            o = op.mat
            od = o.conj().T
            rhs += rate * (o @ r @ od - 0.5 * (od @ o @ r + r @ od @ o))
        assert np.max(np.abs(apply(liou, r) - rhs)) < 1e-12 * max(
            1.0, np.max(np.abs(rhs))
        )


def test_liouvillian_preserves_hermiticity_of_action():
    space = make_space([("m", 4), ("q", "qubit")])
    liou = build_liouvillian(_random_hermitian(space), _random_collapses(space))
    d = space.total_dim
    r = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    r = 0.5 * (r + r.conj().T)
    image = apply(liou, r)
    assert np.max(np.abs(image - image.conj().T)) < 1e-10


def test_build_rejects_non_hermitian_hamiltonian():
    space = make_space([("m", 3)])
    with pytest.raises(StateValidityError):
        build_liouvillian(lowering(space, "m"), [])


def test_build_rejects_space_mismatch():
    space = make_space([("m", 3)])
    other = make_space([("m", 4)])
    h = 0.0 * number(space, "m")
    with pytest.raises(SpaceMismatchError):
        build_liouvillian(h, [(1.0, lowering(other, "m"))])


def _random_model_point():
    """Two- or three-mode params with zero, negative-zero and random values."""
    def pick(*edges, lo, hi):
        return float(RNG.choice([*edges, RNG.uniform(lo, hi), RNG.uniform(lo, hi)]))

    base = MqParams(
        delta=pick(0.0, -0.0, lo=-5.0, hi=5.0),
        j=pick(0.0, lo=0.0, hi=5.0),
        eps=pick(0.0, lo=0.0, hi=1.0),
        omega_drv=pick(0.0, lo=0.0, hi=1.0),
        phi=pick(0.0, lo=-np.pi, hi=np.pi),
        kappa=float(RNG.uniform(0.1, 3.0)),
        gamma=float(RNG.uniform(0.1, 3.0)),
        n_th=pick(0.0, lo=0.0, hi=1.0),
    )
    if RNG.uniform() < 0.5:
        return base, int(RNG.integers(2, 7)), None
    g_om = complex(pick(0.0, -0.0, lo=-1.0, hi=1.0), pick(0.0, lo=-1.0, hi=1.0))
    params = DetectionParams(base=base, g_om=g_om, gamma_cav=float(RNG.uniform(1.0, 20.0)))
    return params, int(RNG.integers(2, 5)), int(RNG.integers(2, 4))


def _assert_matches_kron(liou, params, mech_cutoff, cavity_cutoff):
    kron = model_liouvillian(params, model_space(params, mech_cutoff, cavity_cutoff)).matrix
    np.testing.assert_array_equal(liou.matrix.indptr, kron.indptr)
    np.testing.assert_array_equal(liou.matrix.indices, kron.indices)
    # the basis rounds every entry as the Kronecker builder does
    np.testing.assert_array_equal(liou.matrix.data, kron.data)


def test_basis_assembly_matches_kron_builder():
    for _ in range(40):
        params, mech, cavity = _random_model_point()
        space = model_space(params, mech, cavity)
        _assert_matches_kron(assemble(params, space), params, mech, cavity)


def test_zero_terms_leave_the_cached_pattern_intact():
    space = two_mode_space(5)
    basis = liouvillian_basis(space)
    for arr in (basis.indptr, basis.indices, basis.stack.data):
        assert not arr.flags.writeable
    undriven = MqParams(delta=1.0, j=2.0)  # vacuum: drives and n_th are zero
    rho = steady_state(assemble(undriven, space))
    assert expectation(rho, number(space, "m")).real == pytest.approx(0.0, abs=1e-12)
    driven = MqParams(delta=1.0, j=2.0, eps=0.3, omega_drv=0.2, phi=0.4, n_th=0.1)
    liou = assemble(driven, space)
    assert liou.matrix.nnz > assemble(undriven, space).matrix.nnz
    _assert_matches_kron(liou, driven, 5, None)


def test_assemble_rejects_the_other_models_space():
    with pytest.raises(ParameterError):
        assemble(MqParams(), three_mode_space(2, 2))
    with pytest.raises(ParameterError):
        assemble(DetectionParams(), two_mode_space(3))


def test_basis_rejects_non_hermitian_generator():
    space = make_space([("m", 3)])
    with pytest.raises(StateValidityError):
        LiouvillianBasis.from_generators(space, [lowering(space, "m")], [])


def _tolil_steady_state(liou):
    """Row 0 replaced through a LIL copy, then the solve steady_state makes on
    a space without a cavity: a fresh factorization in the symmetric
    minimum-degree order of A^T + A with diagonal pivots preferred, on the
    same one BLAS thread."""
    d = liou.dim
    weight = float(np.mean(np.abs(liou.matrix.data)))
    a = liou.matrix.tolil(copy=True)
    trace_row = np.zeros(d * d)
    trace_row[:: d + 1] = weight
    a[0, :] = trace_row
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = weight
    with solver._OneBlasThread():
        lu = splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True, "DiagPivotThresh": 0.01})
        rho = unvec(lu.solve(rhs), d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def test_spliced_trace_row_is_bit_equal_to_lil_assignment():
    space = make_space([("m", 4), ("q", "qubit")])
    for _ in range(10):
        liou = build_liouvillian(_random_hermitian(space), _random_collapses(space, n=3))
        before = liou.matrix.copy()
        np.testing.assert_array_equal(steady_state(liou).mat, _tolil_steady_state(liou))
        assert (liou.matrix != before).nnz == 0
    params = MqParams(delta=1.0, j=3.0, eps=0.2, omega_drv=0.1, n_th=0.01)
    liou = assemble(params, two_mode_space(6))
    np.testing.assert_array_equal(steady_state(liou).mat, _tolil_steady_state(liou))


# One sweep-like run on a space: every pattern change a sweep can meet, each
# then repeated with other values, so some points miss and some reuse.
_PATTERN_RUN = (
    dict(delta=1.0, j=3.0, eps=0.2, omega_drv=0.1, phi=0.3, n_th=0.01),
    dict(delta=-2.5, j=1.5, eps=0.1, omega_drv=0.3, phi=-1.0, n_th=0.2),
    dict(delta=1.0, j=3.0, eps=0.2, omega_drv=0.1, phi=0.3, n_th=0.0),
    dict(delta=0.7, j=2.0, eps=0.3, omega_drv=0.0, n_th=0.05),
    dict(delta=0.0, j=3.0, eps=0.2, omega_drv=0.1, phi=0.3, n_th=0.01),
    dict(delta=-1.2, j=0.5, eps=0.05, omega_drv=0.2, phi=2.0, n_th=0.0),
    dict(delta=2.0, j=1.0, eps=0.4, omega_drv=0.0, n_th=0.3),
    dict(delta=0.0, j=2.5, eps=0.1, omega_drv=0.05, phi=1.0, n_th=0.0),
    dict(delta=3.0, j=3.0, eps=0.2, omega_drv=0.1, phi=-0.3, n_th=0.01),
)


def _three_mode(**fields):
    return DetectionParams(base=MqParams(**fields), g_om=0.1 - 0.05j, gamma_cav=10.0)


# On these spaces SuperLU meets tied pivots, so an order that permutes only
# the columns (and so prefers other diagonal entries) gives other bits.
def _recording_splu(monkeypatch):
    """Record (permc_spec, perm_c) of every factorization steady_state makes."""
    factorizations = []

    def recording_splu(a, **kwargs):
        lu = splu(a, **kwargs)
        factorizations.append((kwargs.get("permc_spec", "COLAMD"), lu.perm_c.copy()))
        return lu

    monkeypatch.setattr(solver, "splu", recording_splu)
    return factorizations


def _assert_owned_read_only(orders):
    for order in orders.values():
        for arr in (order.perm, order.gather, order.indices, order.indptr):
            assert arr.base is None
            assert not arr.flags.writeable


# three-mode spaces are solved by GMRES and factor nothing
@pytest.mark.parametrize("make, mech, cavity", [(MqParams, 5, None)], ids=["two"])
def test_reused_column_order_is_bit_equal_to_a_fresh_factorization(
    monkeypatch, make, mech, cavity
):
    liouvillian_basis.cache_clear()
    factorizations = _recording_splu(monkeypatch)
    patterns = set()
    for fields in _PATTERN_RUN:
        params = make(**fields)
        liou = assemble(params, model_space(params, mech, cavity))
        np.testing.assert_array_equal(steady_state(liou).mat, _tolil_steady_state(liou))
        _, indices, indptr = solver._with_trace_row(liou.matrix, liou.dim, 1.0)
        patterns.add((indptr.tobytes(), indices.tobytes()))
    assert 3 <= len(patterns) < len(_PATTERN_RUN)
    # one fresh minimum-degree factorization per pattern, kept by the space's
    # basis; every other point reuses its order and SuperLU permutes no column
    # a second time
    assert set(liouvillian_basis(liou.space).orders) == patterns
    specs = [spec for spec, _ in factorizations]
    assert specs.count("MMD_AT_PLUS_A") == len(patterns)
    assert specs.count("NATURAL") == len(_PATTERN_RUN) - len(patterns)
    n = liou.dim ** 2
    for spec, perm_c in factorizations:
        if spec == "NATURAL":
            np.testing.assert_array_equal(perm_c, np.arange(n))


def test_evicted_basis_takes_its_column_orders_along(monkeypatch):
    liouvillian_basis.cache_clear()
    factorizations = _recording_splu(monkeypatch)
    params = MqParams(delta=1.0, j=2.0, eps=0.2, omega_drv=0.1, n_th=0.01)
    spaces = [two_mode_space(mech) for mech in range(2, BASIS_CACHE_SIZE + 3)]
    first = liouvillian_basis(spaces[0])
    for space in [spaces[0], *spaces]:
        liou = assemble(params, space)
        np.testing.assert_array_equal(steady_state(liou).mat, _tolil_steady_state(liou))
        assert liou.orders is liouvillian_basis(space).orders
        _assert_owned_read_only(liou.orders)
    # the first space was solved twice on one order, then evicted by the last
    assert len(first.orders) == 1
    assert [spec for spec, _ in factorizations].count("MMD_AT_PLUS_A") == len(spaces)
    rebuilt = liouvillian_basis(spaces[0])
    assert rebuilt is not first and rebuilt.orders == {}
    liou = assemble(params, spaces[0])
    np.testing.assert_array_equal(steady_state(liou).mat, _tolil_steady_state(liou))
    assert factorizations[-1][0] == "MMD_AT_PLUS_A"
    assert rebuilt.orders.keys() == first.orders.keys()
    _assert_owned_read_only(rebuilt.orders)


def test_kron_built_liouvillian_factors_with_fresh_minimum_degree_order(monkeypatch):
    factorizations = _recording_splu(monkeypatch)
    params = MqParams(delta=1.0, j=2.0, eps=0.2, omega_drv=0.1, n_th=0.01)
    space = two_mode_space(4)
    # the basis now holds this pattern's order; a Kronecker-built L must not see it
    steady_state(assemble(params, space))
    for _ in range(2):
        liou = model_liouvillian(params, space)
        assert liou.orders == {}
        steady_state(liou)
        assert factorizations[-1][0] == "MMD_AT_PLUS_A"
    assert len(liou.orders) == 1


@pytest.fixture
def blas_threads():
    """The (get, set) thread-count calls of SuperLU's OpenBLAS; the count the
    test found comes back after it."""
    get, set_ = solver._superlu_blas_threads()
    before = get()
    yield get, set_
    set_(before)


def test_superlu_blas_thread_calls_resolve_once_and_say_so(caplog):
    # a scipy that renames its OpenBLAS calls fails here, instead of silently
    # factoring on every thread again
    solver._superlu_blas_threads.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="phonoblock"):
        for _ in range(2):
            assert solver._superlu_blas_threads() is not None
    [line] = [r.getMessage() for r in caplog.records if r.name == "phonoblock.solver"]
    assert "openblas_set_num_threads" in line


def test_three_mode_steady_state_does_not_depend_on_the_callers_blas_threads(blas_threads):
    _, set_ = blas_threads
    params = _three_mode(**_PATTERN_RUN[0])
    space = model_space(params, 3, 3)
    liouvillian_basis.cache_clear()
    steady_state(assemble(params, space))
    states = []
    for threads in (1, 2):
        set_(threads)
        # a Kronecker-built and a basis-built generator, both by GMRES
        states += [steady_state(model_liouvillian(params, space)).mat,
                   steady_state(assemble(params, space)).mat]
    for state in states[1:]:
        np.testing.assert_array_equal(state, states[0])


def test_steady_state_restores_the_callers_blas_threads(monkeypatch, blas_threads):
    get, set_ = blas_threads
    liou = assemble(MqParams(delta=1.0, j=2.0, eps=0.2, omega_drv=0.1, n_th=0.01),
                    two_mode_space(4))
    seen = []

    def counting_splu(a, **kwargs):
        seen.append(get())
        return splu(a, **kwargs)

    def failing_splu(a, **kwargs):
        seen.append(get())
        raise RuntimeError("Factor is exactly singular")

    for threads in (1, 2):
        set_(threads)
        monkeypatch.setattr(solver, "splu", counting_splu)
        steady_state(liou)
        assert get() == threads
        monkeypatch.setattr(solver, "splu", failing_splu)
        with pytest.raises(SteadyStateError):
            steady_state(liou)
        assert get() == threads
    # SuperLU itself ran on one thread each time
    assert seen == [1, 1, 1, 1]


def test_krylov_solve_runs_numpy_blas_on_one_thread_too(monkeypatch, blas_threads):
    get, set_ = blas_threads
    numpy_get, numpy_set = solver._numpy_blas_threads()
    before = numpy_get()
    params = _three_mode(**_PATTERN_RUN[0])
    liou = assemble(params, model_space(params, 3, 3))
    seen = []

    def counting_gmres(*args, **kwargs):
        seen.append((get(), numpy_get()))
        return gmres(*args, **kwargs)

    monkeypatch.setattr(solver, "gmres", counting_gmres)
    try:
        for threads in (1, 2):
            set_(threads)
            numpy_set(threads)
            steady_state(liou)
            assert (get(), numpy_get()) == (threads, threads)
    finally:
        numpy_set(before)
    # the solve and its correction step, twice
    assert seen == [(1, 1)] * 4


def _readout_scalars(rho, space):
    b = lowering(space, "m")
    return np.array([g2_zero(rho, b), g2_zero(rho, lowering(space, "a")),
                     mean_occupation(rho, b)])


@pytest.mark.parametrize("mech, cavity", [(6, 3), (8, 3)])
def test_krylov_steady_state_matches_the_lu_of_the_same_generator(mech, cavity):
    spec = figure_panels("fig11c")["fig11c"]
    _, g_oms = spec.axes[0]
    params = spec.params_at({"g_om": g_oms[-1]})  # g_om = 10
    space = model_space(params, mech, cavity)
    liou = assemble(params, space)
    lu = DensityMatrix(space, _tolil_steady_state(liou))
    np.testing.assert_allclose(_readout_scalars(steady_state(liou), space),
                               _readout_scalars(lu, space), rtol=1e-12, atol=0)


def test_undriven_three_mode_point_is_the_ground_state():
    # the ground state is a dark state of K (eigenvalue 0), which the
    # preconditioner must not divide by
    params = DetectionParams(base=MqParams(delta=0.5, j=1.0), g_om=0.3, gamma_cav=2.0)
    space = model_space(params, 3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = steady_state(assemble(params, space))
    np.testing.assert_allclose(rho.mat, fock_dm(space).mat, rtol=0, atol=1e-14)


def test_krylov_solve_near_an_exceptional_point_of_k_matches_the_lu():
    # undriven, the qubit-NAMR one-excitation block of K is defective when
    # j = (gamma - kappa) / 4; the drive eps splits it only slightly
    params = DetectionParams(base=MqParams(kappa=1.0, gamma=3.0, j=0.5, delta=0.0, eps=0.1),
                             g_om=0.0, gamma_cav=10.0)
    liou = assemble(params, model_space(params, 3, 2))
    np.testing.assert_allclose(steady_state(liou).mat, _tolil_steady_state(liou),
                               rtol=0, atol=1e-12)


def test_exhausted_krylov_budget_raises(monkeypatch):
    monkeypatch.setattr(solver, "KRYLOV_RESTART", 2)
    monkeypatch.setattr(solver, "KRYLOV_MAX_RESTARTS", 1)
    params = _three_mode(**_PATTERN_RUN[0])
    liou = assemble(params, model_space(params, 3, 3))
    with pytest.raises(SteadyStateError, match="GMRES did not converge in 2 iterations"):
        steady_state(liou)


def test_singular_eigenbasis_raises_steady_state_error(monkeypatch):
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    params = _three_mode(**_PATTERN_RUN[0])
    liou = assemble(params, model_space(params, 3, 3))
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(SteadyStateError, match="no eigenbasis"):
        steady_state(liou)


def test_three_mode_steady_state_leaves_global_rng_untouched():
    params = _three_mode(**_PATTERN_RUN[0])
    liou = assemble(params, model_space(params, 3, 3))
    np.random.seed(1234)
    before = np.random.get_state()
    steady_state(liou)
    after = np.random.get_state()
    assert before[0] == after[0]
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


def test_krylov_solve_logs_its_iterations_and_residual(caplog):
    params = _three_mode(**_PATTERN_RUN[0])
    liou = assemble(params, model_space(params, 3, 3))
    with caplog.at_level(logging.DEBUG, logger="phonoblock"):
        steady_state(liou)
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("GMRES")]
    assert "iterations, residual" in line and "of the gate" in line


def test_basis_lowering_operators_are_read_only_and_exact():
    space = three_mode_space(2, 3)
    ops = liouvillian_basis(space).lowering_ops
    assert list(ops) == list(space.labels)
    for label, op in ops.items():
        assert not op.mat.flags.writeable
        np.testing.assert_array_equal(op.mat, lowering(space, label).mat)


def test_steady_state_vacuum_fixed_point():
    space = two_mode_space()
    p = MqParams(delta=0.5, j=1.0, eps=0.0, n_th=0.0)
    liou = model_liouvillian(p, space)
    rho = steady_state(liou)
    assert np.max(np.abs(rho.mat - fock_dm(space).mat)) < 1e-9


def test_steady_state_driven_damped_oscillator():
    # Decoupled, resonantly driven mechanical mode relaxes to a coherent
    # state of amplitude 2 eps / gamma.
    space = two_mode_space()
    p = MqParams(delta=0.0, j=0.0, eps=0.3, gamma=1.0, n_th=0.0)
    liou = model_liouvillian(p, space)
    rho = steady_state(liou)
    n_b = expectation(rho, number(space, "m")).real
    assert n_b == pytest.approx((2 * 0.3 / 1.0) ** 2, abs=1e-6)


def test_steady_state_detailed_balance_thermal():
    space = two_mode_space(10)
    p = MqParams(j=0.0, eps=0.0, n_th=0.2)
    liou = model_liouvillian(p, space)
    rho = steady_state(liou)
    assert expectation(rho, number(space, "m")).real == pytest.approx(0.2, abs=1e-6)


def test_steady_state_requires_damping():
    space = make_space([("m", 3)])
    h = 0.3 * number(space, "m")
    with pytest.raises(SteadyStateError):
        steady_state(build_liouvillian(h, []))


def test_evolve_identity_generator():
    space = make_space([("m", 3)])
    h = Operator(space, np.zeros((4, 4), dtype=complex))
    liou = build_liouvillian(h, [])
    rho0 = fock_dm(space, {"m": 2})
    for state in evolve(rho0, liou, [0.0, 1.0, 5.0]):
        assert np.array_equal(state.mat, rho0.mat)


def test_evolve_exponential_decay():
    space = make_space([("m", 3)])
    h = Operator(space, np.zeros((4, 4), dtype=complex))
    liou = build_liouvillian(h, [(1.0, lowering(space, "m"))])
    rho0 = fock_dm(space, {"m": 1})
    times = [0.5, 1.0, 2.0]
    for t, state in zip(times, evolve(rho0, liou, times)):
        assert state.mat[1, 1].real == pytest.approx(np.exp(-t), abs=1e-10)


def test_evolve_reaches_steady_state():
    space = two_mode_space()
    p = MqParams(delta=0.0, j=1.0 / np.sqrt(2.0), eps=0.01)
    liou = model_liouvillian(p, space)
    target = steady_state(liou)
    final = evolve(fock_dm(space, {"m": 1}), liou, [30.0])[-1]
    assert trace_distance(final, target) < 1e-6


def test_steady_state_is_fixed_point_of_evolve():
    space = two_mode_space()
    p = MqParams(delta=10.0, j=10.0, eps=0.01)
    liou = model_liouvillian(p, space)
    rho = steady_state(liou)
    evolved = evolve(rho, liou, [10.0])[-1]
    assert trace_distance(evolved, rho) < 1e-10


def test_evolve_matches_dense_exponential():
    space = make_space([("m", 3), ("q", "qubit")])
    liou = build_liouvillian(_random_hermitian(space), _random_collapses(space))
    rho0 = fock_dm(space, {"m": 1})
    times = [0.0, 0.05, 0.3, 1.1, 1.2, 4.0]
    dense = liou.matrix.toarray()
    for t, state in zip(times, evolve(rho0, liou, times)):
        ref = unvec(scipy.linalg.expm(t * dense) @ vec(rho0.mat), space.total_dim)
        assert np.max(np.abs(state.mat - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_evolve_leaves_initial_state_untouched():
    space = two_mode_space()
    p = MqParams(delta=3.0, j=3.0, eps=0.2, omega_drv=0.6, phi=0.2)
    liou = model_liouvillian(p, space)
    rho0 = fock_dm(space, {"m": 1})
    before = rho0.mat.copy()
    evolve(rho0, liou, [0.5, 2.0])
    assert np.array_equal(rho0.mat, before)


def test_evolve_is_bit_reproducible():
    space = two_mode_space()
    p = MqParams(delta=3.0, j=3.0, eps=0.2, omega_drv=0.6, phi=0.2)
    liou = model_liouvillian(p, space)
    times = np.linspace(0.0, 6.0, 13)
    first = evolve(fock_dm(space, {"m": 1}), liou, times)
    second = evolve(fock_dm(space, {"m": 1}), liou, times)
    for a, b in zip(first, second):
        assert np.array_equal(a.mat, b.mat)


def test_g2_tau_leaves_global_rng_untouched():
    # At the strong-coupling point ||L||_1 ~ 111, so one expm_multiply call
    # per output interval would draw from np.random through scipy's
    # randomized norm estimator.
    space = two_mode_space()
    p = MqParams(delta=10.0, j=10.0, eps=0.01)
    liou = model_liouvillian(p, space)
    rho = steady_state(liou)
    np.random.seed(1234)
    before = np.random.get_state()
    g2_tau(liou, rho, lowering(space, "m"), [0.0, 1.0, 5.0, 20.0])
    after = np.random.get_state()
    assert before[0] == after[0]
    assert np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


def test_evolved_states_remain_valid():
    space = two_mode_space()
    p = MqParams(delta=3.0, j=3.0, eps=0.2, omega_drv=0.6, phi=0.2)
    liou = model_liouvillian(p, space)
    for state in evolve(fock_dm(space), liou, [0.0, 0.5, 2.0, 8.0]):
        check_state(state)


def test_evolve_grid_validation():
    space = make_space([("m", 3)])
    h = Operator(space, np.zeros((4, 4), dtype=complex))
    liou = build_liouvillian(h, [(1.0, lowering(space, "m"))])
    rho0 = fock_dm(space)
    with pytest.raises(EvolutionError):
        evolve(rho0, liou, [-1.0, 0.0])
    with pytest.raises(EvolutionError):
        evolve(rho0, liou, [0.0, 1.0, 1.0])
    assert evolve(rho0, liou, []) == []


@pytest.mark.parametrize(
    "t_grid",
    [[0.0, float("nan")], [float("nan")], [float("inf")], [0.0, 1.0, float("inf")]],
)
def test_evolve_rejects_non_finite_times(t_grid):
    space = make_space([("m", 3)])
    h = Operator(space, np.zeros((4, 4), dtype=complex))
    liou = build_liouvillian(h, [(1.0, lowering(space, "m"))])
    with pytest.raises(EvolutionError, match="finite"):
        evolve(fock_dm(space), liou, t_grid)


def test_evolve_step_underflow_guard():
    space = make_space([("m", 3)])
    liou = build_liouvillian(
        Operator(space, np.zeros((4, 4), dtype=complex)),
        [(1e12, lowering(space, "m"))],
    )
    with pytest.raises(EvolutionError):
        evolve(fock_dm(space, {"m": 1}), liou, [1.0])


def test_evolve_rejects_non_finite_generator():
    space = make_space([("m", 3)])
    liou = build_liouvillian(
        Operator(space, np.zeros((4, 4), dtype=complex)),
        [(float("nan"), lowering(space, "m"))],
    )
    with pytest.raises(EvolutionError):
        evolve(fock_dm(space, {"m": 1}), liou, [1.0])


def test_evolve_space_mismatch():
    space = make_space([("m", 3)])
    other = make_space([("m", 4)])
    liou = build_liouvillian(
        Operator(space, np.zeros((4, 4), dtype=complex)), [(1.0, lowering(space, "m"))]
    )
    with pytest.raises(SpaceMismatchError):
        evolve(fock_dm(other), liou, [1.0])


def test_trace_distance_orthogonal_states():
    space = make_space([("m", 3)])
    a = fock_dm(space, {"m": 0})
    b = fock_dm(space, {"m": 1})
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0)


def test_vec_convention_is_column_major():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(m), np.array([1, 3, 2, 4], dtype=complex))

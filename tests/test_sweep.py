"""Grid engine: ordering, determinism, failure markers, and presets."""

import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from phonoblock import sweep
from phonoblock.analytics import optimal_drive_roots
from phonoblock.correlations import g2_zero
from phonoblock.errors import ParameterError, SweepError
from phonoblock.hilbert import DensityMatrix, expectation, lowering
from phonoblock.model import (
    DetectionParams,
    MqParams,
    build_h_mq,
    build_h_total,
    collapse_ops,
    model_space,
    resolve_params,
)
from phonoblock.solver import build_liouvillian, liouvillian_basis, steady_state, unvec
from phonoblock.sweep import (
    SweepSpec,
    figure_names,
    figure_panels,
    run_sweep,
    solve_point,
)

WEAK = MqParams(eps=0.01)


def test_grid_rows_in_row_major_order():
    spec = SweepSpec(
        axes=(("delta", (0.0, 1.0, 2.0)), ("j", (5.0, 6.0, 7.0))),
        fixed=WEAK,
    )
    result = run_sweep(spec)
    assert result.n_rows == 9
    assert list(result.columns["delta"]) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert list(result.columns["j"]) == [5, 6, 7, 5, 6, 7, 5, 6, 7]
    assert list(result.columns)[-1] == "converged"


def test_single_point_reproduces_blockade_value():
    spec = SweepSpec(
        axes=(("delta", (0.0,)),),
        fixed=replace(WEAK, j=1 / math.sqrt(2)),
    )
    result = run_sweep(spec)
    g2 = result.columns["g2_zero"][0]
    assert 0.0015 <= g2 <= 0.006
    assert bool(result.columns["converged"][0])


def test_strong_coupling_minima_at_plus_minus_j():
    spec = SweepSpec(
        axes=(("delta", tuple(np.linspace(-15, 15, 31)),),),
        fixed=replace(WEAK, j=10.0),
    )
    result = run_sweep(spec)
    g2 = result.columns["g2_zero"]
    delta = result.columns["delta"]
    step = delta[1] - delta[0]
    neg = delta < 0
    assert abs(delta[neg][np.argmin(g2[neg])] + 10.0) <= step
    pos = delta > 0
    assert abs(delta[pos][np.argmin(g2[pos])] - 10.0) <= step


def test_identical_specs_give_identical_columns():
    spec = SweepSpec(
        axes=(("delta", (0.0, 0.5)), ("j", (0.5, 1.0))),
        fixed=WEAK,
        outputs=("g2_zero", "n_b"),
    )
    a = run_sweep(spec)
    b = run_sweep(spec)
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name]), name


def test_failed_point_marked_not_fatal():
    spec = SweepSpec(
        axes=(("gamma", (0.0, 1.0)),),
        fixed=replace(WEAK, j=1.0),
    )
    result = run_sweep(spec)
    assert math.isnan(result.columns["g2_zero"][0])
    assert not result.columns["converged"][0]
    assert math.isfinite(result.columns["g2_zero"][1])
    assert len(result.metadata["failures"]) == 1
    assert result.metadata["failures"][0][0] == 0


def test_all_points_failed_raises():
    spec = SweepSpec(axes=(("gamma", (0.0, -1.0)),), fixed=WEAK)
    with pytest.raises(SweepError):
        run_sweep(spec)


def test_spec_validation():
    with pytest.raises(ParameterError):
        SweepSpec(axes=(("bogus", (1.0,)),), fixed=WEAK)
    with pytest.raises(ParameterError):
        SweepSpec(axes=(("delta", ()),), fixed=WEAK)
    with pytest.raises(ParameterError):
        SweepSpec(axes=(("delta", (1.0,)),), fixed=WEAK, outputs=("nope",))
    with pytest.raises(ParameterError):
        SweepSpec(axes=(("delta", (1.0,)),), fixed=WEAK, outputs=("g2a_zero",))
    with pytest.raises(ParameterError):
        SweepSpec(axes=(("delta", (1.0,)),), fixed=WEAK, outputs=("g2_tau",))
    with pytest.raises(ParameterError):
        SweepSpec(
            axes=(("delta", (1.0,)), ("j", (1.0,)), ("eps", (1.0,))), fixed=WEAK
        )
    with pytest.raises(ParameterError):
        SweepSpec(axes=(("delta", (1.0,)), ("delta", (2.0,))), fixed=WEAK)
    with pytest.raises(ParameterError):
        SweepSpec(
            axes=(("delta_opt", (1.0,)),), fixed=WEAK, delta_opt=2.0
        )
    with pytest.raises(ParameterError):
        SweepSpec(axes=(("g_om", (0.1,)),), fixed=WEAK)
    with pytest.raises(ParameterError):
        SweepSpec(axes=(("delta", (1.0,)),), fixed=WEAK, root_branch="x")
    with pytest.raises(ParameterError, match="distinct"):
        SweepSpec(axes=(("delta", (1.0,)),), fixed=WEAK, outputs=("g2_zero", "g2_zero"))
    with pytest.raises(ParameterError, match="cavity_cutoff"):
        SweepSpec(axes=(("delta", (1.0,)),), fixed=WEAK, cavity_cutoff=5)
    with pytest.raises(ParameterError, match="delta_opt must be finite"):
        SweepSpec(axes=(("delta", (1.0,)),), fixed=WEAK, delta_opt=math.nan)


def test_derived_drive_axis_matches_direct_settings():
    spec = SweepSpec(
        axes=(("delta_opt", (3.0,)), ("delta", (3.0,))),
        fixed=replace(WEAK, j=3.0, eps=0.2),
        root_branch="+",
    )
    result = run_sweep(spec)
    g2 = result.columns["g2_zero"][0]
    assert 0.007 <= g2 <= 0.028  # deep two-drive blockade


def test_eta_phi_roots_output_columns():
    spec = SweepSpec(
        axes=(("delta", (-2.0, 1.0)),),
        fixed=MqParams(j=3.0),
        outputs=("eta_phi_roots",),
    )
    result = run_sweep(spec)
    roots = optimal_drive_roots(-2.0, 3.0, 1.0, 1.0)
    assert result.columns["eta_plus"][0] == pytest.approx(roots.eta_plus)
    assert result.columns["phi_minus"][0] == pytest.approx(roots.phi_minus)
    assert all(result.columns["converged"])


def test_g2_tau_output_columns():
    tau_grid = (0.0, 1.0, 2.0)
    spec = SweepSpec(
        axes=(("delta", (0.0,)),),
        fixed=replace(WEAK, j=1 / math.sqrt(2)),
        outputs=("g2_zero", "g2_tau"),
        tau_grid=tau_grid,
    )
    result = run_sweep(spec)
    assert result.columns["g2_tau_000"][0] == pytest.approx(
        result.columns["g2_zero"][0], abs=1e-8
    )
    assert {"g2_tau_000", "g2_tau_001", "g2_tau_002"} <= set(result.columns)


def test_convergence_flag_detects_undertrunction():
    # strong drive on a decoupled mode at a tiny cutoff: raising the cutoff
    # moves the correlation, so the row must be flagged unconverged
    spec = SweepSpec(
        axes=(("eps", (0.5,)),),
        fixed=MqParams(j=0.0, eps=0.5),
        mech_cutoff=2,
    )
    result = run_sweep(spec)
    assert not result.columns["converged"][0]


def test_metadata_contents(caplog):
    spec = SweepSpec(axes=(("delta", (0.0, 1.0)),), fixed=replace(WEAK, j=1.0))
    with caplog.at_level(logging.DEBUG, logger="phonoblock"):
        result = run_sweep(spec)
    [line] = [r.getMessage() for r in caplog.records if r.name == "phonoblock.sweep"]
    assert line.startswith("2 points: ") and line.endswith("s re-solves")
    meta = result.metadata
    assert meta["rows"] == 2
    assert meta["model"] == "two_mode"
    assert meta["mech_cutoff"] == 8
    assert meta["axes"][0]["name"] == "delta"
    assert meta["max_steady_residual"] >= 0.0
    assert meta["fixed_params"]["j"] == 1.0
    assert 0.0 < meta["steady_s"] and 0.0 < meta["refine_s"]
    assert meta["steady_s"] + meta["refine_s"] <= meta["wall_time_s"]


def test_tables_depend_on_neither_cache_state_nor_point_order():
    # n_th = 0 drops the thermal channels' entries, so the grid has two
    # trace-row patterns, and each run meets their first points in its own order
    fixed = MqParams(j=3.0, eps=0.2, omega_drv=0.1, phi=0.3)
    axes = (("n_th", (0.0, 0.01)), ("delta", (-1.0, 2.0)))
    outputs = ("g2_zero", "n_b", "converged")

    def by_point(axes):
        cols = run_sweep(SweepSpec(axes=axes, fixed=fixed, outputs=outputs[:2],
                                   mech_cutoff=5)).columns
        return {(cols["n_th"][i], cols["delta"][i]): tuple(cols[k][i].tobytes() for k in outputs)
                for i in range(len(cols["n_th"]))}

    liouvillian_basis.cache_clear()
    cold = by_point(axes)
    warm = by_point(axes)
    liouvillian_basis.cache_clear()
    reversed_cold = by_point(tuple((name, values[::-1]) for name, values in axes))
    assert len(cold) == 4
    assert cold == warm == reversed_cold


# the fixed params and cutoff of the cache-state test above, over the two
# trace-row patterns of n_th = 0 and n_th > 0
_TWO_PATTERNS = SweepSpec(axes=(("n_th", (0.0, 0.01)),),
                          fixed=MqParams(j=3.0, eps=0.2, omega_drv=0.1, phi=0.3), mech_cutoff=5)


def test_each_new_column_order_is_logged_once(caplog):
    def new_orders() -> int:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="phonoblock"):
            run_sweep(_TWO_PATTERNS)
        return sum(r.name == "phonoblock.solver" and r.getMessage().startswith("new column order")
                   for r in caplog.records)

    liouvillian_basis.cache_clear()
    assert new_orders() == 4  # 2 patterns x (cutoff 5, cutoff 7)
    assert new_orders() == 0


def test_no_basis_is_built_outside_the_timed_solves(monkeypatch, caplog):
    cached = []

    def spy(*args):
        cached.append(liouvillian_basis.cache_info().currsize)
        return solve_point(*args)

    liouvillian_basis.cache_clear()
    monkeypatch.setattr(sweep, "solve_point", spy)
    with caplog.at_level(logging.DEBUG, logger="phonoblock"):
        run_sweep(_TWO_PATTERNS)
    assert cached[0] == 0 and len(cached) == 4


def test_three_mode_sweep_point():
    base = MqParams(delta=3.0, j=3.0, eps=0.2, n_th=1e-3)
    spec = SweepSpec(
        axes=(("delta", (3.0,)),),
        fixed=DetectionParams(base=base, g_om=0.1, gamma_cav=10.0),
        outputs=("g2_zero", "g2a_zero", "n_b"),
        delta_opt=3.0,
        mech_cutoff=4,
        cavity_cutoff=2,
    )
    result = run_sweep(spec)
    assert math.isfinite(result.columns["g2a_zero"][0])
    assert result.metadata["model"] == "three_mode"
    assert result.metadata["cavity_cutoff"] == 2


def test_presets_all_constructible_and_figure_mapping():
    names = set(sweep._PRESETS)
    assert {"fig2", "fig3b", "fig11b"} <= names
    assert figure_names() == sorted({re.match(r"fig\d+", name)[0] for name in names})
    # every panel is reached through its figure name
    assert set().union(*(figure_panels(figure) for figure in figure_names())) == names
    panels = figure_panels("fig3")
    assert set(panels) == {"fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f"}
    with pytest.raises(ParameterError):
        figure_panels("fig99")
    with pytest.raises(ParameterError):
        figure_panels("nope")


def test_figure_panels_accepts_sub_figure_prefixes():
    assert set(figure_panels("fig9c")) == {"fig9c_plus", "fig9c_minus"}
    assert set(figure_panels("FIG9C ")) == {"fig9c_plus", "fig9c_minus"}
    assert set(figure_panels("fig10")) == {"fig10a", "fig10b"}
    assert set(figure_panels("fig3")) == {f"fig3{c}" for c in "abcdef"}
    assert set(figure_panels("fig11a")) == {"fig11a"}
    assert set(figure_panels("fig11a_")) == {"fig11a_mq"}
    for name in ("fig1", "fig", "f", "", "fig9g", "ig9c"):
        with pytest.raises(ParameterError):
            figure_panels(name)


@pytest.mark.parametrize(
    "tau_grid",
    [(0.0, math.nan), (0.0, math.inf), (math.nan,), (-1.0, 0.0), (0.0, 1.0, 1.0)],
)
def test_bad_tau_grid_rejected_on_construction(tau_grid):
    with pytest.raises(ParameterError, match="tau_grid"):
        SweepSpec(
            axes=(("delta", (0.0,)),), fixed=WEAK, outputs=("g2_tau",), tau_grid=tau_grid
        )


def test_tau_grid_without_g2_tau_output_rejected_on_construction():
    # such a grid used to reach the metadata, and the tau CSV writer then failed
    with pytest.raises(ParameterError, match="tau_grid"):
        SweepSpec(axes=(("delta", (0.0,)),), fixed=WEAK, tau_grid=(0.0, 1.0))


def test_solve_point_measures_the_named_modes():
    params = DetectionParams(base=MqParams(delta=3.0, j=3.0, eps=0.2), g_om=0.1)
    values, series, residual = solve_point(
        params, 3, 2, ("qubit_excitation", "g2a_zero", "n_a", "n_b", "g2_zero"), (0.0, 0.5)
    )
    space = model_space(params, 3, 2)
    rho = steady_state(build_liouvillian(build_h_total(params, space), collapse_ops(params, space)))
    a, b, sm = (lowering(space, label) for label in ("a", "m", "q"))
    assert values == {
        "g2_zero": g2_zero(rho, b),
        "n_b": expectation(rho, b.dag() @ b).real,
        "g2a_zero": g2_zero(rho, a),
        "n_a": expectation(rho, a.dag() @ a).real,
        "qubit_excitation": expectation(rho, sm.dag() @ sm).real,
    }
    assert len(series) == 2 and series[0] == pytest.approx(values["g2_zero"], rel=1e-12)
    assert 0.0 <= residual < 1e-10


def test_solve_point_rejects_unknown_scalars():
    with pytest.raises(ParameterError, match="g2b_zero"):
        solve_point(WEAK, 4, None, ("g2b_zero",))


def _preset_point(name: str, index: int) -> tuple[MqParams, int | None]:
    """Params and mech cutoff of one point of a one-axis preset."""
    spec = figure_panels(name)[name]
    [(axis, values)] = spec.axes
    params = resolve_params(spec.fixed, {axis: values[index]}, spec.delta_opt, spec.root_branch)
    return params, spec.mech_cutoff


def _dense_refined_g2(params: MqParams, mech_cutoff: int | None) -> float:
    """g2(0) of the Kronecker-built generator's steady state, by dense LU
    with three steps of iterative refinement on a long-double residual."""
    space = model_space(params, mech_cutoff, None)
    d = space.total_dim
    a = build_liouvillian(build_h_mq(params, space), collapse_ops(params, space)).matrix.toarray()
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
    return g2_zero(DensityMatrix(space, rho / np.trace(rho).real), lowering(space, "m"))


# the point of each preset where a COLAMD, partial-pivoting factorization
# lost most: 7.9e-6, 1.4e-5 and 2.3e-7 relative in g2
@pytest.mark.parametrize("preset, index", [("fig5d", 3), ("fig6b", 1), ("fig9c_minus", 0)])
def test_g2_matches_a_refined_dense_solve(preset, index):
    params, cutoff = _preset_point(preset, index)
    values, _, _ = solve_point(params, cutoff, None, ("g2_zero",))
    assert values["g2_zero"] == pytest.approx(_dense_refined_g2(params, cutoff), rel=1e-12)


def test_fig9c_minus_g2_does_not_move_with_the_cutoff():
    # a COLAMD, partial-pivoting factorization read 0.06956695975 at cutoff 8
    # and 0.06956685219 at cutoff 16: LU error, not truncation
    params, _ = _preset_point("fig9c_minus", 0)
    g2_8, g2_16 = (solve_point(params, cutoff, None, ("g2_zero",))[0]["g2_zero"]
                   for cutoff in (8, 16))
    assert g2_16 == pytest.approx(g2_8, rel=1e-10, abs=0.0)


def test_far_detuned_decoupled_mode_is_coherent():
    # a driven, damped, decoupled mode relaxes to a coherent state, g2 = 1;
    # at this fig2 corner (n_b ~ 5e-7) partial pivoting read 0.968 and
    # flagged the row unconverged
    spec = SweepSpec(axes=(("delta", (-14.0, 14.0)),), fixed=replace(WEAK, j=0.0))
    result = run_sweep(spec)
    np.testing.assert_allclose(result.columns["g2_zero"], 1.0, rtol=1e-12)
    assert result.columns["converged"].all()


def test_fig7_preset_shape():
    spec = figure_panels("fig7")["fig7"]
    assert spec.outputs == ("eta_phi_roots",)
    assert spec.axes[0][0] == "delta"
    assert spec.fixed.j == 3.0


def test_fig2_preset_symmetric_in_detuning():
    # thinned copy of the landscape preset: the zero-qubit-drive correlation
    # is even in the detuning
    spec = replace(
        figure_panels("fig2")["fig2"],
        axes=(("delta", (-3.0, -1.0, 1.0, 3.0)), ("j", (0.71, 5.0))),
    )
    result = run_sweep(spec)
    g2 = result.columns["g2_zero"].reshape(4, 2)
    assert np.allclose(g2[0], g2[3], atol=1e-6)
    assert np.allclose(g2[1], g2[2], atol=1e-6)


def test_fig11_preset_parameters():
    spec = figure_panels("fig11b")["fig11b"]
    assert isinstance(spec.fixed, DetectionParams)
    assert spec.fixed.g_om == pytest.approx(0.1)
    assert spec.fixed.gamma_cav == pytest.approx(10.0)
    assert spec.fixed.base.n_th == pytest.approx(1e-3)
    assert spec.fixed.base.eps == pytest.approx(0.2)
    assert spec.fixed.base.j == pytest.approx(3.0)
    assert spec.delta_opt == pytest.approx(3.0)
    assert set(spec.outputs) == {"g2a_zero", "g2_zero"}


@pytest.mark.parametrize(
    "fixed, cutoffs",
    [
        (WEAK, {"mech_cutoff": 0}),
        (DetectionParams(base=WEAK), {"mech_cutoff": 0}),
        (DetectionParams(base=WEAK), {"cavity_cutoff": 0}),
    ],
)
def test_zero_cutoff_rejected_on_construction(fixed, cutoffs):
    with pytest.raises(ParameterError, match="cutoff"):
        SweepSpec(axes=(("delta", (0.0,)),), fixed=fixed, **cutoffs)

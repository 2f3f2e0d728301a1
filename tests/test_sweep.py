"""Grid engine: ordering, determinism, failure markers, and presets."""

import importlib.util
import json
import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phonoblock import sweep
from phonoblock.analytics import optimal_drive_roots
from phonoblock.correlations import g2_zero
from phonoblock.errors import ParameterError, SweepError
from phonoblock.hilbert import expectation, lowering
from phonoblock.model import (DetectionParams, MqParams, model_space, three_mode_space,
                              two_mode_space)
from phonoblock.solver import liouvillian_basis
from phonoblock.sweep import (
    SweepSpec,
    figure_names,
    figure_panels,
    run_sweep,
    solve_point,
)
from oracle import model_steady_state, refined_dense_scalars

WEAK = MqParams(eps=0.01)
STUDY = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.json"


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
    with pytest.raises(ParameterError, match="at most 2 axes"):
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


@pytest.mark.parametrize(
    "outputs, task",
    [(("g2_zero", "n_b"), {}),
     (("g2_tau", "eta_phi_roots"),
      {"tau_max": 1.0, "tau_points": 3, "delta_opt": 3.0, "root_branch": "-"})],
)
def test_spec_without_axes_is_the_one_axis_row_at_its_point(outputs, task):
    fixed = MqParams(delta=0.1, j=3.0, eps=0.2)
    point = run_sweep(SweepSpec((), fixed, outputs, **task))
    row = run_sweep(SweepSpec((("delta", (0.1,)),), fixed, outputs, **task))
    assert point.n_rows == 1 and point.metadata["axes"] == []
    assert ["delta", *point.columns] == list(row.columns)
    for name, column in point.columns.items():
        np.testing.assert_array_equal(column, row.columns[name])


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
    spec = SweepSpec(
        axes=(("delta", (0.0,)),),
        fixed=replace(WEAK, j=1 / math.sqrt(2)),
        outputs=("g2_zero", "g2_tau"),
        tau_max=2.0,
        tau_points=3,
    )
    assert spec.tau_grid == (0.0, 1.0, 2.0)
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
    # p_2 = p_N: the tail is 1, so the row is re-solved
    result = run_sweep(spec)
    assert not result.columns["converged"][0]
    assert result.metadata["refined_rows"] == 1


def test_vacuum_row_re_solves():
    # no drive and no bath: p_2 = 0, so no tail is small and the row re-solves
    spec = SweepSpec(axes=(("delta", (0.0,)),), fixed=MqParams(eps=0.0, omega_drv=0.0, n_th=0.0),
                     outputs=("n_b",))
    result = run_sweep(spec)
    assert result.metadata["refined_rows"] == 1 and result.metadata["refine_s"] > 0.0
    assert result.columns["n_b"][0] == 0.0 and result.columns["converged"][0]


def test_metadata_contents(caplog):
    # weak drive at cutoff 8: the tail is about 1e-26, so neither row re-solves
    spec = SweepSpec(axes=(("delta", (0.0, 1.0)),), fixed=replace(WEAK, j=1.0))
    with caplog.at_level(logging.DEBUG, logger="phonoblock"):
        result = run_sweep(spec)
    [line] = [r.getMessage() for r in caplog.records if r.name == "phonoblock.sweep"]
    assert line.startswith("2 points: ") and line.endswith("s re-solves")
    assert ", 0 of them re-solved, " in line
    meta = result.metadata
    assert meta["rows"] == 2
    assert meta["model"] == "two_mode"
    assert meta["mech_cutoff"] == 8
    assert meta["axes"][0]["name"] == "delta"
    assert meta["max_steady_residual"] >= 0.0
    assert meta["fixed_params"]["j"] == 1.0
    assert meta["convergence_rtol"] == sweep.CONVERGENCE_RTOL
    assert meta["convergence_tail_rtol"] == sweep.CONVERGENCE_TAIL_RTOL
    assert meta["refined_rows"] == 0 and meta["refine_s"] == 0.0
    assert 0.0 < meta["steady_s"] <= meta["wall_time_s"]


def test_metadata_times_the_re_solves_it_runs():
    # the strong drive of the first row fills the top level; the weak second row skips
    spec = SweepSpec(axes=(("eps", (1.0, 0.01)),), fixed=MqParams(j=0.71), mech_cutoff=4)
    result = run_sweep(spec)
    meta = result.metadata
    assert meta["refined_rows"] == 1
    assert 0.0 < meta["steady_s"] and 0.0 < meta["refine_s"]
    assert meta["steady_s"] + meta["refine_s"] <= meta["wall_time_s"]


@pytest.mark.parametrize("mech_cutoff", [3, 4, 5, 6])
def test_converged_matches_an_independent_cutoff_plus_two_verdict(mech_cutoff):
    # fig6b's drive scan at lowered cutoffs holds rows the tail rule skips and
    # rows it re-solves; every flag must be the N versus N + 2 verdict
    preset = figure_panels("fig6b")["fig6b"]
    spec = replace(preset, axes=(("eps", preset.axes[0][1][::10]),), mech_cutoff=mech_cutoff)
    result = run_sweep(spec)
    outputs = ("g2_zero", "n_b")
    for i, eps in enumerate(result.columns["eps"]):
        params = spec.params_at({"eps": eps})
        low, high = (solve_point(params, two_mode_space(n), outputs)[0]
                     for n in (mech_cutoff, mech_cutoff + sweep.CUTOFF_INCREMENT))
        verdict = all(abs(high[k] - low[k]) < sweep.CONVERGENCE_RTOL * abs(low[k])
                      for k in outputs)
        assert result.columns["converged"][i] == verdict, (mech_cutoff, eps)
    # at cutoff 3 no tail is small; above it, the weakest drives skip
    refined = result.metadata["refined_rows"]
    assert 0 < refined and (refined < result.n_rows or mech_cutoff == 3)


def test_convergence_study_supports_the_tail_threshold():
    study = json.loads(STUDY.read_text())
    tau = sweep.CONVERGENCE_TAIL_RTOL
    assert study["convergence_tail_rtol"] == tau
    assert study["convergence_rtol"] == sweep.CONVERGENCE_RTOL
    solving = {name for name, spec in sweep._PRESETS.items() if spec.outputs != ("eta_phi_roots",)}
    tables = study["tables"]
    assert {t["preset"] for t in tables if t["default"]} == solving | {"criterion7"}
    assert {t["preset"] for t in tables if t["mech_cutoff"] == 3} == solving | {"criterion7"}
    for t in tables:
        # no row below the threshold is one the re-solve rejects
        if t["min_rejected_tail"] is not None:
            assert t["min_rejected_tail"] >= tau, t
        if t["max_skipped_change"] is not None:
            assert t["max_skipped_change"] < sweep.CONVERGENCE_RTOL, t
    rejected = [t["min_rejected_tail"] for t in tables if t["min_rejected_tail"] is not None]
    assert rejected and tau <= min(rejected) / 10
    assert study["summary"]["min_rejected_tail"] == min(rejected)


def test_convergence_study_script_reproduces_its_committed_tables(tmp_path):
    # the script imports private sweep names; a run on two small presets
    # guards it against their drift
    script = importlib.util.spec_from_file_location("convergence_study", STUDY.with_suffix(".py"))
    study = importlib.util.module_from_spec(script)
    script.loader.exec_module(study)
    out = tmp_path / "study.json"
    assert study.main(["--presets", "fig3f,fig9c_plus", "--out", str(out)]) == 0
    presets = ("fig3f", "fig9c_plus")
    committed = [t for t in json.loads(STUDY.read_text())["tables"] if t["preset"] in presets]
    assert len(committed) == 12
    assert json.loads(out.read_text())["tables"] == committed


def test_tables_depend_on_neither_cache_state_nor_point_order():
    # n_th = 0 drops the thermal channels' entries, so the grid has two
    # trace-row patterns, and each run meets their first points in its own order;
    # at cutoff 3 every row's Fock tail is above the skip threshold, so each
    # row also re-solves at cutoff 5
    fixed = MqParams(j=3.0, eps=0.2, omega_drv=0.1, phi=0.3)
    axes = (("n_th", (0.0, 0.01)), ("delta", (-1.0, 2.0)))
    outputs = ("g2_zero", "n_b", "converged")

    def by_point(axes):
        cols = run_sweep(SweepSpec(axes=axes, fixed=fixed, outputs=outputs[:2],
                                   mech_cutoff=3)).columns
        return {(cols["n_th"][i], cols["delta"][i]): tuple(cols[k][i].tobytes() for k in outputs)
                for i in range(len(cols["n_th"]))}

    liouvillian_basis.cache_clear()
    cold = by_point(axes)
    warm = by_point(axes)
    liouvillian_basis.cache_clear()
    reversed_cold = by_point(tuple((name, values[::-1]) for name, values in axes))
    assert len(cold) == 4
    assert cold == warm == reversed_cold


def test_three_mode_tables_depend_on_neither_cache_state_nor_point_order():
    # every three-mode point is solved by GMRES, which keeps no state between
    # points; n_th = 0 drops the thermal channels' entries, as above
    fixed = DetectionParams(base=MqParams(j=3.0, eps=0.2, omega_drv=0.1, phi=0.3),
                            g_om=0.5, gamma_cav=10.0)
    axes = (("n_th", (0.0, 0.01)), ("delta", (-1.0, 2.0)))
    outputs = ("g2a_zero", "g2_zero", "converged")

    def by_point(axes):
        cols = run_sweep(SweepSpec(axes=axes, fixed=fixed, outputs=outputs[:2],
                                   mech_cutoff=3, cavity_cutoff=2)).columns
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
                          fixed=MqParams(j=3.0, eps=0.2, omega_drv=0.1, phi=0.3), mech_cutoff=3)


def test_each_new_column_order_is_logged_once(caplog):
    def new_orders() -> int:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="phonoblock"):
            run_sweep(_TWO_PATTERNS)
        return sum(r.name == "phonoblock.solver" and r.getMessage().startswith("new column order")
                   for r in caplog.records)

    liouvillian_basis.cache_clear()
    assert new_orders() == 4  # 2 patterns x (cutoff 3, cutoff 5)
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
    # rows that skip the re-solve solve on the spec's space and build none
    skipping = replace(_TWO_PATTERNS, mech_cutoff=8)
    built = []
    monkeypatch.setattr(sweep, "model_space", lambda *args: built.append(args))
    assert run_sweep(skipping).metadata["refined_rows"] == 0
    assert built == [] and len(cached) == 6


def test_a_photon_tail_alone_sends_a_row_to_the_re_solve():
    # at cavity cutoff 2 the top photon level is the two-quantum one, so
    # tail_a = 1, while the weak drive leaves the phonon tail far below the threshold
    params = DetectionParams(base=MqParams(j=1.0, eps=0.05), g_om=0.5, gamma_cav=2.0)
    spec = SweepSpec(axes=(("delta", (0.0,)),), fixed=params, outputs=("g2_zero", "g2a_zero"),
                     mech_cutoff=4, cavity_cutoff=2)
    tails, _, _ = solve_point(params, spec.space, ("tail_m", "tail_a"))
    assert tails["tail_m"] < sweep.CONVERGENCE_TAIL_RTOL and tails["tail_a"] == 1.0
    result = run_sweep(spec)
    assert result.metadata["refined_rows"] == 1
    low, high = (solve_point(params, three_mode_space(2, n), spec.outputs)[0] for n in (4, 6))
    verdict = all(abs(high[k] - low[k]) < sweep.CONVERGENCE_RTOL * abs(low[k])
                  for k in spec.outputs)
    assert result.columns["converged"][0] == verdict


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


# each grid is a (tau_max, tau_points) pair: a zero tau_max repeats its delays, 2.5
# is no point count, and one point drops a nonzero tau_max
@pytest.mark.parametrize(
    "tau_grid",
    [(math.nan, 121), (math.inf, 121), (-1.0, 121), (1.0, 0), (0.0, 3), (1.0, 2.5), (5.0, 1)],
)
def test_bad_tau_grid_rejected_on_construction(tau_grid):
    tau_max, tau_points = tau_grid
    with pytest.raises(ParameterError, match="tau_grid"):
        SweepSpec(axes=(("delta", (0.0,)),), fixed=WEAK, outputs=("g2_tau",),
                  tau_max=tau_max, tau_points=tau_points)


def test_unused_spec_fields_resolve_to_none():
    # a delay grid without g2_tau, a branch without an optimum and a cavity
    # cutoff's default without a cavity are not part of the run
    spec = SweepSpec(axes=(("delta", (0.0,)),), fixed=WEAK, tau_max=1.0, tau_points=2,
                     root_branch="-")
    assert spec.tau_max is spec.tau_points is spec.tau_grid is None
    assert spec.root_branch is None and spec.cavity_cutoff is None
    assert spec.mech_cutoff == 8 and spec.space == two_mode_space(8)
    three_mode = SweepSpec(axes=(("delta", (0.0,)),), fixed=DetectionParams(base=WEAK))
    assert (three_mode.mech_cutoff, three_mode.cavity_cutoff) == (6, 3)
    assert three_mode.space == three_mode_space(3, 6)
    with pytest.raises(TypeError):
        SweepSpec(axes=(), fixed=WEAK, space=three_mode.space)
    for optimum in ({"delta_opt": 3.0}, {"axes": (("delta_opt", (3.0,)),)}):
        assert replace(spec, **optimum).root_branch == "+"
        assert replace(spec, **optimum, root_branch="-").root_branch == "-"


def test_g2_tau_spec_takes_the_default_delay_grid():
    spec = SweepSpec(axes=(("delta", (0.0,)),), fixed=WEAK, outputs=("g2_tau",))
    assert spec == SweepSpec(axes=(("delta", (0.0,)),), fixed=WEAK, outputs=("g2_tau",),
                             tau_max=sweep.DEFAULT_TAU_MAX, tau_points=sweep.DEFAULT_TAU_POINTS)
    assert spec.tau_grid == tuple(np.linspace(0.0, 3.0 * 2.0 * math.pi, 121))


@pytest.mark.parametrize("panel", [p for name in figure_names() for p in figure_panels(name)])
def test_preset_resolution_is_idempotent(panel):
    spec = figure_panels(panel)[panel]
    assert replace(spec) == spec


def test_solve_point_measures_the_named_modes():
    params = DetectionParams(base=MqParams(delta=3.0, j=3.0, eps=0.2), g_om=0.1)
    values, series, residual = solve_point(
        params, three_mode_space(2, 3), ("qubit_excitation", "g2a_zero", "n_a", "n_b", "g2_zero"),
        (0.0, 0.5)
    )
    space, _, rho = model_steady_state(params, 3, 2)
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
    # a name no table entry has, and the cavity scalars on a space without a cavity
    space = two_mode_space(4)
    for name in ("g2b_zero", "g2a_zero", "n_a", "tail_a"):
        with pytest.raises(ParameterError, match=re.escape(f"['{name}'] on {space!r}")):
            solve_point(MqParams(eps=0.1, j=1.0), space, (name,))


def _preset_point(name: str, index: int) -> tuple[MqParams, int | None]:
    """Params and mech cutoff of one point of a one-axis preset."""
    spec = figure_panels(name)[name]
    [(axis, values)] = spec.axes
    return spec.params_at({axis: values[index]}), spec.mech_cutoff


# the point of each preset where a COLAMD, partial-pivoting factorization
# lost most: 7.9e-6, 1.4e-5 and 2.3e-7 relative in g2
@pytest.mark.parametrize("preset, index", [("fig5d", 3), ("fig6b", 1), ("fig9c_minus", 0)])
def test_g2_matches_a_refined_dense_solve(preset, index):
    params, cutoff = _preset_point(preset, index)
    values, _, _ = solve_point(params, two_mode_space(cutoff), ("g2_zero",))
    expected = refined_dense_scalars(params, cutoff, None)["g2_zero"]
    assert values["g2_zero"] == pytest.approx(expected, rel=1e-12)


def _random_point(rng: np.random.Generator, three_mode: bool):
    """Params and cutoffs of a random point: drives, phase, thermal occupation
    and damping ratios drawn, at cutoffs small enough for a dense solve."""
    base = MqParams(delta=rng.uniform(-5.0, 5.0), j=rng.uniform(0.0, 5.0),
                    eps=rng.uniform(0.05, 1.0), omega_drv=rng.uniform(0.0, 1.0),
                    phi=rng.uniform(-math.pi, math.pi), gamma=rng.uniform(0.2, 5.0),
                    n_th=rng.uniform(0.0, 0.2))
    if not three_mode:
        return base, int(rng.integers(3, 7)), None
    params = DetectionParams(base=base, g_om=complex(*rng.uniform(-0.5, 0.5, 2)),
                             gamma_cav=rng.uniform(1.0, 20.0))
    return params, int(rng.integers(2, 4)), 2


@pytest.mark.parametrize("three_mode", [False, True], ids=["two_mode", "three_mode"])
def test_steady_state_matches_a_refined_dense_solve_at_random_points(three_mode):
    rng = np.random.default_rng(1)
    for _ in range(30):
        params, mech_cutoff, cavity_cutoff = _random_point(rng, three_mode)
        expected = refined_dense_scalars(params, mech_cutoff, cavity_cutoff)
        space = model_space(params, mech_cutoff, cavity_cutoff)
        values, _, _ = solve_point(params, space, tuple(expected))
        for name, value in expected.items():
            assert values[name] == pytest.approx(value, rel=1e-12, abs=0.0), (name, params)


def test_fig9c_minus_g2_does_not_move_with_the_cutoff():
    # a COLAMD, partial-pivoting factorization read 0.06956695975 at cutoff 8
    # and 0.06956685219 at cutoff 16: LU error, not truncation
    params, _ = _preset_point("fig9c_minus", 0)
    g2_8, g2_16 = (solve_point(params, two_mode_space(cutoff), ("g2_zero",))[0]["g2_zero"]
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

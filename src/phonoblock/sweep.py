"""Parameter-grid execution engine and named presets for figure data.

A :class:`SweepSpec` names zero to two axes over fields of the baseline
parameters, the outputs to evaluate, and the run's one-value settings, which
it resolves on construction with the run's Hilbert space; a spec with no axes
is one point, the run of a CLI point command. Grid points are independent and
are evaluated one after another in row-major axis order, so identical specs
produce identical tables. :meth:`SweepSpec.params_at` gives the params of a
point and :func:`solve_point` builds, solves and measures it on the spec's
space, for sweep rows and point commands alike.

A row is flagged converged when its truncation cannot matter. The reported
solve also measures the relative Fock tail |p_N| / p_2 of each truncated
boson mode of the run's space. When every tail is below
``CONVERGENCE_TAIL_RTOL`` the row is converged as it stands; otherwise it is
re-solved at mechanical cutoff + 2, the cavity cutoff kept, and flagged
converged only when its scalars change by less than 0.5%. The threshold is
ten times below the smallest tail of any row the re-solve rejects in
``scripts/convergence_study.json``.

Drives realizing an interference optimum are derived per point when
``delta_opt`` is set (either as a spec field or as the pseudo-axis
``"delta_opt"``): the qubit drive amplitude and phase then follow the chosen
root of the optimum quadratic evaluated at the point's own coupling, damping
rates, and mechanical drive.

Failed grid points are recorded with an error marker and do not abort the
sweep.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .analytics import OptimalRoots, optimal_drive_roots, with_two_drive_optimum
from .correlations import g2_tau, g2_zero, mean_occupation, relative_tail
from .errors import ParameterError, PhonoblockError, SweepError
from .hilbert import HilbertSpace
from .model import (
    DetectionParams,
    MqParams,
    flat_params,
    model_cutoffs,
    model_space,
    with_flat_updates,
)
from .solver import assemble, liouvillian_basis, steady_state, steady_state_residual

log = logging.getLogger(__name__)

CONVERGENCE_RTOL = 5e-3
CUTOFF_INCREMENT = 2
# a row whose every truncated mode has |p_N| / p_2 below this skips the re-solve;
# scripts/convergence_study.py measures the margin
CONVERGENCE_TAIL_RTOL = 1e-4

SCALAR_OUTPUTS = ("g2_zero", "n_b", "g2a_zero")
ALL_OUTPUTS = SCALAR_OUTPUTS + ("g2_tau", "eta_phi_roots")

# default delay grid of g2_tau outputs and of the g2tau command: three phonon lifetimes
DEFAULT_TAU_MAX = 3.0 * 2.0 * math.pi
DEFAULT_TAU_POINTS = 121


def delay_grid(tau_max: float, tau_points: int) -> tuple[float, ...]:
    """linspace(0, tau_max, tau_points), checked first to be finite and ascending,
    with tau_max = 0 exactly when there is one point."""
    if (not isinstance(tau_points, (int, np.integer)) or tau_points < 1
            or not 0 <= tau_max < math.inf or (tau_max == 0) != (tau_points == 1)):
        raise ParameterError(f"tau_grid needs an integer tau_points (--tau-points) >= 1 and a "
                             f"finite tau_max (--tau-max) > 0 (0 for one point), got "
                             f"{tau_points} and {tau_max}")
    return tuple(np.linspace(0.0, tau_max, tau_points).tolist())


# scalar name -> (observable, mode label). Observables are looked up by name
# when a point is measured, so wrappers set on this module see every call.
_SCALARS = {
    "g2_zero": ("g2_zero", "m"),
    "n_b": ("mean_occupation", "m"),
    "g2a_zero": ("g2_zero", "a"),
    "n_a": ("mean_occupation", "a"),
    "qubit_excitation": ("mean_occupation", "q"),
    "tail_m": ("relative_tail", "m"),
    "tail_a": ("relative_tail", "a"),
}


def _require_measurable(scalars: Sequence[str], space: HilbertSpace) -> None:
    """Raise ParameterError unless each name is a scalar whose mode is a factor of ``space``."""
    valid = [name for name, (_, label) in _SCALARS.items() if label in space.labels]
    if unknown := [name for name in scalars if name not in valid]:
        raise ParameterError(f"cannot measure {unknown} on {space!r} (its scalars: {valid})")


@dataclass(frozen=True)
class SweepSpec:
    """Grid job description, its run resolved on construction.

    ``axes`` holds zero to two (field name, values) pairs, and a spec with no
    axes is one point; names must be fields of the baseline parameter type,
    except for the derived pseudo-axis ``"delta_opt"``. Outputs must be
    distinct. Each one-value field holds what the run uses, and ``None``
    where it uses nothing: the cutoffs default to the model's (no
    ``cavity_cutoff`` on the two-mode model), ``tau_max`` and ``tau_points``
    to the default delay grid ``tau_grid`` with a ``g2_tau`` output, and
    ``root_branch`` to ``"+"`` when an optimum is used (``delta_opt`` as a
    field or an axis), and ``space`` to the model's space at those cutoffs.
    A bad cutoff, delay grid, branch or ``delta_opt``, an output whose mode
    the space lacks, or, with an optimum, which sets the qubit drive, a
    nonzero ``omega_drv`` or ``phi`` or an axis over either, is rejected.
    """

    axes: tuple[tuple[str, tuple[float, ...]], ...]
    fixed: MqParams | DetectionParams
    outputs: tuple[str, ...] = ("g2_zero",)
    mech_cutoff: int | None = None
    cavity_cutoff: int | None = None
    tau_max: float | None = None
    tau_points: int | None = None
    delta_opt: float | None = None
    root_branch: str | None = None
    tau_grid: tuple[float, ...] | None = field(init=False)
    space: HilbertSpace = field(init=False)

    def __post_init__(self) -> None:
        axes = tuple((str(n), tuple(float(v) for v in vals)) for n, vals in self.axes)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(axes) > 2:
            raise ParameterError(f"need at most 2 axes, got {len(axes)}")
        flat = flat_params(self.fixed)
        valid = set(flat) | {"delta_opt"}
        for name, values in axes:
            if name not in valid:
                raise ParameterError(
                    f"axis {name!r} is not a parameter field (valid: {sorted(valid)})"
                )
            if not values:
                raise ParameterError(f"axis {name!r} has no values")
            if not all(math.isfinite(v) for v in values):
                raise ParameterError(f"axis {name!r} contains non-finite values")
        if len({n for n, _ in axes}) != len(axes):
            raise ParameterError("axis names must be distinct")
        for out in self.outputs:
            if out not in ALL_OUTPUTS:
                raise ParameterError(f"unknown output {out!r} (valid: {ALL_OUTPUTS})")
        if not self.outputs:
            raise ParameterError("at least one output is required")
        if len(set(self.outputs)) != len(self.outputs):
            raise ParameterError(f"outputs must be distinct, got {self.outputs}")
        if self.root_branch not in (None, "+", "-"):
            raise ParameterError(f"root_branch must be '+' or '-', got {self.root_branch!r}")
        if self.delta_opt is not None and any(n == "delta_opt" for n, _ in axes):
            raise ParameterError("delta_opt given both as a field and as an axis")
        if self.delta_opt is not None and not math.isfinite(self.delta_opt):
            raise ParameterError(f"delta_opt must be finite, got {self.delta_opt}")
        optimum = self.delta_opt is not None or any(n == "delta_opt" for n, _ in axes)
        if optimum and (given := [name for name in ("omega_drv", "phi")
                                  if flat[name] != 0 or name in dict(axes)]):
            raise ParameterError(f"delta_opt sets the qubit drive, so {' and '.join(given)} "
                                 f"can be neither nonzero nor an axis")
        mech, cavity = model_cutoffs(self.fixed, self.mech_cutoff, self.cavity_cutoff)
        space = model_space(self.fixed, mech, cavity)
        _require_measurable([out for out in self.outputs if out in SCALAR_OUTPUTS], space)
        tau_max = tau_points = grid = None
        if "g2_tau" in self.outputs:
            tau_max = DEFAULT_TAU_MAX if self.tau_max is None else float(self.tau_max)
            tau_points = DEFAULT_TAU_POINTS if self.tau_points is None else self.tau_points
            grid = delay_grid(tau_max, tau_points)
        resolved = dict(mech_cutoff=mech, cavity_cutoff=cavity, space=space, tau_max=tau_max,
                        tau_points=tau_points, tau_grid=grid,
                        root_branch=(self.root_branch or "+") if optimum else None)
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(vals) for _, vals in self.axes)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def params_at(self, point: Mapping[str, float]) -> MqParams | DetectionParams:
        """The params of a grid point, keyed by axis name: its values on
        ``fixed``, then, when an optimum is used, the qubit drive of the
        interference optimum at the point's ``delta_opt`` or the spec's."""
        updates = {name: value for name, value in point.items() if name != "delta_opt"}
        params = with_flat_updates(self.fixed, updates)
        delta_opt = point.get("delta_opt", self.delta_opt)
        if delta_opt is None:
            return params
        return with_two_drive_optimum(params, delta_opt, self.root_branch)


@dataclass
class SweepResult:
    """Tabular sweep output: named columns, in the order of the CSV columns,
    plus run metadata."""

    columns: dict[str, np.ndarray]
    metadata: dict

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))


def solve_point(
    params: MqParams | DetectionParams,
    space: HilbertSpace,
    scalars: Sequence[str],
    tau_grid: Sequence[float] | None = None,
) -> tuple[dict[str, float], list[float] | None, float]:
    """Build, solve and measure one point on ``space``, for every sweep row and point command.

    ``scalars`` names steady-state observables, measured in this order:
    ``g2_zero``, ``n_b``, ``g2a_zero`` (photon g2), ``n_a``,
    ``qubit_excitation``, and the relative Fock tails ``tail_m`` and
    ``tail_a`` (see :func:`relative_tail`). A scalar whose mode is not a
    factor of ``space`` raises. Returns the scalars, the NAMR g2(tau) series
    on ``tau_grid`` (``None`` without a grid) and the steady residual.
    """
    _require_measurable(scalars, space)
    wanted = {name: entry for name, entry in _SCALARS.items() if name in scalars}
    liou = assemble(params, space)
    rho = steady_state(liou)
    observables = {"g2_zero": g2_zero, "mean_occupation": mean_occupation,
                   "relative_tail": relative_tail}
    ops = liouvillian_basis(space).lowering_ops
    values = {name: observables[obs](rho, ops[label]) for name, (obs, label) in wanted.items()}
    series = None
    if tau_grid is not None:
        series = [value for _, value in g2_tau(liou, rho, ops["m"], tau_grid)]
    return values, series, steady_state_residual(liou, rho)


def _timed(stats: dict[str, float], stage: str, *solve_args):
    """solve_point(*solve_args), its time added to ``stats[stage]`` even when it raises."""
    start = time.perf_counter()
    try:
        return solve_point(*solve_args)
    finally:
        stats[stage] += time.perf_counter() - start


def _evaluate_point(
    spec: SweepSpec,
    point: Mapping[str, float],
    stats: dict[str, float],
) -> tuple[dict[str, float], float, str | None]:
    """Returns (cells, residual, error): the row's cells by column name, its
    steady residual and, for a failed point, the error, in which case the
    cells are its axis values alone. The time of the reported solve and of
    any re-solve is added to ``stats`` under ``steady_s`` and ``refine_s``,
    and a re-solve counts one in ``refined_rows``."""
    cells: dict[str, float] = dict(point)
    try:
        params = spec.params_at(point)
        if "eta_phi_roots" in spec.outputs:
            p = flat_params(params)
            cells.update(asdict(optimal_drive_roots(p["delta"], p["j"], p["kappa"], p["gamma"])))
        solve_wanted = [o for o in spec.outputs if o in SCALAR_OUTPUTS]
        if not solve_wanted and spec.tau_grid is None:
            return {**cells, "converged": True}, 0.0, None
        # convergence proxy when only a tau series was requested
        check_outputs = solve_wanted if solve_wanted else ["g2_zero"]
        tails = [f"tail_{f.label}" for f in spec.space.factors if f.kind == "boson"]
        scalars, series, residual = _timed(stats, "steady_s", params, spec.space,
                                           check_outputs + tails, spec.tau_grid)
        # tails this small cannot move the checked values: no re-solve
        converged = all(scalars[k] < CONVERGENCE_TAIL_RTOL for k in tails)
        if not converged:
            stats["refined_rows"] += 1
            deeper = model_space(params, spec.mech_cutoff + CUTOFF_INCREMENT, spec.cavity_cutoff)
            refined, _, _ = _timed(stats, "refine_s", params, deeper, check_outputs)
            converged = all(_rel_change(scalars[k], refined[k]) < CONVERGENCE_RTOL
                            for k in check_outputs)
    except PhonoblockError as exc:
        return dict(point), math.nan, f"{type(exc).__name__}: {exc}"
    cells.update((k, v) for k, v in scalars.items() if k in spec.outputs)
    cells.update((f"g2_tau_{k:03d}", v) for k, v in enumerate(series or ()))
    cells["converged"] = converged
    return cells, residual, None


def _rel_change(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(b - a) / max(abs(a), 1e-300)


def _empty_columns(spec: SweepSpec, n: int) -> dict[str, np.ndarray]:
    """The table's n-row columns in CSV order, ``converged`` last: NaN, and
    False for ``converged``, until a row writes its cells."""
    names = [name for name, _ in spec.axes]
    for out in spec.outputs:
        if out == "eta_phi_roots":
            names += [f.name for f in fields(OptimalRoots)]
        elif out == "g2_tau":
            names += [f"g2_tau_{k:03d}" for k in range(len(spec.tau_grid))]
        else:
            names.append(out)
    columns = {name: np.full(n, np.nan) for name in names}
    columns["converged"] = np.zeros(n, dtype=bool)
    return columns


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute a sweep point by point; rows follow row-major axis order, and
    each row writes its cells as soon as it is evaluated.

    Raises
    ------
    SweepError
        If every grid point failed.
    """
    start = time.perf_counter()
    axis_names = [name for name, _ in spec.axes]
    points = [dict(zip(axis_names, combo))
              for combo in itertools.product(*(vals for _, vals in spec.axes))]
    stats = {"steady_s": 0.0, "refine_s": 0.0, "refined_rows": 0}
    n = len(points)
    columns = _empty_columns(spec, n)
    failures: list[tuple[int, str]] = []
    max_residual = 0.0
    for i, point in enumerate(points):
        cells, residual, error = _evaluate_point(spec, point, stats)
        for name, value in cells.items():
            columns[name][i] = value
        if error is not None:
            failures.append((i, error))
        elif math.isfinite(residual):
            max_residual = max(max_residual, residual)
    log.debug("%d points: %.3fs reported solves, %d of them re-solved, %.3fs re-solves",
              n, stats["steady_s"], stats["refined_rows"], stats["refine_s"])
    if len(failures) == n:
        raise SweepError(
            f"all {n} grid points failed; first error: {failures[0][1]}"
        )

    metadata = {
        "fixed_params": flat_params(spec.fixed),
        "model": "two_mode" if spec.cavity_cutoff is None else "three_mode",
        "axes": [
            {"name": name, "n": len(vals), "min": min(vals), "max": max(vals)}
            for name, vals in spec.axes
        ],
        "outputs": list(spec.outputs),
        "mech_cutoff": spec.mech_cutoff,
        "cavity_cutoff": spec.cavity_cutoff,
        "convergence_cutoff_increment": CUTOFF_INCREMENT,
        "convergence_rtol": CONVERGENCE_RTOL,
        "convergence_tail_rtol": CONVERGENCE_TAIL_RTOL,
        "tau_grid": list(spec.tau_grid) if spec.tau_grid else None,
        "delta_opt": spec.delta_opt,
        "root_branch": spec.root_branch,
        "rows": n,
        "failures": failures,
        "max_steady_residual": max_residual,
        **stats,
        "wall_time_s": time.perf_counter() - start,
    }
    return SweepResult(columns=columns, metadata=metadata)


# ---------------------------------------------------------------------------
# Figure presets
#
# Fixed parameters follow the source figure captions; grid extents and trace
# values that the captions leave unstated were chosen to cover the visible
# plot windows and are documented inline. Damping rates are gamma = kappa = 1
# unless a preset says otherwise; drives and detunings are in units of kappa.
# ---------------------------------------------------------------------------

_WEAK = dict(eps=0.01, omega_drv=0.0, phi=0.0, kappa=1.0, gamma=1.0, n_th=0.0)


def _lin(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(np.linspace(lo, hi, n))


def _log(lo_exp: float, hi_exp: float, n: int) -> tuple[float, ...]:
    return tuple(np.logspace(lo_exp, hi_exp, n))


def _presets() -> dict[str, SweepSpec]:
    p: dict[str, SweepSpec] = {}
    # Blockade landscape over detuning and coupling; weak mechanical drive.
    p["fig2"] = SweepSpec(
        axes=(("delta", _lin(-15, 15, 61)), ("j", _lin(0, 15, 61))),
        fixed=MqParams(**_WEAK),
    )
    # Detuning scans at strong (a) and moderate-to-weak (b) coupling; the
    # 0.71 trace is the rounded interference optimum.
    p["fig3a"] = SweepSpec(
        axes=(("j", (5.0, 10.0, 15.0)), ("delta", _lin(-20, 20, 161))),
        fixed=MqParams(**_WEAK),
    )
    p["fig3b"] = SweepSpec(
        axes=(("j", (0.5, 0.71, 0.8)), ("delta", _lin(-0.5, 0.5, 201))),
        fixed=MqParams(**_WEAK),
    )
    p["fig3c"] = SweepSpec(
        axes=(("delta", (5.0, 10.0, 15.0)), ("j", _lin(0, 20, 161))),
        fixed=MqParams(**_WEAK),
    )
    p["fig3d"] = SweepSpec(
        axes=(("delta", (0.0, 0.1, 0.2)), ("j", _lin(0, 2, 201))),
        fixed=MqParams(**_WEAK),
    )
    # Delayed correlations on three phonon lifetimes.
    p["fig3e"] = SweepSpec(
        axes=(("delta", (10.0, 9.2, 11.0)),),
        fixed=MqParams(j=10.0, **_WEAK),
        outputs=("g2_tau",),
    )
    p["fig3f"] = SweepSpec(
        axes=(("delta", (0.0, 0.1, 0.2)),),
        fixed=MqParams(j=0.71, **_WEAK),
        outputs=("g2_tau",),
    )
    # Damping-ratio dependence at strong coupling (a, c) and at zero
    # detuning (b, d); gamma traces follow the caption and override the
    # baseline value, as axis values always do.
    p["fig4a"] = SweepSpec(
        axes=(("gamma", _lin(0.2, 5, 61)), ("j", _lin(0, 15, 61))),
        fixed=MqParams(delta=10.0, **_WEAK),
    )
    p["fig4b"] = SweepSpec(
        axes=(("gamma", _lin(0.2, 5, 61)), ("j", _lin(0.2, 2, 61))),
        fixed=MqParams(delta=0.0, **_WEAK),
    )
    p["fig4c"] = SweepSpec(
        axes=(("gamma", (0.2, 1.0, 5.0)), ("j", _lin(0, 15, 161))),
        fixed=MqParams(delta=10.0, **_WEAK),
    )
    p["fig4d"] = SweepSpec(
        axes=(("gamma", (0.2, 1.0, 5.0)), ("j", _lin(0.2, 2, 201))),
        fixed=MqParams(delta=0.0, **_WEAK),
    )
    # Thermal fragility; decade traces chosen around the occupations where
    # each blockade disappears.
    p["fig5a"] = SweepSpec(
        axes=(("n_th", (0.0, 1e-5, 1e-4, 1e-3)), ("delta", _lin(-15, 15, 201))),
        fixed=MqParams(j=10.0, **_WEAK),
    )
    p["fig5b"] = SweepSpec(
        axes=(("n_th", (0.0, 1e-6, 1e-5, 1e-4)), ("delta", _lin(-0.5, 0.5, 201))),
        fixed=MqParams(j=0.71, **_WEAK),
    )
    p["fig5c"] = SweepSpec(
        axes=(("n_th", _log(-7, -2, 61)),),
        fixed=MqParams(delta=10.0, j=10.0, **_WEAK),
    )
    p["fig5d"] = SweepSpec(
        axes=(("n_th", _log(-7, -2, 61)),),
        fixed=MqParams(delta=0.0, j=0.71, **_WEAK),
    )
    # Drive-strength scans; occupations grow with the drive, so the
    # truncation is raised.
    p["fig6a"] = SweepSpec(
        axes=(("eps", _log(-2, 0, 61)),),
        fixed=MqParams(delta=10.0, j=10.0, **_WEAK),
        outputs=("g2_zero", "n_b"),
        mech_cutoff=16,
    )
    p["fig6b"] = SweepSpec(
        axes=(("eps", _log(-2, 0, 61)),),
        fixed=MqParams(delta=0.0, j=0.71, **_WEAK),
        outputs=("g2_zero", "n_b"),
        mech_cutoff=16,
    )
    p["fig6c"] = SweepSpec(
        axes=(("n_th", (0.0, 1e-5, 1e-4, 1e-3)), ("eps", _log(-2, 0, 41))),
        fixed=MqParams(delta=10.0, j=10.0, **_WEAK),
        mech_cutoff=16,
    )
    p["fig6d"] = SweepSpec(
        axes=(("n_th", (0.0, 1e-6, 1e-5, 1e-4)), ("eps", _log(-2, 0, 41))),
        fixed=MqParams(delta=0.0, j=0.71, **_WEAK),
        mech_cutoff=16,
    )
    # Optimum-root landscape: the detuning axis is read as the target
    # detuning of the interference optimum.
    p["fig7"] = SweepSpec(
        axes=(("delta", _lin(-6, 6, 241)),),
        fixed=MqParams(j=3.0, kappa=1.0, gamma=1.0),
        outputs=("eta_phi_roots",),
    )
    # Two-drive blockade maps for both roots.
    two_drive = MqParams(j=3.0, eps=0.2, kappa=1.0, gamma=1.0, n_th=0.0)
    p["fig8a"] = SweepSpec(
        axes=(("delta_opt", _lin(-6, 6, 61)), ("delta", _lin(-6, 6, 61))),
        fixed=two_drive,
        root_branch="+",
    )
    p["fig8b"] = SweepSpec(
        axes=(("delta_opt", _lin(-6, 6, 61)), ("delta", _lin(-6, 6, 61))),
        fixed=two_drive,
        root_branch="-",
    )
    # Snapshots along delta_opt = +/- j for both roots, with occupations.
    for panel, dopt in (("fig9a", 3.0), ("fig9d", -3.0)):
        for suffix, branch in (("_plus", "+"), ("_minus", "-")):
            p[panel + suffix] = SweepSpec(
                axes=(("delta", _lin(-9, 9, 181)),),
                fixed=two_drive,
                outputs=("g2_zero", "n_b"),
                delta_opt=dopt,
                root_branch=branch,
            )
    for panel, dopt in (("fig9c", 3.0), ("fig9f", -3.0)):
        for suffix, branch in (("_plus", "+"), ("_minus", "-")):
            p[panel + suffix] = SweepSpec(
                axes=(("delta", (dopt,)),),
                fixed=two_drive,
                outputs=("g2_tau",),
                delta_opt=dopt,
                root_branch=branch,
            )
    # Robustness of the combined blockade against drive strength and
    # thermal occupation.
    p["fig10a"] = SweepSpec(
        axes=(("n_th", (0.0, 0.01, 0.06)), ("eps", _lin(0.05, 0.8, 76))),
        fixed=MqParams(delta=3.0, j=3.0, kappa=1.0, gamma=1.0),
        delta_opt=3.0,
        mech_cutoff=16,
    )
    p["fig10b"] = SweepSpec(
        axes=(("eps", (0.1, 0.2, 0.4)), ("n_th", _log(-4, -0.5, 61))),
        fixed=MqParams(delta=3.0, j=3.0, kappa=1.0, gamma=1.0),
        delta_opt=3.0,
        mech_cutoff=16,
    )
    # Optomechanical readout: phonon statistics with and without the cavity
    # (a), photon versus phonon statistics (b), and departures from
    # adiabaticity with coupling (c) and cavity damping (d).
    detect_base = MqParams(j=3.0, eps=0.2, kappa=1.0, gamma=1.0, n_th=1e-3)
    detect = DetectionParams(base=detect_base, g_om=0.1, gamma_cav=10.0)
    p["fig11a"] = SweepSpec(
        axes=(("delta", _lin(-9, 9, 61)),),
        fixed=detect,
        outputs=("g2_zero",),
        delta_opt=3.0,
    )
    p["fig11a_mq"] = SweepSpec(
        axes=(("delta", _lin(-9, 9, 61)),),
        fixed=detect_base,
        outputs=("g2_zero",),
        delta_opt=3.0,
    )
    p["fig11b"] = SweepSpec(
        axes=(("delta", _lin(-9, 9, 61)),),
        fixed=detect,
        outputs=("g2a_zero", "g2_zero"),
        delta_opt=3.0,
    )
    p["fig11c"] = SweepSpec(
        axes=(("g_om", _log(-2, 1, 41)),),
        fixed=replace(detect, base=replace(detect_base, delta=3.0)),
        outputs=("g2a_zero", "g2_zero"),
        delta_opt=3.0,
    )
    p["fig11d"] = SweepSpec(
        axes=(("gamma_cav", _log(0, 2, 41)),),
        fixed=replace(detect, base=replace(detect_base, delta=3.0)),
        outputs=("g2a_zero", "g2_zero"),
        delta_opt=3.0,
    )
    return p


_PRESETS = _presets()


def figure_names() -> list[str]:
    """The figures of the panels: each panel name's ``fig<number>`` prefix, sorted."""
    return sorted({re.match(r"fig\d+", name)[0] for name in _PRESETS})


def figure_panels(name: str) -> dict[str, SweepSpec]:
    """Panel specs of one figure (``fig3``), one sub-figure (``fig9c``) or one panel.

    A name other than a panel matches the panels it prefixes where the next
    character is not a digit, so ``fig1`` does not select ``fig10a``.
    """
    key = name.strip().lower()
    if key in _PRESETS:
        return {key: _PRESETS[key]}
    panels = {k: v for k, v in sorted(_PRESETS.items())
              if k.startswith(key) and not k[len(key):len(key) + 1].isdigit()}
    if not panels or not key.startswith(tuple(figure_names())):
        raise ParameterError(
            f"unknown figure {name!r}; choose from {figure_names()}, a panel name "
            "or a panel-name prefix such as fig9c"
        )
    return panels

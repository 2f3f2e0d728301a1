"""Parameter-grid execution engine and named presets for figure data.

A :class:`SweepSpec` names one or two axes over fields of the baseline
parameters, the outputs to evaluate, and optional truncation overrides. Grid
points are independent and are evaluated one after another in row-major axis
order, so identical specs produce identical tables. :func:`solve_point` is the
one place that builds, solves and measures a point, for sweep rows and the CLI
point commands alike. Each row is re-solved with the mechanical cutoff raised
by two and flagged converged only when its scalars change by less than 0.5%.

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
from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .analytics import OptimalRoots, optimal_drive_roots
from .correlations import g2_tau, g2_zero, mean_occupation
from .errors import ParameterError, PhonoblockError, SweepError
from .model import (
    DetectionParams,
    MqParams,
    flat_params,
    model_cutoffs,
    model_space,
    resolve_params,
)
from .solver import assemble, liouvillian_basis, steady_state, steady_state_residual

log = logging.getLogger(__name__)

CONVERGENCE_RTOL = 5e-3
CUTOFF_INCREMENT = 2

SCALAR_OUTPUTS = ("g2_zero", "n_b", "g2a_zero")
ALL_OUTPUTS = SCALAR_OUTPUTS + ("g2_tau", "eta_phi_roots")


@dataclass(frozen=True)
class SweepSpec:
    """Grid job description.

    ``axes`` holds one or two (field name, values) pairs; names must be
    fields of the baseline parameter type, except for the derived pseudo-axis
    ``"delta_opt"``. Outputs must be distinct. ``mech_cutoff`` and
    ``cavity_cutoff`` override the default truncations; a cutoff below 2, a
    ``cavity_cutoff`` with a two-mode baseline, or a non-finite ``delta_opt``
    is rejected on construction.
    """

    axes: tuple[tuple[str, tuple[float, ...]], ...]
    fixed: MqParams | DetectionParams
    outputs: tuple[str, ...] = ("g2_zero",)
    tau_grid: tuple[float, ...] | None = None
    mech_cutoff: int | None = None
    cavity_cutoff: int | None = None
    delta_opt: float | None = None
    root_branch: str = "+"

    def __post_init__(self) -> None:
        axes = tuple((str(n), tuple(float(v) for v in vals)) for n, vals in self.axes)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.tau_grid is not None:
            object.__setattr__(self, "tau_grid", tuple(float(t) for t in self.tau_grid))
        if not 1 <= len(axes) <= 2:
            raise ParameterError(f"need 1 or 2 axes, got {len(axes)}")
        valid = set(flat_params(self.fixed)) | {"delta_opt"}
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
        if "g2a_zero" in self.outputs and not isinstance(self.fixed, DetectionParams):
            raise ParameterError("g2a_zero needs a DetectionParams baseline")
        grid = self.tau_grid
        if ("g2_tau" in self.outputs) != (grid is not None):
            raise ParameterError("tau_grid must be given exactly when g2_tau is an output")
        if grid is not None and not (grid and all(0 <= t < math.inf for t in grid)
                                     and all(a < b for a, b in zip(grid, grid[1:]))):
            raise ParameterError("tau_grid must be non-empty, finite, ascending and non-negative")
        if self.root_branch not in ("+", "-"):
            raise ParameterError(f"root_branch must be '+' or '-', got {self.root_branch!r}")
        if self.delta_opt is not None and any(n == "delta_opt" for n, _ in axes):
            raise ParameterError("delta_opt given both as a field and as an axis")
        if self.delta_opt is not None and not math.isfinite(self.delta_opt):
            raise ParameterError(f"delta_opt must be finite, got {self.delta_opt}")
        model_space(self.fixed, self.mech_cutoff, self.cavity_cutoff)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(vals) for _, vals in self.axes)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))


@dataclass
class SweepResult:
    """Tabular sweep output: named columns, in the order of the CSV columns,
    plus run metadata."""

    columns: dict[str, np.ndarray]
    metadata: dict

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))


# scalar name -> (observable, mode label). Observables are looked up by name
# when a point is measured, so wrappers set on this module see every call.
_SCALARS = {
    "g2_zero": ("g2_zero", "m"),
    "n_b": ("mean_occupation", "m"),
    "g2a_zero": ("g2_zero", "a"),
    "n_a": ("mean_occupation", "a"),
    "qubit_excitation": ("mean_occupation", "q"),
}


def solve_point(
    params: MqParams | DetectionParams,
    mech_cutoff: int | None,
    cavity_cutoff: int | None,
    scalars: Sequence[str],
    tau_grid: Sequence[float] | None = None,
) -> tuple[dict[str, float], list[float] | None, float]:
    """Build, solve and measure one point; every sweep row and point command runs here.

    ``scalars`` names steady-state observables, measured in this order:
    ``g2_zero``, ``n_b``, ``g2a_zero`` (photon g2), ``n_a`` and
    ``qubit_excitation``. A ``None`` cutoff takes the model default. Returns
    the scalars, the NAMR g2(tau) series on ``tau_grid`` (``None`` without a
    grid) and the steady residual.
    """
    if not set(scalars) <= set(_SCALARS):
        raise ParameterError(f"unknown scalars in {list(scalars)} (valid: {list(_SCALARS)})")
    wanted = {name: entry for name, entry in _SCALARS.items() if name in scalars}
    space = model_space(params, mech_cutoff, cavity_cutoff)
    liou = assemble(params, space)
    rho = steady_state(liou)
    observables = {"g2_zero": g2_zero, "mean_occupation": mean_occupation}
    ops = liouvillian_basis(space).lowering_ops
    values = {name: observables[obs](rho, ops[label]) for name, (obs, label) in wanted.items()}
    series = None
    if tau_grid is not None:
        series = [value for _, value in g2_tau(liou, rho, ops["m"], tau_grid)]
    return values, series, steady_state_residual(liou, rho)


def _timed(seconds: dict[str, float], stage: str, *solve_args):
    """solve_point(*solve_args), its time added to ``seconds[stage]`` even when it raises."""
    start = time.perf_counter()
    try:
        return solve_point(*solve_args)
    finally:
        seconds[stage] += time.perf_counter() - start


def _evaluate_point(
    spec: SweepSpec,
    point: Mapping[str, float],
    mech: int,
    cavity: int | None,
    seconds: dict[str, float],
) -> tuple[dict[str, float], float, str | None]:
    """Returns (cells, residual, error): the row's cells by column name, its
    steady residual and, for a failed point, the error, in which case the
    cells are its axis values alone. The time of the reported solve and of
    the re-solve is added to ``seconds`` under ``steady_s`` and ``refine_s``."""
    cells: dict[str, float] = dict(point)
    try:
        updates = {name: value for name, value in point.items() if name != "delta_opt"}
        params = resolve_params(spec.fixed, updates, point.get("delta_opt", spec.delta_opt),
                                spec.root_branch)
        if "eta_phi_roots" in spec.outputs:
            base = params.base if isinstance(params, DetectionParams) else params
            cells.update(asdict(optimal_drive_roots(base.delta, base.j, base.kappa, base.gamma)))
        solve_wanted = [o for o in spec.outputs if o in SCALAR_OUTPUTS]
        if not solve_wanted and spec.tau_grid is None:
            return {**cells, "converged": True}, 0.0, None
        # convergence proxy when only a tau series was requested
        check_outputs = solve_wanted if solve_wanted else ["g2_zero"]
        scalars, series, residual = _timed(seconds, "steady_s", params, mech, cavity,
                                           check_outputs, spec.tau_grid)
        refined, _, _ = _timed(seconds, "refine_s", params, mech + CUTOFF_INCREMENT, cavity,
                               check_outputs)
    except PhonoblockError as exc:
        return dict(point), math.nan, f"{type(exc).__name__}: {exc}"
    cells.update((k, v) for k, v in scalars.items() if k in spec.outputs)
    cells.update((f"g2_tau_{k:03d}", v) for k, v in enumerate(series or ()))
    cells["converged"] = all(
        _rel_change(scalars[k], refined[k]) < CONVERGENCE_RTOL for k in check_outputs
    )
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
    # cutoffs with their defaults applied, for every point and for the metadata
    mech, cavity = model_cutoffs(spec.fixed, spec.mech_cutoff, spec.cavity_cutoff)
    seconds = {"steady_s": 0.0, "refine_s": 0.0}
    n = len(points)
    columns = _empty_columns(spec, n)
    failures: list[tuple[int, str]] = []
    max_residual = 0.0
    for i, point in enumerate(points):
        cells, residual, error = _evaluate_point(spec, point, mech, cavity, seconds)
        for name, value in cells.items():
            columns[name][i] = value
        if error is not None:
            failures.append((i, error))
        elif math.isfinite(residual):
            max_residual = max(max_residual, residual)
    log.debug("%d points: %.3fs reported solves, %.3fs re-solves",
              n, seconds["steady_s"], seconds["refine_s"])
    if len(failures) == n:
        raise SweepError(
            f"all {n} grid points failed; first error: {failures[0][1]}"
        )

    metadata = {
        "fixed_params": flat_params(spec.fixed),
        "model": "two_mode" if cavity is None else "three_mode",
        "axes": [
            {"name": name, "n": len(vals), "min": min(vals), "max": max(vals)}
            for name, vals in spec.axes
        ],
        "outputs": list(spec.outputs),
        "mech_cutoff": mech,
        "cavity_cutoff": cavity,
        "convergence_cutoff_increment": CUTOFF_INCREMENT,
        "convergence_rtol": CONVERGENCE_RTOL,
        "tau_grid": list(spec.tau_grid) if spec.tau_grid else None,
        "delta_opt": spec.delta_opt,
        "root_branch": spec.root_branch if spec.delta_opt is not None
        or any(n == "delta_opt" for n in axis_names) else None,
        "rows": n,
        "failures": failures,
        "max_steady_residual": max_residual,
        **seconds,
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

# default delay grid of g2_tau outputs, also used by the CLI
DEFAULT_TAU_MAX = 3.0 * 2.0 * math.pi
DEFAULT_TAU_POINTS = 121
_TAU_GRID = tuple(np.linspace(0.0, DEFAULT_TAU_MAX, DEFAULT_TAU_POINTS))
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
        tau_grid=_TAU_GRID,
    )
    p["fig3f"] = SweepSpec(
        axes=(("delta", (0.0, 0.1, 0.2)),),
        fixed=MqParams(j=0.71, **_WEAK),
        outputs=("g2_tau",),
        tau_grid=_TAU_GRID,
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
                tau_grid=_TAU_GRID,
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

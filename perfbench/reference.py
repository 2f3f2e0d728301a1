"""Correctness gate: emitted sweep tables against an independent dense reference.

The reference takes the Hamiltonian and collapse operators from
``phonoblock``'s public model builders, then assembles the Liouvillian densely
from explicit index formulas (not from Kronecker products), solves for the
steady state with a dense LAPACK solve, and propagates delayed correlations
with a dense matrix exponential. Only the operators are shared with the
program; assembly, solver and propagator are not.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

import numpy as np
import scipy.linalg

import phonoblock as pb

RTOL = 1e-10


def dense_liouvillian(h: np.ndarray, collapses: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Generator on column-major vec(rho): ``L[a + b d, i + j d]`` is the
    derivative of ``drho[a, b]/dt`` with respect to ``rho[i, j]``."""
    d = h.shape[0]
    out = np.zeros((d, d, d, d), dtype=complex)  # indexed [b, a, j, i]

    def left(m: np.ndarray) -> None:  # rho -> m rho
        for b in range(d):
            out[b, :, b, :] += m

    def right(m: np.ndarray) -> None:  # rho -> rho m
        for a in range(d):
            out[:, a, :, a] += m.T

    left(-1j * h)
    right(1j * h)
    for rate, o in collapses:
        k = o.conj().T @ o
        for b in range(d):  # rho -> o rho o'
            out[b] += rate * np.einsum("j,ai->aji", o[b].conj(), o)
        left(-0.5 * rate * k)
        right(-0.5 * rate * k)
    return out.reshape(d * d, d * d)


def dense_steady_state(liou: np.ndarray, d: int) -> np.ndarray:
    """Trace-one kernel of the generator: the (0, 0) row is replaced by the trace."""
    a = liou.copy()
    a[0, :] = 0.0
    a[0, :: d + 1] = 1.0
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(a, rhs).reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _g2(rho: np.ndarray, b: np.ndarray) -> float:
    bd = b.conj().T
    n = np.trace(bd @ b @ rho).real
    return max(np.trace(bd @ bd @ b @ b @ rho).real / n**2, 0.0)


def _g2_series(liou: np.ndarray, rho: np.ndarray, b: np.ndarray, taus: np.ndarray) -> list[float]:
    number = b.conj().T @ b
    n = np.trace(number @ rho).real
    state = (b @ rho @ b.conj().T / n).reshape(-1, order="F")
    probe = number.T.reshape(-1, order="F")  # tr(N X) = vec(N^T) . vec(X)
    step = scipy.linalg.expm(liou * (taus[1] - taus[0]))
    out = []
    for k in range(len(taus)):
        if k:
            state = step @ state
        out.append(max((probe @ state).real / n, 0.0))
    return out


def _params(cfg, point: dict[str, float]):
    model = {**cfg.model, **point}
    task = cfg.task
    base = pb.MqParams(**{k: model[k] for k in ("delta", "j", "eps", "kappa", "gamma", "n_th")})
    if "delta_opt" in task:
        omega, phi = pb.two_drive_settings(
            task["delta_opt"], base.j, base.kappa, base.gamma, base.eps, task["root_branch"]
        )
        base = replace(base, omega_drv=omega, phi=phi)
    if cfg.three_mode:
        return pb.DetectionParams(
            base=base, g_om=complex(model["g_om_re"], model["g_om_im"]), gamma_cav=model["gamma_cav"]
        )
    return base


def reference_row(cfg, point: dict[str, float]) -> dict[str, float]:
    """Reference values of every output column for one grid point."""
    task = cfg.task
    params = _params(cfg, point)
    if cfg.three_mode:
        space = pb.three_mode_space(task["cavity_cutoff"], task["mech_cutoff"])
        h = pb.build_h_total(params, space)
    else:
        space = pb.two_mode_space(task["mech_cutoff"])
        h = pb.build_h_mq(params, space)
    collapses = [(rate, op.mat) for rate, op in pb.collapse_ops(params, space)]
    liou = dense_liouvillian(h.mat, collapses)
    d = space.total_dim
    rho = dense_steady_state(liou, d)
    b = pb.lowering(space, "m").mat
    values: dict[str, float] = {}
    for out in task["outputs"]:
        if out == "g2_zero":
            values["g2_zero"] = _g2(rho, b)
        elif out == "g2a_zero":
            values["g2a_zero"] = _g2(rho, pb.lowering(space, "a").mat)
        elif out == "g2_tau":
            taus = np.linspace(0.0, task["tau_max"], task["tau_points"])
            for k, value in enumerate(_g2_series(liou, rho, b, taus)):
                values[f"g2_tau_{k:03d}"] = value
    return values


def reference_table(cfg) -> list[dict[str, float]]:
    return [reference_row(cfg, point) for point in cfg.points()]


def check_table(cfg, csv_text: str, reference: list[dict[str, float]]) -> list[str | None]:
    """Per-row failure reason, or None for a row that passes.

    A row fails on an ``NA`` or non-finite cell, ``converged = 0``, an axis
    value that does not match the config, or any output value further than
    ``RTOL`` (relative) from the reference.
    """
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    points = cfg.points()
    if len(rows) != len(points):
        return [f"table has {len(rows)} rows, expected {len(points)}"] * len(points)
    return [_row_failure(*args) for args in zip(rows, points, reference)]


def _row_failure(row: dict[str, str], point: dict[str, float], ref: dict[str, float]) -> str | None:
    cells = {}
    for key, text in row.items():
        if text == "NA":
            return f"{key} is NA"
        value = float(text)
        if not math.isfinite(value):
            return f"{key} is {text}"
        cells[key] = value
    if cells.get("converged") != 1.0:
        return "converged = 0"
    for name, value in point.items():
        if cells.get(name) != float(f"{value:.12e}"):
            return f"axis {name} = {row.get(name)}, config has {value!r}"
    for key, expected in ref.items():
        if key not in cells:
            return f"column {key} missing"
        if abs(cells[key] - expected) > RTOL * abs(expected):
            return f"{key} = {cells[key]!r}, reference {expected!r}"
    return None

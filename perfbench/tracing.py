"""Span tracing around phonoblock's layer boundaries, installed from outside.

Wrappers replace public functions at the module attributes their callers
resolve at call time (``phonoblock.sweep.build_liouvillian`` rather than
``phonoblock.solver.build_liouvillian``, because the sweep engine calls the
name it imported). Each call records a span: name, layer, start, end, parent
span, thread id and the config it belongs to, plus exact counters taken from
its arguments or result. Spans stay in memory until the run writes them out.
A target that no longer exists is reported missing instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from pathlib import Path

# layer -> the (module, attribute) pairs wrapped for it
LAYERS = {
    "cli.config": [("phonoblock.cli", "load_config")],
    "sweep": [("phonoblock.cli", "run_sweep")],
    "analytics": [("phonoblock.sweep", n) for n in ("two_drive_settings", "optimal_drive_roots")],
    "model": [
        ("phonoblock.sweep", n)
        for n in ("two_mode_space", "three_mode_space", "build_h_mq", "build_h_total",
                  "collapse_ops", "lowering")
    ],
    "solver.assemble": [("phonoblock.sweep", "build_liouvillian")],
    "solver.steady": [("phonoblock.sweep", "steady_state")],
    "correlations": [("phonoblock.sweep", n) for n in ("g2_zero", "mean_occupation", "g2_tau")],
    "solver.evolve": [("phonoblock.correlations", "evolve")],
    "kernels.rk4": [("phonoblock.solver", "rk4_propagate")],
    "cli.io": [
        ("phonoblock.cli", n)
        for n in ("write_csv", "write_metadata", "write_tau_csv", "write_plot_script")
    ],
}

REFINE_LAYERS = ("solver.assemble", "solver.steady", "correlations")

COMPLEX_BYTES = 16


def _rk4_bytes(matrix, n_steps: int) -> int:
    """Computed bytes moved by ``n_steps`` RK4 steps on a CSR generator.

    Each step makes four matvecs, each reading the CSR arrays once plus the
    input vector and writing the output vector, and about ten full-length
    vector reads or writes for the stage combinations. Cache reuse is
    ignored, so this is a computed figure, not a measured one.
    """
    n = matrix.shape[0]
    csr = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return n_steps * (4 * (csr + 2 * n * COMPLEX_BYTES) + 10 * n * COMPLEX_BYTES)


def _counters(name: str, args: tuple, result) -> dict:
    """Exact counters for one call, taken from its arguments or result.

    A call whose arguments no longer have the expected shape gets no
    counters; the counter then reads as missing rather than failing the run.
    """
    try:
        return _read_counters(name, args, result)
    except (AttributeError, IndexError, TypeError, ValueError, OSError):
        return {}


def _read_counters(name: str, args: tuple, result) -> dict:
    if name == "build_liouvillian":
        return {"dim": result.space.total_dim, "nnz": int(result.matrix.nnz)}
    if name == "steady_state":
        return {"dim": args[0].space.total_dim}
    if name in ("g2_zero", "mean_occupation", "g2_tau"):
        return {"dim": args[0].space.total_dim}
    if name == "rk4_propagate":
        return {"steps": int(args[3]), "bytes": _rk4_bytes(args[0], int(args[3]))}
    if name.startswith("write_") and result is not None:
        path = Path(result)
        # .meta.json carries the wall time, so its length is not a fixed count
        if not path.name.endswith(".meta.json"):
            return {"bytes": path.stat().st_size}
    return {}


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers again."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.config = ""
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        self.missing = []
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(original, layer, attr))
                self._installed.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def _wrap(self, original, layer: str, name: str):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a sweep worker thread: its caller is the span the main
                # thread is blocked in
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"id": span_id, "name": name, "layer": layer, "start": start,
                    "end": end, "parent": parent, "thread": tid, "config": self.config}
            span.update(_counters(name, args, result))
            self.spans.append(span)
            return result

        return wrapper


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(children.get(s["id"], []))
        for s in spans
    }


def layer_metrics(spans: list[dict], base_dims: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced table.

    ``base_dims`` maps a config id to its Hilbert dimension at the configured
    cutoffs; calls on a larger space belong to the cutoff-refinement re-solve.
    """
    own = self_times(spans)
    by_layer: dict[str, list[dict]] = {layer: [] for layer in LAYERS}
    for s in spans:
        by_layer[s["layer"]].append(s)

    def busy(layer: str) -> float:
        return sum(s["end"] - s["start"] for s in by_layer[layer])

    def total(layer: str, key: str) -> int:
        return sum(s.get(key, 0) for s in by_layer[layer])

    sweeps = by_layer["sweep"]
    sweep_ids = {s["id"] for s in sweeps}
    children = [s for s in spans if s["parent"] in sweep_ids]
    sweep_busy = busy("sweep")
    return {
        "solver.assemble.calls": len(by_layer["solver.assemble"]),
        "solver.assemble.busy_s": busy("solver.assemble"),
        "solver.assemble.nnz": total("solver.assemble", "nnz"),
        "solver.steady.calls": len(by_layer["solver.steady"]),
        "solver.steady.busy_s": busy("solver.steady"),
        "solver.steady.max_dim": max(
            (s.get("dim", 0) ** 2 for s in by_layer["solver.steady"]), default=0
        ),
        "solver.evolve.calls": len(by_layer["solver.evolve"]),
        "solver.evolve.busy_s": busy("solver.evolve"),
        "kernels.rk4.steps": total("kernels.rk4", "steps"),
        "kernels.rk4.bytes": total("kernels.rk4", "bytes"),
        "model.calls": len(by_layer["model"]),
        "model.busy_s": busy("model"),
        "correlations.busy_s": sum(own[s["id"]] for s in by_layer["correlations"]),
        "analytics.busy_s": busy("analytics"),
        "sweep.busy_s": sweep_busy,
        "sweep.self_s": sum(own[s["id"]] for s in sweeps),
        "sweep.refine_s": sum(
            s["end"] - s["start"]
            for s in spans
            if s["layer"] in REFINE_LAYERS and s.get("dim", 0) > base_dims[s["config"]]
        ),
        "sweep.overlap": (
            sum(s["end"] - s["start"] for s in children) / sweep_busy if sweep_busy else 0.0
        ),
        "sweep.workers": len({s["thread"] for s in children}),
        "cli.config_s": busy("cli.config"),
        "cli.io_s": busy("cli.io"),
        "cli.io_bytes": total("cli.io", "bytes"),
    }


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Shares of a table's busy time, over layers whose times do not overlap.

    Propagation counts under ``solver.evolve`` (its RK4 kernel included) and
    correlations by their self time; ``sweep.self`` is orchestration between
    the wrapped calls.
    """
    parts = {
        "model": metrics["model.busy_s"],
        "solver.assemble": metrics["solver.assemble.busy_s"],
        "solver.steady": metrics["solver.steady.busy_s"],
        "correlations": metrics["correlations.busy_s"],
        "solver.evolve": metrics["solver.evolve.busy_s"],
        "analytics": metrics["analytics.busy_s"],
        "sweep.self": metrics["sweep.self_s"],
        "cli.config": metrics["cli.config_s"],
        "cli.io": metrics["cli.io_s"],
    }
    grand = sum(parts.values())
    return {layer: (t / grand if grand else 0.0) for layer, t in parts.items()}

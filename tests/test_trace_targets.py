"""The benchmark's per-layer trace targets still name library functions.

``perfbench/tracing.py`` wraps module attributes by name and reports a target
that no longer exists as missing, so its per-layer metrics read 0 instead of
failing. This test pins the set of unresolved targets: a rename or an inlining
that drops another one fails here instead of zeroing a metric unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets whose functions were renamed, inlined or removed from the library
UNRESOLVED = {
    "phonoblock.sweep.two_drive_settings",
    "phonoblock.sweep.two_mode_space",
    "phonoblock.sweep.three_mode_space",
    "phonoblock.sweep.build_h_mq",
    "phonoblock.sweep.build_h_total",
    "phonoblock.sweep.collapse_ops",
    "phonoblock.sweep.lowering",
    "phonoblock.sweep.build_liouvillian",
    "phonoblock.solver.rk4_propagate",
}


def _layers() -> dict[str, list[tuple[str, str]]]:
    # tracing.py uses only the standard library; loading it runs no benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_only_the_known_trace_targets_are_unresolved():
    targets = [target for layer in _layers().values() for target in layer]
    unresolved = {f"{name}.{attr}" for name, attr in targets
                  if not hasattr(importlib.import_module(name), attr)}
    assert unresolved == UNRESOLVED

"""Truncation study behind ``sweep.CONVERGENCE_TAIL_RTOL``.

A sweep row skips its cutoff+2 re-solve when the relative Fock tail
|p_N| / p_2 of every truncated boson mode is below that threshold. This
script checks the rule against the re-solve itself. It solves every row of
every solving figure preset, and of the criterion-7 readout scan, at the
preset's default cutoffs and at lowered mechanical cutoffs down to 3. Each
row is solved at mechanical cutoff N and again at N + 2, with the cavity
cutoff kept. The row's tail is the largest tail of its modes at N. Its
change is the largest relative change of ``g2_zero``, ``n_b`` and (three-mode)
``g2a_zero`` from N to N + 2. The re-solve rejects the row when that change
reaches ``CONVERGENCE_RTOL``.

For each preset and cutoff the table holds the row count, the failed and
rejected counts, the smallest tail among rejected rows, the largest tail
among accepted rows, and the count and largest change of the rows the rule
skips. Run from the repository root (about 15 minutes on one core)::

    PYTHONPATH=src python3 scripts/convergence_study.py
    PYTHONPATH=src python3 scripts/convergence_study.py --presets fig3b,fig6b --out /tmp/s.json

The committed ``scripts/convergence_study.json`` is the full run.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from phonoblock.errors import PhonoblockError
from phonoblock.model import DetectionParams, MqParams, model_space
from phonoblock.sweep import (
    CONVERGENCE_RTOL,
    CONVERGENCE_TAIL_RTOL,
    CUTOFF_INCREMENT,
    SCALAR_OUTPUTS,
    SweepSpec,
    _PRESETS,
    _SCALARS,
    _rel_change,
    solve_point,
)

OUT = Path(__file__).resolve().with_suffix(".json")
LOWEST_CUTOFF = 3
# lowered mechanical cutoffs run up to this one, or to the default when lower
HIGHEST_LOWERED_CUTOFF = 8


def criterion_7_scan() -> SweepSpec:
    """The readout scan of acceptance criterion 7: 61 three-mode points on
    the '+' optimum at delta_opt = 3, mech cutoff 6 and cavity cutoff 3."""
    base = MqParams(j=3.0, eps=0.2, kappa=1.0, gamma=1.0, n_th=1e-3)
    return SweepSpec(
        axes=(("delta", tuple(np.linspace(-9.0, 9.0, 61))),),
        fixed=DetectionParams(base=base, g_om=0.1, gamma_cav=10.0),
        delta_opt=3.0, root_branch="+", mech_cutoff=6, cavity_cutoff=3,
    )


def solving_specs(names: list[str] | None) -> dict[str, SweepSpec]:
    """Every preset that solves a steady state, then the criterion-7 scan."""
    specs = {name: spec for name, spec in _PRESETS.items() if spec.outputs != ("eta_phi_roots",)}
    specs["criterion7"] = criterion_7_scan()
    if names is None:
        return specs
    unknown = sorted(set(names) - set(specs))
    if unknown:
        raise SystemExit(f"unknown presets {unknown}; choose from {sorted(specs)}")
    return {name: specs[name] for name in names}


def study_cutoffs(spec: SweepSpec) -> list[int]:
    lowered = range(LOWEST_CUTOFF, min(spec.mech_cutoff, HIGHEST_LOWERED_CUTOFF + 1))
    return [*lowered, spec.mech_cutoff]


# fig11a, fig11b and criterion 7 share rows; the solves between them fit this cache
@functools.lru_cache(maxsize=4096)
def solve(params, mech: int, cavity: int | None) -> dict[str, float] | None:
    """The checked scalars and the tail of each truncated mode, on the space
    of the params' model at these cutoffs; None when the solve fails."""
    space = model_space(params, mech, cavity)
    names = [name for name in SCALAR_OUTPUTS if _SCALARS[name][1] in space.labels]
    tails = [f"tail_{f.label}" for f in space.factors if f.kind == "boson"]
    try:
        return solve_point(params, space, names + tails)[0]
    except PhonoblockError:
        return None


def row_verdicts(spec: SweepSpec, cutoffs: list[int]) -> list[dict]:
    """Per row, per cutoff N: (tail at N, largest change from N to N + 2),
    or None when either solve failed. Rows are solved one cutoff at a time,
    so each space's cached basis serves every row before the next is built."""
    names = [name for name, _ in spec.axes]
    points = [spec.params_at(dict(zip(names, combo)))
              for combo in itertools.product(*(values for _, values in spec.axes))]
    needed = sorted(set(cutoffs) | {n + CUTOFF_INCREMENT for n in cutoffs})
    solved = {n: [solve(params, n, spec.cavity_cutoff) for params in points] for n in needed}
    rows = []
    for i in range(len(points)):
        verdicts = {}
        for n in cutoffs:
            low, high = solved[n][i], solved[n + CUTOFF_INCREMENT][i]
            if low is None or high is None:
                verdicts[n] = None
                continue
            tail = max(v for k, v in low.items() if k.startswith("tail_"))
            change = max(_rel_change(low[k], high[k]) for k in high if not k.startswith("tail_"))
            verdicts[n] = (tail, change)
        rows.append(verdicts)
    return rows


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def summarize(preset: str, spec: SweepSpec, cutoff: int, rows: list) -> dict:
    solved = [r for r in rows if r is not None]
    rejected = [tail for tail, change in solved if change >= CONVERGENCE_RTOL]
    accepted = [tail for tail, change in solved if change < CONVERGENCE_RTOL]
    skipped = [change for tail, change in solved if tail < CONVERGENCE_TAIL_RTOL]
    return {
        "preset": preset,
        "mech_cutoff": cutoff,
        "cavity_cutoff": spec.cavity_cutoff,
        "default": cutoff == spec.mech_cutoff,
        "rows": len(rows),
        "failed": len(rows) - len(solved),
        "rejected": len(rejected),
        "min_rejected_tail": _finite_or_none(min(rejected, default=math.inf)),
        "max_accepted_tail": _finite_or_none(max(accepted, default=-math.inf)),
        "skipped": len(skipped),
        "max_skipped_change": max(skipped, default=None),
    }


def render(study: dict) -> str:
    """The study as JSON, one line per table."""
    head = json.dumps({k: v for k, v in study.items() if k != "tables"}, indent=1, allow_nan=False)
    tables = ",\n  ".join(json.dumps(t, allow_nan=False) for t in study["tables"])
    return head[:-2] + ',\n "tables": [\n  ' + tables + "\n ]\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", help="comma-separated preset names (default: all)")
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    specs = solving_specs(args.presets.split(",") if args.presets else None)
    tables = []
    for preset, spec in specs.items():
        start = time.perf_counter()
        cutoffs = study_cutoffs(spec)
        rows = row_verdicts(spec, cutoffs)
        for n in cutoffs:
            tables.append(summarize(preset, spec, n, [r[n] for r in rows]))
        print(f"{preset}: {len(rows)} rows at mech cutoffs {cutoffs}, "
              f"{time.perf_counter() - start:.1f}s", file=sys.stderr, flush=True)
    rejected_tails = [t["min_rejected_tail"] for t in tables if t["min_rejected_tail"] is not None]
    skipped_changes = [t["max_skipped_change"] for t in tables
                       if t["max_skipped_change"] is not None]
    study = {
        "convergence_rtol": CONVERGENCE_RTOL,
        "convergence_tail_rtol": CONVERGENCE_TAIL_RTOL,
        "cutoff_increment": CUTOFF_INCREMENT,
        "checked": list(SCALAR_OUTPUTS),
        "summary": {
            "rows": sum(t["rows"] for t in tables),
            "failed": sum(t["failed"] for t in tables),
            "rejected": sum(t["rejected"] for t in tables),
            "skipped": sum(t["skipped"] for t in tables),
            "min_rejected_tail": min(rejected_tails, default=None),
            "max_skipped_change": max(skipped_changes, default=None),
        },
        "tables": tables,
    }
    args.out.write_text(render(study))
    print(json.dumps(study["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded sweep configurations for the benchmark workloads.

Each workload is a list of ``phonoblock sweep`` config files whose free
values are drawn from the seed; the program sees only the rendered config
text. Cutoffs are written out explicitly, so the work per table stays fixed
even if the library's default truncations change.

This module uses only the standard library, so the set-up probe can time the
import of phonoblock (and of numpy with it) from a cold interpreter.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace

TAU_MAX = 3.0 * 2.0 * math.pi
TAU_POINTS = 121


@dataclass
class SweepConfig:
    """One ``sweep`` config: [model] values, grid axes and the other [task] keys."""

    name: str
    model: dict[str, float]
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    task: dict[str, object]

    @property
    def three_mode(self) -> bool:
        return "gamma_cav" in self.model

    @property
    def rows(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def points(self) -> list[dict[str, float]]:
        """Grid points in the row-major order of the emitted table."""
        names = [name for name, _ in self.axes]
        grids = itertools.product(*(values for _, values in self.axes))
        return [dict(zip(names, combo)) for combo in grids]

    def base_dim(self) -> int:
        """Hilbert-space dimension at the configured (unrefined) cutoffs."""
        dim = 2 * (self.task["mech_cutoff"] + 1)
        if self.three_mode:
            dim *= self.task["cavity_cutoff"] + 1
        return dim

    def warmup_copy(self) -> "SweepConfig":
        """One-row copy for the set-up warm-up call.

        A delayed-correlation series is cut to its first tau interval: the
        same generator and code path at 1/120 of the propagation, so set-up
        stays short next to the timed phase.
        """
        task = dict(self.task)
        if "tau_points" in task:
            task["tau_max"] = task["tau_max"] / (task["tau_points"] - 1)
            task["tau_points"] = 2
        return replace(
            self, axes=tuple((name, values[:1]) for name, values in self.axes), task=task
        )

    def render(self) -> str:
        lines = ["[model]"]
        lines += [f"{key} = {value!r}" for key, value in self.model.items()]
        lines.append("[task]")
        for i, (name, values) in enumerate(self.axes, start=1):
            lines.append(f"axis{i} = {name}")
            lines.append(f"axis{i}_values = " + ", ".join(repr(v) for v in values))
        for key, value in self.task.items():
            if key == "outputs":
                value = ", ".join(value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        lines += ["[output]", "plot_script = true", ""]
        return "\n".join(lines)


def _sorted_draws(rng: random.Random, lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(sorted(rng.uniform(lo, hi) for _ in range(n)))


def _grid2(rng: random.Random) -> list[SweepConfig]:
    # fig3b shape: weak-drive two-mode blockade map over the panel's three
    # couplings. 67 detunings per trace (fig3b has 201) keep a table near
    # 4 s, so a run holds several tables and their median rejects bursts of
    # load on a shared machine.
    return [
        SweepConfig(
            name="grid2",
            model={"eps": 0.01, "kappa": 1.0, "gamma": 1.0, "n_th": 0.0},
            axes=(("j", (0.5, 0.71, 0.8)), ("delta", _sorted_draws(rng, -0.5, 0.5, 67))),
            task={"outputs": ("g2_zero",), "mech_cutoff": 8},
        )
    ]


def _detect3(rng: random.Random) -> list[SweepConfig]:
    # fig11b readout scan: three-mode steady states on the '+' optimum branch.
    # Two detunings per table keep both sweep workers busy for the whole
    # table; a six-point table would leave one table per run.
    return [
        SweepConfig(
            name="detect3",
            model={
                "j": 3.0, "eps": 0.2, "kappa": 1.0, "gamma": 1.0, "n_th": 1e-3,
                "g_om_re": 0.1, "g_om_im": 0.0, "gamma_cav": 10.0,
            },
            axes=(("delta", _sorted_draws(rng, -9.0, 9.0, 2)),),
            task={
                "outputs": ("g2a_zero", "g2_zero"),
                "mech_cutoff": 6,
                "cavity_cutoff": 3,
                "delta_opt": 3.0,
                "root_branch": "+",
            },
        )
    ]


def _tau_config(name: str, j: float, delta: float) -> SweepConfig:
    return SweepConfig(
        name=name,
        model={"j": j, "eps": 0.01, "kappa": 1.0, "gamma": 1.0, "n_th": 0.0},
        axes=(("delta", (delta,)),),
        task={"outputs": ("g2_tau",), "tau_max": TAU_MAX, "tau_points": TAU_POINTS,
              "mech_cutoff": 8},
    )


def _g2tau(rng: random.Random) -> list[SweepConfig]:
    # Strong-coupling (fig3e family) then interference (fig3f family) series.
    # The RK4 step count grows with the generator's row sum, which grows
    # with delta: the strong-coupling draw is kept near delta = j so that
    # the seed moves the inputs but not the amount of work.
    return [
        _tau_config("g2tau_strong", 10.0, rng.uniform(9.9, 10.1)),
        _tau_config("g2tau_interference", 0.71, rng.uniform(0.0, 0.2)),
    ]


WORKLOADS = {"grid2": _grid2, "detect3": _detect3, "g2tau": _g2tau}


def make_configs(workload: str, seed: int) -> list[SweepConfig]:
    """The workload's configs; the same seed gives the same configs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

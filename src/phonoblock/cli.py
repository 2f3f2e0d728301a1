"""Command-line interface: config ingestion, subcommands, CSV and plot output.

Subcommands map onto the library: ``steady`` (steady-state summary),
``g2tau`` (delayed-correlation series), ``sweep`` (grid job from a config
file), ``figure`` (named presets), ``optimal`` (closed-form optima),
``thermal`` (Bose-Einstein helper, SI units), and ``detect`` (three-mode
photon-phonon comparison). All physical inputs are in units of kappa except
``thermal``.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.

Config files are INI-style text with sections ``[model]``, ``[task]`` and
``[output]`` and a strict key schema; unknown keys are rejected by name. Each
``TASK_VALUES`` key sets the ``SweepSpec`` field of its name, and the spec
resolves every run: a sweep runs the spec of its config, a point command a
spec with no axes, the flags on top of its config. One rule holds for both:
a given key or flag that the resolved spec does not use is a config error.
The ``config_echo`` of a ``.meta.json`` sidecar holds the resolved run, and
``render_config`` makes of it a config that reproduces the table exactly.

CSV schema: one header line of column names, one row per grid point, decimal
text with 13 significant digits, and the sentinel ``NA`` for failed points.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .analytics import (
    no_qubit_drive_optimum,
    optimal_drive_roots,
    thermal_occupation,
)
from .errors import ConfigError, NumericalError, PhonoblockError, SweepError
from .model import (
    DetectionParams,
    MqParams,
    flat_params,
    two_mode_space,
    with_flat_updates,
)
from .sweep import SweepResult, SweepSpec, figure_names, figure_panels, run_sweep, solve_point

log = logging.getLogger("phonoblock")

OUTDIR_ENV_VAR = "PHONOBLOCK_OUTDIR"
DEFAULT_OUTDIR = "phonoblock_out"


@dataclass
class RunConfig:
    """Validated configuration: model parameters, the [task] keys given, output options."""

    model: MqParams | DetectionParams
    task: dict
    output: dict


def _parse(section: str, key: str, raw: str, kind: Callable = float) -> float | int | str:
    try:
        return kind(raw)
    except ValueError as exc:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"[{section}] {key}: not {noun}: {raw!r}") from exc


# The one-value [task] keys, named and ordered as the SweepSpec fields they set,
# each with its parser; the spec gives an absent key its default and checks it.
TASK_VALUES = {"mech_cutoff": int, "cavity_cutoff": int, "tau_max": float, "tau_points": int,
               "delta_opt": float, "root_branch": str}


def _config_keys(params: MqParams | DetectionParams) -> dict[str, float]:
    """Flat params keyed as in ``[model]``: complex ``x`` splits into ``x_re``, ``x_im``."""
    keys = {}
    for name, v in flat_params(params).items():
        keys.update({f"{name}_re": v.real, f"{name}_im": v.imag} if isinstance(v, complex)
                    else {name: v})
    return keys


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file against the strict schema.

    Raises
    ------
    ConfigError
        On syntax errors (with line numbers), unknown sections or keys, or
        values that fail validation.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case so error messages match input
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    # section -> its allowed keys; [model] takes every field of the three-mode params
    schema = {
        "model": _config_keys(DetectionParams()),
        "task": ("axis1", "axis1_values", "axis1_range", "axis2", "axis2_values", "axis2_range",
                 "outputs", *TASK_VALUES),
        "output": ("dir", "plot_script"),
    }
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown config section [{section}]")
    sections = {name: dict(parser.items(name)) if parser.has_section(name) else {}
                for name in schema}
    for section, entries in sections.items():
        for key in entries:
            if key not in schema[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    model_raw, task_raw, output_raw = sections.values()

    given = {key: _parse("model", key, raw) for key, raw in model_raw.items()}
    # any readout key selects the three-mode model; unset keys keep their defaults
    model = MqParams() if set(given) <= set(flat_params(MqParams())) else DetectionParams()
    keys = {**_config_keys(model), **given}
    model = with_flat_updates(model, {
        name: complex(keys[f"{name}_re"], keys[f"{name}_im"])
        if isinstance(v, complex) else keys[name]
        for name, v in flat_params(model).items()
    })

    task: dict = {}
    for i in (1, 2):
        name = task_raw.get(f"axis{i}")
        values_raw = task_raw.get(f"axis{i}_values")
        range_raw = task_raw.get(f"axis{i}_range")
        if name is None:
            if values_raw is not None or range_raw is not None:
                raise ConfigError(f"[task] axis{i}_values or axis{i}_range needs axis{i}")
            continue
        if (values_raw is None) == (range_raw is None):
            raise ConfigError(
                f"axis{i} needs exactly one of axis{i}_values or axis{i}_range"
            )
        if values_raw is not None:
            values = tuple(
                _parse("task", f"axis{i}_values", v) for v in values_raw.split(",")
            )
        else:
            parts = range_raw.split(":")
            if len(parts) != 3:
                raise ConfigError(f"axis{i}_range must be 'lo:hi:n', got {range_raw!r}")
            lo = _parse("task", f"axis{i}_range", parts[0])
            hi = _parse("task", f"axis{i}_range", parts[1])
            n = _parse("task", f"axis{i}_range", parts[2], int)
            if n < 1:
                raise ConfigError(f"axis{i}_range point count must be >= 1")
            if not math.isfinite(hi - lo):  # also catches a span that overflows
                raise ConfigError(f"axis{i}_range bounds must be finite, got {range_raw!r}")
            if n == 1 and lo != hi:  # linspace would drop hi
                raise ConfigError(f"axis{i}_range with one point needs lo = hi, got {range_raw!r}")
            values = tuple(np.linspace(lo, hi, n))
        task[f"axis{i}"] = (name.strip(), values)
    if "outputs" in task_raw:
        task["outputs"] = tuple(s.strip() for s in task_raw["outputs"].split(","))
    task.update((key, _parse("task", key, task_raw[key], kind))
                for key, kind in TASK_VALUES.items() if key in task_raw)

    plot_script = output_raw.get("plot_script", "true")
    if plot_script.lower() not in parser.BOOLEAN_STATES:
        raise ConfigError(f"[output] plot_script: not a boolean: {plot_script!r}")
    output = {
        "dir": output_raw.get("dir", DEFAULT_OUTDIR),
        "plot_script": parser.BOOLEAN_STATES[plot_script.lower()],
    }
    return RunConfig(model=model, task=task, output=output)


def _echo(model: MqParams | DetectionParams, task: dict, outdir: Path, plot_script: bool) -> dict:
    """The ``config_echo`` of a run, from its resolved values: the model, the
    ``[task]`` text and the directory the run wrote to."""
    return {
        "model": {key: repr(v) for key, v in _config_keys(model).items()},
        "task": task,
        "output": {"dir": str(outdir), "plot_script": "true" if plot_script else "false"},
    }


def render_config(echo: dict) -> str:
    """Config-file text reproducing an echoed configuration."""
    lines = []
    for section, entries in echo.items():
        lines += [f"[{section}]", *(f"{key} = {value}" for key, value in entries.items()), ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV / metadata / plot-script emission
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    v = float(value)
    if math.isnan(v):
        return "NA"
    return f"{v:.12e}"


def _write_rows(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> Path:
    """Write one table in the package CSV schema: the header line, then one
    line of formatted cells per row."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(value) for value in row) + "\n")
    return path


def write_csv(result: SweepResult, path: str | Path) -> Path:
    """Write a sweep table using the package CSV schema."""
    return _write_rows(path, result.columns, zip(*result.columns.values()))


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_metadata(metadata: dict, path: str | Path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(metadata, fh, indent=2, default=_json_default)
        fh.write("\n")
    return path


def write_plot_script(result: SweepResult, csv_name: str, path: str | Path,
                      tau_csv_name: str | None = None) -> Path:
    """Plain-text gnuplot script for the CSV emitted next to it. A table whose
    only output is g2(tau) has its series plotted from its tau CSV instead."""
    path = Path(path)
    axes = [a["name"] for a in result.metadata["axes"]]
    data_cols = [
        (i + 1, name)
        for i, name in enumerate(result.columns)
        if name not in axes and name != "converged" and not name.startswith("g2_tau_")
    ]
    lines = [
        f"# gnuplot script for {csv_name}",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set datafile missing 'NA'",
    ]
    if not data_cols and tau_csv_name is not None:
        lines.append("set xlabel 'tau'")
        plots = [f"'{tau_csv_name}' using 1:{k + 2} with lines" for k in range(result.n_rows)]
        lines.append("plot " + ", \\\n     ".join(plots))
    elif len(axes) == 1:
        lines.append(f"set xlabel '{axes[0]}'")
        plots = [f"'{csv_name}' using 1:{idx} with lines" for idx, _ in data_cols]
        if plots:
            lines.append("plot " + ", \\\n     ".join(plots))
    else:
        lines += [
            f"set xlabel '{axes[0]}'",
            f"set ylabel '{axes[1]}'",
            "set pm3d map",
        ]
        if data_cols:
            idx = data_cols[0][0]
            lines.append(f"splot '{csv_name}' using 1:2:{idx}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_tau_csv(result: SweepResult, path: str | Path) -> Path | None:
    """Long-format companion for delayed-correlation sweeps: one tau column,
    one series column per grid row. A sweep without a tau grid writes
    nothing and returns None."""
    tau_grid = result.metadata.get("tau_grid")
    if not tau_grid:
        return None
    axes = [a["name"] for a in result.metadata["axes"]]
    labels = ["g2__" + "__".join(f"{ax}_{v:.13g}" for ax, v in zip(axes, point))
              for point in zip(*(result.columns[ax] for ax in axes))]
    rows = ([tau, *result.columns[f"g2_tau_{k:03d}"]] for k, tau in enumerate(tau_grid))
    return _write_rows(path, ["tau"] + labels, rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting, so the CLI can map
    argument problems to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _add_model_args(parser: argparse.ArgumentParser, detection: bool = False) -> None:
    group = parser.add_argument_group("model (units of kappa)")
    for cls in (MqParams, DetectionParams) if detection else (MqParams,):
        for f in fields(cls):
            if f.name != "base":
                flag = "--" + f.name.replace("_", "-")
                group.add_argument(flag, type=float, default=None, help=f.metadata["help"])
    group.add_argument("--delta-opt", type=float, default=None,
                       help="derive the qubit drive from the interference optimum at this detuning")
    group.add_argument("--branch", dest="root_branch", choices=["+", "-"],
                       help="optimum root branch")
    group.add_argument("--mech-cutoff", type=int, default=None, help="phonon truncation")
    if detection:
        group.add_argument(
            "--cavity-cutoff", type=int, default=None, help="photon truncation"
        )
    parser.add_argument("--config", default=None,
                        help="config file: [model] and these flags' [task] keys")


def _point_spec(args, outputs: tuple[str, ...] = ("g2_zero",),
                detection: bool = False) -> tuple[SweepSpec, RunConfig | None]:
    """The run of a point command, a spec with no axes, and its config:
    defaults < config < flags; as in a sweep, what the spec does not use is refused."""
    config = load_config(args.config) if args.config else None
    params = config.model if config else MqParams()
    if detection and isinstance(params, MqParams):
        params = DetectionParams(base=params)
    elif not detection and isinstance(params, DetectionParams):
        keys = ", ".join(k for k in _config_keys(params) if k not in _config_keys(params.base))
        raise ConfigError(f"{args.command} is two-mode: [model] {keys} need detect or sweep")
    task = {**(config.task if config else {}),
            **{key: v for key in TASK_VALUES if (v := getattr(args, key, None)) is not None}}
    flags = {k: v for k in flat_params(params) if (v := getattr(args, k)) is not None}
    spec = SweepSpec((), with_flat_updates(params, flags), outputs,
                     **{key: v for key, v in task.items() if key in TASK_VALUES})
    if unused := [key for key in task if key not in _spec_task(spec)]:
        raise ConfigError(f"{args.command} does not use [task] {', '.join(unused)}")
    return spec, config


def _resolve_outdir(args, config: RunConfig | None) -> Path:
    if args.outdir is not None:
        outdir = args.outdir
    elif OUTDIR_ENV_VAR in os.environ:
        outdir = os.environ[OUTDIR_ENV_VAR]
    elif config is not None:
        outdir = config.output["dir"]
    else:
        outdir = DEFAULT_OUTDIR
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_steady(args) -> int:
    spec, _ = _point_spec(args)
    values, _, _ = solve_point(spec.params_at({}), spec.space,
                               ("n_b", "g2_zero", "qubit_excitation"))
    print(f"n_b = {values['n_b']:.6g}")
    print(f"g2_0 = {values['g2_zero']:.6g}")
    print(f"qubit_excitation = {values['qubit_excitation']:.6g}")
    return 0


def _cmd_g2tau(args) -> int:
    spec, config = _point_spec(args, ("g2_tau",))
    outdir = _resolve_outdir(args, config)
    _, series, _ = solve_point(spec.params_at({}), spec.space, (), spec.tau_grid)
    path = _write_rows(outdir / "g2tau.csv", ("tau", "g2"), zip(spec.tau_grid, series))
    write_metadata({"version": __version__,
                    "config_echo": _echo(spec.fixed, _spec_task(spec), outdir, True)},
                   outdir / "g2tau.meta.json")
    print(f"g2_0 = {series[0]:.6g}")
    print(f"wrote {path}")
    return 0


def _spec_from_config(config: RunConfig) -> SweepSpec:
    """The sweep of a config: its [task] keys name ``SweepSpec`` fields but for
    the axes. A given key that the spec resolves to ``None`` is a config error."""
    if "axis1" not in config.task:
        raise ConfigError("[task] axis1 is required for a sweep")
    task = dict(config.task)
    axes = tuple(task.pop(name) for name in ("axis1", "axis2") if name in task)
    spec = SweepSpec(axes=axes, fixed=config.model, **task)
    if unused := [key for key in config.task if key not in _spec_task(spec)]:
        raise ConfigError(f"sweep does not use [task] {', '.join(unused)}")
    return spec


def _spec_task(spec: SweepSpec) -> dict[str, str]:
    """The [task] text that reproduces a run: each axis as a list of repr floats,
    the outputs of a run with axes, then each ``TASK_VALUES`` field it uses."""
    task = {}
    for i, (name, values) in enumerate(spec.axes, start=1):
        task[f"axis{i}"], task[f"axis{i}_values"] = name, ", ".join(map(repr, values))
    if spec.axes:
        task["outputs"] = ", ".join(spec.outputs)
    task.update((key, str(value)) for key in TASK_VALUES
                if (value := getattr(spec, key)) is not None)
    return task


def _write_sweep(spec: SweepSpec, outdir: Path, stem: str, plot_script: bool) -> None:
    """Run a sweep and write its CSV, its sidecar with the echo that
    reproduces it, any tau CSV and, if asked, its plot script."""
    result = run_sweep(spec)
    csv_path = write_csv(result, outdir / f"{stem}.csv")
    write_metadata({**result.metadata, "version": __version__,
                    "config_echo": _echo(spec.fixed, _spec_task(spec), outdir, plot_script)},
                   outdir / f"{stem}.meta.json")
    tau_path = write_tau_csv(result, outdir / f"{stem}_tau.csv")
    if plot_script:
        write_plot_script(result, csv_path.name, outdir / f"{stem}.gp", tau_path and tau_path.name)
    failures = result.metadata["failures"]
    log.info("%s: %d rows, %d failed, %.2fs", stem, result.n_rows, len(failures),
             result.metadata["wall_time_s"])
    print(f"wrote {csv_path} ({result.n_rows} rows, {len(failures)} failed)")


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    spec = _spec_from_config(config)
    _write_sweep(spec, _resolve_outdir(args, config), "sweep", config.output["plot_script"])
    return 0


def _cmd_figure(args) -> int:
    panels = figure_panels(args.name)
    outdir = _resolve_outdir(args, None)
    for name, spec in panels.items():
        log.info("running preset %s (%d points)", name, spec.n_points)
        _write_sweep(spec, outdir, name, not args.no_plot_script)
    return 0


def _cmd_optimal(args) -> int:
    # every value is computed before the first line is printed
    delta0, j0 = no_qubit_drive_optimum(args.kappa, args.gamma)
    lines = [f"Delta_opt = {delta0:.6g}", f"J_opt = {j0:.6g}"]
    if args.delta_opt is not None:
        j_opt = args.j_opt if args.j_opt is not None else 3.0 * args.kappa
        roots = optimal_drive_roots(args.delta_opt, j_opt, args.kappa, args.gamma)
        lines.append(f"two-drive roots at delta_opt = {args.delta_opt:.6g}, j_opt = {j_opt:.6g}:")
        lines += [f"{f.name} = {getattr(roots, f.name):.6g}" for f in fields(roots)]
    print("\n".join(lines))
    return 0


def _cmd_thermal(args) -> int:
    n = thermal_occupation(args.freq, args.temp)
    print(f"n_th = {n:.6e}")
    return 0


def _cmd_detect(args) -> int:
    spec, _ = _point_spec(args, detection=True)
    params = spec.params_at({})
    values, _, _ = solve_point(params, spec.space, ("g2_zero", "g2a_zero", "n_b", "n_a"))
    # two-mode reference without the readout cavity, two Fock levels deeper
    reference, _, _ = solve_point(params.base, two_mode_space(spec.mech_cutoff + 2), ("g2_zero",))
    g2_b, g2_a = values["g2_zero"], values["g2a_zero"]
    print(f"g2_b = {g2_b:.6g}")
    print(f"g2_a = {g2_a:.6g}")
    print(f"relative_difference = {abs(g2_a - g2_b) / g2_b:.6g}")
    print(f"g2_b_two_mode = {reference['g2_zero']:.6g}")
    print(f"n_b = {values['n_b']:.6g}")
    print(f"n_a = {values['n_a']:.6g}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="phonoblock",
        description="Phonon-blockade steady states, correlations, optima, "
        "and readout for a resonator-qubit system.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-vv for debug)")
    parser.add_argument("--outdir", default=None,
                        help=f"output directory (env {OUTDIR_ENV_VAR} overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="steady-state summary (n_b, g2, qubit excitation)")
    _add_model_args(p)
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("g2tau", help="delayed correlation series to CSV")
    _add_model_args(p)
    p.add_argument("--tau-max", type=float)
    p.add_argument("--tau-points", type=int)
    p.set_defaults(func=_cmd_g2tau)

    p = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="run a named figure preset")
    p.add_argument("name", help=f"figure ({', '.join(figure_names())}) or panel name")
    p.add_argument("--no-plot-script", action="store_true")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("optimal", help="closed-form blockade optima")
    p.add_argument("--kappa", type=float, default=MqParams.kappa)
    p.add_argument("--gamma", type=float, default=MqParams.gamma)
    p.add_argument("--delta-opt", type=float, default=None)
    p.add_argument("--j-opt", type=float, default=None)
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("thermal", help="Bose-Einstein occupation (SI units)")
    p.add_argument("--freq", type=float, required=True, help="frequency in Hz")
    p.add_argument("--temp", type=float, required=True, help="temperature in K")
    p.set_defaults(func=_cmd_thermal)

    p = sub.add_parser("detect", help="three-mode photon vs phonon statistics")
    _add_model_args(p, detection=True)
    p.set_defaults(func=_cmd_detect)
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        level = (logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)]
        logging.basicConfig(stream=sys.stderr, level=level,
                            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, SweepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except PhonoblockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

"""Command-line interface: config ingestion, subcommands, CSV and plot output.

Subcommands map onto the library: ``steady`` (steady-state summary),
``g2tau`` (delayed-correlation series), ``sweep`` (grid job from a config
file), ``figure`` (named presets), ``optimal`` (closed-form optima),
``thermal`` (Bose-Einstein helper, SI units), and ``detect`` (three-mode
photon-phonon comparison). All physical inputs are in units of kappa except
``thermal``.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.

Config files are INI-style text with sections ``[model]``, ``[task]`` and
``[output]`` and a strict key schema; unknown keys are rejected by name. A
point command reads the ``TASK_VALUES`` keys it has a flag for, the flag on
top, and rejects any other ``[task]`` key. Every run echoes its resolved
configuration into the ``.meta.json`` sidecar; rerunning from it reproduces
the output exactly.

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
    model_cutoffs,
    resolve_params,
    with_flat_updates,
)
from .sweep import (DEFAULT_TAU_MAX, DEFAULT_TAU_POINTS, SweepResult, SweepSpec,
                    figure_names, figure_panels, run_sweep, solve_point)

log = logging.getLogger("phonoblock")

OUTDIR_ENV_VAR = "PHONOBLOCK_OUTDIR"
DEFAULT_OUTDIR = "phonoblock_out"


@dataclass
class RunConfig:
    """Validated configuration: model parameters, task options, output options.

    ``echo`` carries the fully resolved key-value map (defaults applied) that
    reproduces this configuration verbatim.
    """

    model: MqParams | DetectionParams
    task: dict
    output: dict
    echo: dict


def _parse(section: str, key: str, raw: str, kind: Callable = float) -> float | int | str:
    try:
        return kind(raw)
    except ValueError as exc:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"[{section}] {key}: not {noun}: {raw!r}") from exc


def _root_branch(raw: str) -> str:
    if raw not in ("+", "-"):
        raise ConfigError(f"root_branch must be '+' or '-', got {raw!r}")
    return raw


# The one-value [task] keys: key -> (parser, default), None for the model's own
# default. Sweeps read each; a point command reads those it has a flag for.
TASK_VALUES = {"tau_max": (float, DEFAULT_TAU_MAX), "tau_points": (int, DEFAULT_TAU_POINTS),
               "mech_cutoff": (int, None), "cavity_cutoff": (int, None),
               "delta_opt": (float, None), "root_branch": (_root_branch, "+")}


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
        if name is None:
            continue
        values_raw = task_raw.get(f"axis{i}_values")
        range_raw = task_raw.get(f"axis{i}_range")
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
            values = tuple(np.linspace(lo, hi, n))
        task[f"axis{i}"] = (name.strip(), values)
    if "outputs" in task_raw:
        task["outputs"] = tuple(s.strip() for s in task_raw["outputs"].split(","))
    for key, (kind, default) in TASK_VALUES.items():
        task[key] = _parse("task", key, task_raw[key], kind) if key in task_raw else default

    plot_script = output_raw.get("plot_script", "true")
    if plot_script.lower() not in parser.BOOLEAN_STATES:
        raise ConfigError(f"[output] plot_script: not a boolean: {plot_script!r}")
    output = {
        "dir": output_raw.get("dir", DEFAULT_OUTDIR),
        "plot_script": parser.BOOLEAN_STATES[plot_script.lower()],
    }
    echo = _build_echo(model, task_raw, output)
    return RunConfig(model=model, task=task, output=output, echo=echo)


def _build_echo(
    model: MqParams | DetectionParams, task_raw: dict, output: dict
) -> dict:
    return {
        "model": {key: repr(v) for key, v in _config_keys(model).items()},
        "task": dict(task_raw),
        "output": {
            "dir": str(output["dir"]),
            "plot_script": "true" if output["plot_script"] else "false",
        },
    }


def render_config(echo: dict) -> str:
    """Config-file text reproducing an echoed configuration."""
    lines = []
    for section in ("model", "task", "output"):
        entries = echo.get(section) or {}
        if not entries:
            continue
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
        lines.append("")
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


def write_plot_script(result: SweepResult, csv_name: str, path: str | Path) -> Path:
    """Plain-text gnuplot script for the CSV emitted next to it."""
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
    if len(axes) == 1:
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
    labels = ["g2__" + "__".join(f"{ax}_{v:g}" for ax, v in zip(axes, point))
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


def _point_inputs(args, detection: bool = False):
    """Params, [task] values and config of a point command: defaults < config < flags."""
    config = load_config(args.config) if args.config else None
    given = config.task if config else {}
    if unused := [key for key in (config.echo["task"] if config else ()) if not hasattr(args, key)]:
        raise ConfigError(f"{args.command} has no option for [task] {', '.join(unused)}")
    task = {key: given.get(key, default) if getattr(args, key) is None else getattr(args, key)
            for key, (_, default) in TASK_VALUES.items() if hasattr(args, key)}
    params = config.model if config else MqParams()
    if detection and isinstance(params, MqParams):
        params = DetectionParams(base=params)
    elif not detection and isinstance(params, DetectionParams):
        params = params.base
    flags = {k: v for k in flat_params(params) if (v := getattr(args, k)) is not None}
    return resolve_params(params, flags, task["delta_opt"], task["root_branch"]), task, config


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


def _tau_grid(task: dict) -> np.ndarray:
    """linspace(0, tau_max, tau_points) of a task, checked first to be finite and ascending."""
    tau_max, tau_points = task["tau_max"], task["tau_points"]
    if tau_points < 1 or not 0 <= tau_max < math.inf or (tau_max == 0 and tau_points > 1):
        raise ConfigError(f"tau_grid needs tau_points (--tau-points) >= 1 and a finite tau_max "
                          f"(--tau-max) > 0 (0 for one point), got {tau_points} and {tau_max}")
    return np.linspace(0.0, tau_max, tau_points)


def _cmd_steady(args) -> int:
    params, task, _ = _point_inputs(args)
    values, _, _ = solve_point(params, task["mech_cutoff"], None,
                               ("n_b", "g2_zero", "qubit_excitation"))
    print(f"n_b = {values['n_b']:.6g}")
    print(f"g2_0 = {values['g2_zero']:.6g}")
    print(f"qubit_excitation = {values['qubit_excitation']:.6g}")
    return 0


def _cmd_g2tau(args) -> int:
    params, task, config = _point_inputs(args)
    tau_grid = _tau_grid(task)
    outdir = _resolve_outdir(args, config)
    mech_cutoff, _ = model_cutoffs(params, task["mech_cutoff"])
    _, series, _ = solve_point(params, mech_cutoff, None, (), tau_grid)
    path = _write_rows(outdir / "g2tau.csv", ("tau", "g2"), zip(tau_grid, series))
    # the echo alone reproduces the run: its [model] holds any derived drive
    resolved = dict(mech_cutoff=mech_cutoff, tau_max=task["tau_max"], tau_points=task["tau_points"])
    echo = _build_echo(params, {k: repr(v) for k, v in resolved.items()},
                       {"dir": outdir, "plot_script": True})
    write_metadata({"version": __version__, "config_echo": echo, **resolved},
                   outdir / "g2tau.meta.json")
    print(f"g2_0 = {series[0]:.6g}")
    print(f"wrote {path}")
    return 0


def _spec_from_config(config: RunConfig) -> SweepSpec:
    """The sweep of a config: the [task] keys other than the axes and the tau
    grid are ``SweepSpec`` fields of the same name."""
    task = config.task
    if "axis1" not in task:
        raise ConfigError("[task] axis1 is required for a sweep")
    axes = tuple(task[name] for name in ("axis1", "axis2") if name in task)
    tau_grid = _tau_grid(task) if "g2_tau" in task.get("outputs", ()) else None
    spec_fields = {key: value for key, value in task.items()
                   if key not in ("axis1", "axis2", "tau_max", "tau_points")}
    return SweepSpec(axes=axes, fixed=config.model, tau_grid=tau_grid, **spec_fields)


def _emit_sweep(result: SweepResult, outdir: Path, stem: str, plot_script: bool,
                echo: dict | None = None) -> None:
    csv_path = write_csv(result, outdir / f"{stem}.csv")
    metadata = dict(result.metadata)
    metadata["version"] = __version__
    if echo is not None:
        metadata["config_echo"] = echo
    write_metadata(metadata, outdir / f"{stem}.meta.json")
    write_tau_csv(result, outdir / f"{stem}_tau.csv")
    if plot_script:
        write_plot_script(result, csv_path.name, outdir / f"{stem}.gp")
    failures = result.metadata["failures"]
    log.info("%s: %d rows, %d failed, %.2fs", stem, result.n_rows, len(failures),
             result.metadata["wall_time_s"])
    print(f"wrote {csv_path} ({result.n_rows} rows, {len(failures)} failed)")


def _cmd_sweep(args) -> int:
    if not args.config:
        raise ConfigError("sweep requires --config")
    config = load_config(args.config)
    spec = _spec_from_config(config)
    outdir = _resolve_outdir(args, config)
    result = run_sweep(spec)
    _emit_sweep(result, outdir, "sweep", config.output["plot_script"], config.echo)
    return 0


def _cmd_figure(args) -> int:
    panels = figure_panels(args.name)
    outdir = _resolve_outdir(args, None)
    for name, spec in panels.items():
        log.info("running preset %s (%d points)", name, spec.n_points)
        result = run_sweep(spec)
        _emit_sweep(result, outdir, name, not args.no_plot_script)
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
    params, task, _ = _point_inputs(args, detection=True)
    mech_cutoff, cavity_cutoff = model_cutoffs(params, task["mech_cutoff"], task["cavity_cutoff"])
    values, _, _ = solve_point(params, mech_cutoff, cavity_cutoff,
                               ("g2_zero", "g2a_zero", "n_b", "n_a"))
    # two-mode reference without the readout cavity, two Fock levels deeper
    reference, _, _ = solve_point(params.base, mech_cutoff + 2, None, ("g2_zero",))
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
    p.add_argument("--config", required=False, default=None)
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

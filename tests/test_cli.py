"""CLI subcommands, config schema, CSV schema, and echo round-trips."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import phonoblock
from phonoblock.cli import (TASK_VALUES, _echo, _point_spec, _spec_from_config, _spec_task,
                            build_parser, cli_main, load_config, render_config)
from phonoblock.errors import ConfigError
from phonoblock.analytics import with_two_drive_optimum
from phonoblock.model import DetectionParams, MqParams, flat_params, two_mode_space
from phonoblock.sweep import (SweepSpec, figure_names, figure_panels, run_sweep,
                              solve_point)


def _value(output: str, key: str) -> float:
    match = re.search(rf"^{key} = (\S+)$", output, re.MULTILINE)
    assert match, f"{key!r} not found in output:\n{output}"
    return float(match.group(1))


def test_optimal_prints_no_drive_optimum(capsys):
    assert cli_main(["optimal", "--kappa", "1", "--gamma", "1"]) == 0
    out = capsys.readouterr().out
    assert "J_opt = 0.7071" in out
    assert _value(out, "Delta_opt") == 0.0


def test_optimal_prints_two_drive_roots(capsys):
    code = cli_main(
        ["optimal", "--kappa", "1", "--gamma", "1", "--delta-opt", "3", "--j-opt", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert _value(out, "eta_plus") == pytest.approx(3.0957, abs=1e-3)
    assert _value(out, "phi_plus") == pytest.approx(0.2144, abs=1e-3)


@pytest.mark.parametrize(
    "flags",
    [["--kappa", "nan"], ["--gamma", "inf"], ["--delta-opt", "nan"], ["--delta-opt", "inf"],
     ["--delta-opt", "3", "--j-opt", "inf"],
     # finite inputs whose optimum or roots overflow
     ["--kappa", "1e308", "--gamma", "1e308"], ["--delta-opt", "1e308", "--j-opt", "1e-300"],
     ["--delta-opt", "1e200", "--j-opt", "1"]],
)
def test_optimal_rejects_non_finite_input(capsys, flags):
    assert cli_main(["optimal", *flags]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "must be finite" in captured.err
    # every value is computed before the first line is printed
    assert captured.out == ""


def test_module_entry_point_runs_the_cli():
    src = Path(phonoblock.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "phonoblock.cli", "optimal", "--kappa", "nan"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "must be finite" in proc.stderr
    assert proc.stdout == ""


def test_thermal_helper(capsys):
    assert cli_main(["thermal", "--freq", "6e9", "--temp", "0.025"]) == 0
    n = _value(capsys.readouterr().out, "n_th")
    assert 0.9e-5 <= n <= 1.1e-5


@pytest.mark.parametrize(
    "freq, temp",
    [("6e9", "inf"), ("6e9", "nan"), ("nan", "0.025"), ("inf", "0.025"), ("6e9", "-inf"),
     # h f / k T underflows to 0, or the occupation k T / h f overflows
     ("1e-300", "1e10"), ("2e-290", "1e10")],
)
def test_thermal_rejects_non_finite_input(capsys, freq, temp):
    assert cli_main(["thermal", "--freq", freq, "--temp", temp]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "n_th" not in captured.out


@pytest.mark.parametrize(
    "freq, temp, n_th",
    # K_B * T underflows to 0; then both 2 pi HBAR f and K_B * T underflow
    [("6e9", "1e-320", 0.0), ("1e-300", "1e-302", 2.083662e8)],
)
def test_thermal_survives_underflowing_products(capsys, freq, temp, n_th):
    assert cli_main(["thermal", "--freq", freq, "--temp", temp]) == 0
    assert _value(capsys.readouterr().out, "n_th") == pytest.approx(n_th, rel=1e-6)


def test_steady_summary(capsys):
    code = cli_main(
        ["steady", "--delta", "0", "--j", "0.70710678", "--eps", "0.01"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert 0.0015 <= _value(out, "g2_0") <= 0.006
    assert _value(out, "n_b") == pytest.approx(4.45e-5, rel=0.05)
    assert _value(out, "qubit_excitation") > 0.0


def test_steady_unpopulated_mode_is_numerical_failure(capsys):
    code = cli_main(["steady", "--j", "1", "--eps", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    # every observable is measured before the first line is printed
    assert captured.out == ""


def test_steady_matches_one_row_sweep(capsys):
    cases = [([], {}),
             (["--delta-opt", "3", "--branch", "-"], {"delta_opt": 3.0, "root_branch": "-"})]
    for flags, spec_fields in cases:
        argv = ["steady", "--delta", "0.1", "--j", "0.71", "--eps", "0.01", *flags]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        spec = SweepSpec(axes=(("delta", (0.1,)),), fixed=MqParams(j=0.71, eps=0.01),
                         outputs=("g2_zero", "n_b"), **spec_fields)
        result = run_sweep(spec)
        assert f"n_b = {result.columns['n_b'][0]:.6g}\n" in out
        assert f"g2_0 = {result.columns['g2_zero'][0]:.6g}\n" in out


def test_steady_refuses_a_qubit_drive_with_an_optimum(capsys):
    # the optimum sets omega_drv and phi; given flags must not be dropped silently
    argv = ["steady", "--j", "3", "--eps", "0.2", "--delta", "1", "--delta-opt", "3"]
    assert cli_main([*argv, "--omega-drv", "0.5", "--phi", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("delta_opt sets the qubit drive, so omega_drv and phi can be neither nonzero "
            "nor an axis") in captured.err
    assert cli_main([*argv, "--omega-drv", "0", "--phi", "0"]) == 0


def test_steady_and_g2tau_refuse_a_three_mode_config(tmp_path, capsys):
    # a readout key selects the three-mode model, which only detect and sweep run
    config_path = tmp_path / "three.cfg"
    config_path.write_text(
        "[model]\ndelta = 0.1\nj = 0.71\neps = 0.01\nn_th = 1e-4\ngamma_cav = 20\n"
        f"g_om_re = 0.3\n\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    for command in ("steady", "g2tau"):
        assert cli_main([command, "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: {command} is two-mode: [model] g_om_re, g_om_im, "
                                "gamma_cav need detect or sweep\n")
        assert captured.out == ""
        assert not (tmp_path / "out" / "g2tau.csv").exists()


def test_unknown_flag_is_config_error(capsys):
    assert cli_main(["steady", "--epsilon", "1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_g2tau_single_point_at_zero_delay(tmp_path, capsys):
    code = cli_main(
        [
            "--outdir", str(tmp_path), "g2tau", "--j", "0.7", "--eps", "0.01",
            "--tau-max", "0", "--tau-points", "1",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert len((tmp_path / "g2tau.csv").read_text().splitlines()) == 2


def test_g2tau_csv(tmp_path, capsys):
    code = cli_main(
        [
            "--outdir", str(tmp_path), "g2tau",
            "--delta", "0", "--j", "0.70710678", "--eps", "0.01",
            "--tau-max", "2.0", "--tau-points", "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    csv_path = tmp_path / "g2tau.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "tau,g2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # printed summary carries 6 significant digits
    assert float(first[1]) == pytest.approx(_value(out, "g2_0"), rel=1e-5)
    # 13 significant digits in scientific notation
    assert re.fullmatch(r"-?\d\.\d{12}e[+-]\d{2,3}", first[1])
    assert (tmp_path / "g2tau.meta.json").exists()


@pytest.mark.parametrize("outdir_from", ["flag", "env", "config"])
def test_g2tau_meta_reproduces_its_run(tmp_path, capsys, monkeypatch, outdir_from):
    # the echo is a sweep echo without axes or outputs: the model as given and,
    # on an optimum, delta_opt and root_branch, not the drive they derive
    tables = []
    for optimum in ([], ["--delta-opt", "3", "--branch", "-"]):
        run_dir = tmp_path / ("optimum" if optimum else "plain")
        run_dir.mkdir()
        out = run_dir / "a"
        argv = ["g2tau", "--j", "0.71", "--eps", "0.01", "--mech-cutoff", "12",
                "--tau-max", "1", "--tau-points", "3", *optimum]
        if outdir_from == "flag":
            argv = ["--outdir", str(out), *argv]
        elif outdir_from == "env":
            monkeypatch.setenv("PHONOBLOCK_OUTDIR", str(out))
        else:
            (run_dir / "run.cfg").write_text(f"[output]\ndir = {out}\n")
            argv += ["--config", str(run_dir / "run.cfg")]
        assert cli_main(argv) == 0
        capsys.readouterr()
        meta = json.loads((out / "g2tau.meta.json").read_text())
        # the echo is the sidecar's one record of the run
        assert set(meta) == {"version", "config_echo"}
        echo = meta["config_echo"]
        assert echo["output"]["dir"] == str(out)
        assert echo["model"] == _echo(MqParams(j=0.71, eps=0.01), {}, out, True)["model"]
        assert echo["task"] == {"mech_cutoff": "12", "tau_max": "1.0", "tau_points": "3",
                                **({"delta_opt": "3.0", "root_branch": "-"} if optimum else {})}

        # rerun from the echo alone, then from the echo and its task values as
        # flags, each into another directory
        monkeypatch.delenv("PHONOBLOCK_OUTDIR", raising=False)
        task = echo["task"]
        for rerun_dir, flags in (("b", []), ("c", ["--mech-cutoff", task["mech_cutoff"],
                                                   "--tau-max", task["tau_max"],
                                                   "--tau-points", task["tau_points"]])):
            echo["output"]["dir"] = str(run_dir / rerun_dir)
            (run_dir / "rerun.cfg").write_text(render_config(echo))
            assert cli_main(["g2tau", "--config", str(run_dir / "rerun.cfg"), *flags]) == 0
            capsys.readouterr()
            assert (out / "g2tau.csv").read_bytes() == (
                run_dir / rerun_dir / "g2tau.csv").read_bytes()
        tables.append((out / "g2tau.csv").read_bytes())
    # the optimum's drive moves the series
    assert tables[0] != tables[1]


def test_detect_compares_photon_and_phonon(tmp_path, capsys):
    code = cli_main(
        [
            "detect", "--delta", "3", "--j", "3", "--eps", "0.2",
            "--n-th", "1e-3", "--delta-opt", "3",
            "--g-om", "0.1", "--gamma-cav", "10",
            "--mech-cutoff", "4", "--cavity-cutoff", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    g2b = _value(out, "g2_b")
    g2a = _value(out, "g2_a")
    assert g2b > 0 and g2a > 0
    assert _value(out, "relative_difference") == pytest.approx(
        abs(g2a - g2b) / g2b, rel=1e-4
    )
    assert _value(out, "g2_b_two_mode") > 0


@pytest.mark.parametrize("mech_cutoff, reference_cutoff", [(None, 8), (4, 6)])
def test_detect_two_mode_reference_is_two_levels_deeper(capsys, mech_cutoff, reference_cutoff):
    argv = ["detect", "--delta", "3", "--j", "3", "--eps", "0.2", "--n-th", "1e-3",
            "--delta-opt", "3", "--g-om", "0.1", "--gamma-cav", "10"]
    if mech_cutoff is not None:
        argv += ["--mech-cutoff", str(mech_cutoff)]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    base = with_two_drive_optimum(MqParams(delta=3.0, j=3.0, eps=0.2, n_th=1e-3), 3.0, "+")
    reference, _, _ = solve_point(base, two_mode_space(reference_cutoff), ("g2_zero",))
    assert f"g2_b_two_mode = {reference['g2_zero']:.6g}\n" in out


def test_figure_fig7_outputs(tmp_path):
    code = cli_main(["--outdir", str(tmp_path), "figure", "fig7"])
    assert code == 0
    csv_path = tmp_path / "fig7.csv"
    meta_path = tmp_path / "fig7.meta.json"
    gp_path = tmp_path / "fig7.gp"
    assert csv_path.exists() and meta_path.exists() and gp_path.exists()
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "delta"
    assert "eta_plus" in header and "phi_minus" in header
    for cell in lines[1].split(","):
        assert cell == "NA" or math.isfinite(float(cell))
    meta = json.loads(meta_path.read_text())
    assert meta["rows"] == len(lines) - 1
    # the echo is the preset as a sweep config
    (tmp_path / "echo.cfg").write_text(render_config(meta["config_echo"]))
    assert _spec_from_config(load_config(tmp_path / "echo.cfg")) == figure_panels("fig7")["fig7"]
    assert "plot" in gp_path.read_text()


@pytest.mark.parametrize("panel", [p for name in figure_names() for p in figure_panels(name)])
def test_preset_echo_loads_as_its_preset(tmp_path, panel):
    # no solve: the echo of every panel, rendered and loaded, gives back the panel's spec
    spec = figure_panels(panel)[panel]
    (tmp_path / "echo.cfg").write_text(render_config(_echo(spec.fixed, _spec_task(spec),
                                                           tmp_path, True)))
    assert _spec_from_config(load_config(tmp_path / "echo.cfg")) == spec


@pytest.mark.parametrize("panel", [p for name in figure_names() for p in figure_panels(name)])
def test_preset_echo_holds_its_axes_outputs_and_used_fields(panel):
    spec = figure_panels(panel)[panel]
    task = _spec_task(spec)
    used = [key for key in TASK_VALUES if getattr(spec, key) is not None]
    axis_keys = [key for i in range(1, len(spec.axes) + 1)
                 for key in (f"axis{i}", f"axis{i}_values")]
    assert list(task) == [*axis_keys, "outputs", *used]
    assert task["outputs"] == ", ".join(spec.outputs)
    for key in used:
        assert TASK_VALUES[key](task[key]) == getattr(spec, key)


def test_task_values_are_sweep_spec_fields_in_their_order():
    assert list(TASK_VALUES) == [f.name for f in fields(SweepSpec) if f.name in TASK_VALUES]
    assert set(TASK_VALUES) <= {f.name for f in fields(SweepSpec) if f.init}


@pytest.mark.parametrize("panel", ["fig7", "fig9c_plus"])
def test_figure_echo_reruns_as_the_same_sweep(tmp_path, capsys, panel):
    # each sidecar's echo names the directory its table went to after --outdir
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["--outdir", str(a), "figure", panel]) == 0
    figure_meta = json.loads((a / f"{panel}.meta.json").read_text())
    assert figure_meta["config_echo"]["output"]["dir"] == str(a)
    (tmp_path / "echo.cfg").write_text(render_config(figure_meta["config_echo"]))
    assert cli_main(["--outdir", str(b), "sweep", "--config", str(tmp_path / "echo.cfg")]) == 0
    capsys.readouterr()
    sweep_meta = json.loads((b / "sweep.meta.json").read_text())
    assert sweep_meta["config_echo"]["output"]["dir"] == str(b)

    def untimed(meta):
        return {key: value for key, value in meta.items()
                if key not in ("config_echo", "steady_s", "refine_s", "wall_time_s")}

    assert untimed(sweep_meta) == untimed(figure_meta)
    assert (a / f"{panel}_tau.csv").exists() == (panel == "fig9c_plus")
    for suffix in (".csv", "_tau.csv", ".gp"):
        figure_file, sweep_file = a / f"{panel}{suffix}", b / f"sweep{suffix}"
        assert sweep_file.exists() == figure_file.exists()
        if figure_file.exists():
            # the plot script names the CSVs next to it
            assert sweep_file.read_bytes() == figure_file.read_bytes().replace(
                panel.encode(), b"sweep")


def test_figure_fig3b_minimum(tmp_path):
    # detuning scan at the rounded interference optimum reaches the deep
    # blockade minimum near 0.003
    code = cli_main(["--outdir", str(tmp_path), "figure", "fig3b"])
    assert code == 0
    lines = (tmp_path / "fig3b.csv").read_text().splitlines()
    header = lines[0].split(",")
    j_col = header.index("j")
    delta_col = header.index("delta")
    g2_col = header.index("g2_zero")
    best = math.inf
    for line in lines[1:]:
        cells = line.split(",")
        if abs(float(cells[j_col]) - 0.71) < 1e-9:
            best = min(best, float(cells[g2_col]))
    assert 0.0015 <= best <= 0.006


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tau-points", "0"), ("--tau-points", "-3"),
        # one point would drop the default tau_max
        ("--tau-points", "1"),
        ("--tau-max", "-1"), ("--tau-max", "0"), ("--tau-max", "nan"), ("--tau-max", "inf"),
    ],
)
def test_g2tau_rejects_bad_tau_grid(tmp_path, capsys, flag, value):
    code = cli_main(
        ["--outdir", str(tmp_path), "g2tau", "--j", "0.7", "--eps", "0.01", flag, value]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and flag in err
    assert not (tmp_path / "g2tau.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["steady", "--j", "1", "--eps", "0.01", "--mech-cutoff", "0"],
        ["g2tau", "--j", "1", "--eps", "0.01", "--mech-cutoff", "0"],
        ["detect", "--j", "1", "--eps", "0.01", "--mech-cutoff", "0"],
        ["detect", "--j", "1", "--eps", "0.01", "--cavity-cutoff", "0"],
    ],
)
def test_zero_cutoff_flag_is_config_error(tmp_path, capsys, argv):
    # an explicit 0 is a bad cutoff, not a request for the default
    assert cli_main(["--outdir", str(tmp_path)] + argv) == 1
    assert "cutoff" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["mech_cutoff", "cavity_cutoff"])
def test_zero_cutoff_config_key_is_config_error(tmp_path, capsys, key):
    config_path = tmp_path / "zero.cfg"
    config_path.write_text(
        "[model]\nj = 1.0\neps = 0.01\ngamma_cav = 10\n\n"
        f"[task]\naxis1 = delta\naxis1_values = 0.0\n{key} = 0\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == 1
    assert "cutoff" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "task_extra, message",
    [
        ("outputs = g2_zero, g2_zero\n", "distinct"),
        # the two-mode model has no cavity to truncate
        ("cavity_cutoff = 7\n", "cavity_cutoff"),
        ("delta_opt = nan\n", "delta_opt must be finite"),
        ("root_branch = x\n", "root_branch must be '+' or '-', got 'x'"),
        # keys this sweep does not use: a tau grid without g2_tau, a branch without an optimum
        ("tau_max = 5\n", "sweep does not use [task] tau_max"),
        ("tau_points = 3\n", "sweep does not use [task] tau_points"),
        ("root_branch = -\n", "sweep does not use [task] root_branch"),
    ],
)
def test_bad_two_mode_sweep_config_writes_nothing(tmp_path, capsys, task_extra, message):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(
        "[model]\nj = 1.0\neps = 0.01\n\n"
        f"[task]\naxis1 = delta\naxis1_values = 0.0\n{task_extra}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "model_extra, task, message",
    [
        ("", "axis1 = delta\naxis1_range = 0:1\n", "axis1_range must be 'lo:hi:n'"),
        ("", "axis1 = delta\naxis1_range = 0:1:0\n", "axis1_range point count must be >= 1"),
        ("", "axis2 = delta\naxis2_values = 0.0\n", "[task] axis1 is required for a sweep"),
        ("g_om_re = nan\n", "axis1 = delta\naxis1_values = 0.0\n", "g_om must be finite"),
        ("", "axis1 = delta\naxis1_values = nan\n", "axis 'delta' contains non-finite values"),
    ],
)
def test_bad_sweep_config_is_config_error(tmp_path, capsys, model_extra, task, message):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text(
        f"[model]\nj = 1.0\neps = 0.01\n{model_extra}\n[task]\n{task}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "steady"])
def test_axis_values_without_their_axis_is_config_error(tmp_path, capsys, command):
    config_path = tmp_path / "axes.cfg"
    config_path.write_text(
        "[model]\nj = 0.71\neps = 0.01\n\n[task]\naxis1 = delta\naxis1_range = -0.1:0.1:3\n"
        f"axis2_values = 1, 2\n\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli_main([command, "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert "config error: [task] axis2_values or axis2_range needs axis2" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_sweep_takes_root_branch_with_a_delta_opt_axis(tmp_path, capsys):
    config_path = tmp_path / "axis.cfg"
    config_path.write_text(
        "[model]\nj = 3.0\neps = 0.2\n\n[task]\naxis1 = delta_opt\naxis1_values = 3.0\n"
        f"root_branch = -\nmech_cutoff = 3\n\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "out" / "sweep.meta.json").read_text())
    assert meta["root_branch"] == meta["config_echo"]["task"]["root_branch"] == "-"


def test_unknown_figure_name(capsys):
    assert cli_main(["figure", "fig99"]) == 1
    assert "config error" in capsys.readouterr().err


def test_figure_no_plot_script_flag_writes_no_script(tmp_path, capsys):
    assert cli_main(["--outdir", str(tmp_path), "figure", "fig7", "--no-plot-script"]) == 0
    capsys.readouterr()
    assert (tmp_path / "fig7.csv").exists()
    assert not (tmp_path / "fig7.gp").exists()


@pytest.mark.parametrize("value, code, script", [("false", 0, False), ("Off", 0, False),
                                                  ("ture", 1, False), ("yes", 0, True)])
def test_plot_script_key_takes_boolean_words_only(tmp_path, capsys, value, code, script):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "[model]\nj = 0.71\neps = 0.01\n\n[task]\naxis1 = delta\naxis1_values = 0.0\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\nplot_script = {value}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == code
    if code:
        assert "plot_script" in capsys.readouterr().err
    assert (tmp_path / "out" / "sweep.csv").exists() == (code == 0)
    assert (tmp_path / "out" / "sweep.gp").exists() == script


def test_figure_sub_figure_prefix_runs_its_panels(tmp_path, capsys):
    assert cli_main(["--outdir", str(tmp_path), "figure", "fig9c"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "fig9c_minus.csv", "fig9c_minus_tau.csv", "fig9c_plus.csv", "fig9c_plus_tau.csv",
    ]


def _run_g2_tau_only_sweep(tmp_path, axes: str) -> Path:
    """Output directory of a short g2_tau-only sweep over ``axes`` ([task] text)."""
    (tmp_path / "tau.cfg").write_text(
        f"[model]\nj = 0.71\neps = 0.01\n\n[task]\n{axes}outputs = g2_tau\ntau_max = 1\n"
        f"tau_points = 3\nmech_cutoff = 3\n\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["sweep", "--config", str(tmp_path / "tau.cfg")]) == 0
    return tmp_path / "out"


def test_tau_csv_labels_keep_13_significant_digits(tmp_path, capsys):
    # six significant digits used to label both series g2__delta_0.1
    out = _run_g2_tau_only_sweep(tmp_path, "axis1 = delta\naxis1_values = 0.1000001, 0.1000002\n")
    capsys.readouterr()
    header = (out / "sweep_tau.csv").read_text().splitlines()[0]
    assert header == "tau,g2__delta_0.1000001,g2__delta_0.1000002"


@pytest.mark.parametrize("axes, n_series", [
    ("axis1 = delta\naxis1_values = 0, 0.1\n", 2),
    ("axis1 = delta\naxis1_values = 0, 0.1\naxis2 = j\naxis2_values = 0.5, 0.71\n", 4),
])
def test_g2_tau_only_plot_script_plots_each_tau_series(tmp_path, capsys, axes, n_series):
    # such a script used to set its labels and plot nothing
    out = _run_g2_tau_only_sweep(tmp_path, axes)
    capsys.readouterr()
    tau_header = (out / "sweep_tau.csv").read_text().splitlines()[0].split(",")
    assert len(tau_header) == 1 + n_series
    script = (out / "sweep.gp").read_text()
    plots = ", \\\n     ".join(f"'sweep_tau.csv' using 1:{k} with lines"
                                for k in range(2, n_series + 2))
    assert script.endswith(f"set xlabel 'tau'\nplot {plots}\n")


def _g2_tau_sweep_config(tmp_path, task_extra: str = "") -> Path:
    config_path = tmp_path / "tau.cfg"
    config_path.write_text(
        "[model]\nj = 0.71\neps = 0.01\n\n"
        "[task]\naxis1 = delta\naxis1_values = 0.0, 0.1\noutputs = g2_tau\n"
        f"{task_extra}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    return config_path


def test_g2_tau_sweep_default_grid_and_tau_csv(tmp_path, capsys):
    assert cli_main(["sweep", "--config", str(_g2_tau_sweep_config(tmp_path))]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    meta = json.loads((out / "sweep.meta.json").read_text())
    assert meta["tau_grid"] == list(np.linspace(0.0, 3.0 * 2.0 * math.pi, 121))

    csv_lines = (out / "sweep.csv").read_text().splitlines()
    header, *rows = [line.split(",") for line in csv_lines]
    assert len(rows) == 2
    tau_cols = [header.index(f"g2_tau_{k:03d}") for k in range(121)]
    tau_header, *tau_rows = [
        line.split(",") for line in (out / "sweep_tau.csv").read_text().splitlines()
    ]
    assert tau_header == ["tau", "g2__delta_0", "g2__delta_0.1"]
    assert len(tau_rows) == 121
    assert [float(r[0]) for r in tau_rows] == pytest.approx(meta["tau_grid"], rel=1e-12)
    for i, row in enumerate(rows):
        assert [r[i + 1] for r in tau_rows] == [row[c] for c in tau_cols]


@pytest.mark.parametrize("tau_max", ["nan", "inf", "-1"])
def test_g2_tau_sweep_rejects_bad_tau_max(tmp_path, capsys, tau_max):
    config_path = _g2_tau_sweep_config(tmp_path, f"tau_max = {tau_max}\n")
    assert cli_main(["sweep", "--config", str(config_path)]) == 1
    assert "tau_grid" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize("tau_points", ["0", "-3"])
def test_g2_tau_sweep_rejects_bad_tau_points(tmp_path, capsys, tau_points):
    config_path = _g2_tau_sweep_config(tmp_path, f"tau_points = {tau_points}\n")
    assert cli_main(["sweep", "--config", str(config_path)]) == 1
    assert "tau_points" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_load_config_minimal_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("[model]\n")
    config = load_config(path)
    assert config.model.kappa == 1.0
    assert config.model.gamma == 1.0
    assert config.model.eps == 0.0
    assert config.output["dir"] == "phonoblock_out"
    assert config.task == {}  # defaults are applied by the command that reads the config


def test_load_config_unknown_key_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\nepsilonn = 0.1\n")
    with pytest.raises(ConfigError, match="epsilonn"):
        load_config(path)


def test_load_config_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[modell]\ndelta = 1\n")
    with pytest.raises(ConfigError, match="modell"):
        load_config(path)


def test_load_config_parse_error_has_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\ndelta 1\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_load_config_bad_number_names_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\ndelta = abc\n")
    with pytest.raises(ConfigError, match="delta"):
        load_config(path)


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_load_config_axis_parsing(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "[model]\nj = 1.0\n\n[task]\naxis1 = delta\naxis1_range = -1:1:5\n"
        "axis2 = eps\naxis2_values = 0.01, 0.02\noutputs = g2_zero, n_b\n"
    )
    config = load_config(path)
    name, values = config.task["axis1"]
    assert name == "delta"
    assert values == pytest.approx(tuple(np.linspace(-1, 1, 5)))
    assert config.task["axis2"][1] == (0.01, 0.02)
    assert config.task["outputs"] == ("g2_zero", "n_b")


def test_load_config_axis_requires_one_source(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        "[task]\naxis1 = delta\naxis1_values = 1\naxis1_range = 0:1:2\n"
    )
    with pytest.raises(ConfigError, match="axis1"):
        load_config(path)


@pytest.mark.parametrize("axis_range", ["0:inf:3", "nan:1:3", "-1e308:1e308:3"])
def test_load_config_axis_range_must_be_finite(tmp_path, axis_range):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[task]\naxis1 = delta\naxis1_range = {axis_range}\n")
    with pytest.raises(ConfigError, match="axis1_range"):
        load_config(path)


def test_load_config_one_point_range_needs_equal_bounds(tmp_path):
    # linspace(lo, hi, 1) is lo alone, so lo:hi:1 would drop hi
    path = tmp_path / "range.cfg"
    path.write_text("[task]\naxis1 = delta\naxis1_range = -1:1:1\n")
    with pytest.raises(ConfigError, match="axis1_range with one point needs lo = hi"):
        load_config(path)
    path.write_text("[task]\naxis1 = delta\naxis1_range = 2:2:1\n")
    assert load_config(path).task["axis1"] == ("delta", (2.0,))


def test_sweep_command_and_echo_round_trip(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "[model]\n"
        "j = 0.70710678\n"
        "eps = 0.01\n"
        "\n"
        "[task]\n"
        "axis1 = delta\n"
        "axis1_values = -0.1, 0.0, 0.1\n"
        "outputs = g2_zero, n_b\n"
        "\n"
        "[output]\n"
        f"dir = {tmp_path / 'out1'}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    capsys.readouterr()
    out1 = (tmp_path / "out1" / "sweep.csv").read_bytes()
    meta = json.loads((tmp_path / "out1" / "sweep.meta.json").read_text())
    echo = meta["config_echo"]

    # regenerate a config from the echo and rerun: output must be identical
    rerun_path = tmp_path / "rerun.cfg"
    echo["output"]["dir"] = str(tmp_path / "out2")
    rerun_path.write_text(render_config(echo))
    assert cli_main(["sweep", "--config", str(rerun_path)]) == 0
    capsys.readouterr()
    out2 = (tmp_path / "out2" / "sweep.csv").read_bytes()
    assert out1 == out2


def test_fig10b_style_config_round_trip(tmp_path, capsys):
    # two-drive optimum configuration: drives derived per point from the
    # optimum root, thermal axis
    config_path = tmp_path / "fig10b.cfg"
    config_path.write_text(
        "[model]\n"
        "delta = 3.0\n"
        "j = 3.0\n"
        "eps = 0.4\n"
        "\n"
        "[task]\n"
        "axis1 = n_th\n"
        "axis1_values = 0.01, 0.06\n"
        "delta_opt = 3.0\n"
        "root_branch = +\n"
        "mech_cutoff = 12\n"
        "\n"
        "[output]\n"
        f"dir = {tmp_path / 'a'}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "a" / "sweep.meta.json").read_text())
    echo = meta["config_echo"]
    assert echo["model"]["j"] == "3.0"
    assert echo["task"]["delta_opt"] == "3.0"
    echo["output"]["dir"] = str(tmp_path / "b")
    (tmp_path / "rerun.cfg").write_text(render_config(echo))
    assert cli_main(["sweep", "--config", str(tmp_path / "rerun.cfg")]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
        tmp_path / "b" / "sweep.csv"
    ).read_bytes()


def test_three_mode_config_round_trip(tmp_path, capsys):
    # complex readout coupling and a non-default cavity damping survive the echo
    config_path = tmp_path / "three.cfg"
    config_path.write_text(
        "[model]\n"
        "j = 3.0\n"
        "eps = 0.2\n"
        "n_th = 1e-3\n"
        "g_om_re = 0.1\n"
        "g_om_im = 0.05\n"
        "gamma_cav = 20\n"
        "\n"
        "[task]\n"
        "axis1 = delta\n"
        "axis1_values = -1.0, 3.0\n"
        "outputs = g2a_zero, g2_zero\n"
        "delta_opt = 3.0\n"
        "mech_cutoff = 3\n"
        "cavity_cutoff = 2\n"
        "\n"
        "[output]\n"
        f"dir = {tmp_path / 'a'}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    capsys.readouterr()
    meta = json.loads((tmp_path / "a" / "sweep.meta.json").read_text())
    assert meta["model"] == "three_mode"
    echo = meta["config_echo"]
    assert echo["model"]["g_om_im"] == "0.05"
    assert echo["model"]["gamma_cav"] == "20.0"
    echo["output"]["dir"] = str(tmp_path / "b")
    (tmp_path / "rerun.cfg").write_text(render_config(echo))
    assert cli_main(["sweep", "--config", str(tmp_path / "rerun.cfg")]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
        tmp_path / "b" / "sweep.csv"
    ).read_bytes()


def test_detect_precedence_flags_over_config_over_defaults(tmp_path, capsys):
    config_path = tmp_path / "detect.cfg"
    config_path.write_text(
        "[model]\ndelta = 3\nj = 3\neps = 0.2\nn_th = 1e-3\n"
        "g_om_re = 0.2\ngamma_cav = 20\n\n"
        "[task]\ndelta_opt = 3\nmech_cutoff = 3\ncavity_cutoff = 2\n"
    )

    def detect(*argv):
        assert cli_main(["detect", *argv]) == 0
        return capsys.readouterr().out

    from_config = detect("--config", str(config_path), "--gamma-cav", "15")
    from_flags = detect(
        "--delta", "3", "--j", "3", "--eps", "0.2", "--n-th", "1e-3",
        "--g-om", "0.2", "--gamma-cav", "15",
        "--delta-opt", "3", "--mech-cutoff", "3", "--cavity-cutoff", "2",
    )
    # the config replaces every default it names, in [model] and in [task];
    # the flag replaces the config
    assert from_config == from_flags
    assert detect("--config", str(config_path)) != from_config
    assert detect("--config", str(config_path), "--gamma-cav", "15",
                  "--mech-cutoff", "4") != from_config


@pytest.mark.parametrize(
    "command, model, task_flags, override",
    [
        ("steady", "j = 3\neps = 0.2\n",
         {"mech_cutoff": "4", "delta_opt": "3", "root_branch": "-"}, ["--branch", "+"]),
        ("g2tau", "j = 0.71\neps = 0.01\n",
         {"mech_cutoff": "5", "tau_max": "1", "tau_points": "3"}, ["--tau-points", "4"]),
        ("detect", "j = 3\neps = 0.2\nn_th = 1e-3\ngamma_cav = 10\n",
         {"mech_cutoff": "3", "cavity_cutoff": "2", "delta_opt": "3"}, ["--cavity-cutoff", "3"]),
    ],
    ids=["steady", "g2tau", "detect"],
)
def test_point_command_reads_config_task_values_under_its_flags(
    tmp_path, capsys, command, model, task_flags, override
):
    task = "".join(f"{key} = {value}\n" for key, value in task_flags.items())
    (tmp_path / "task.cfg").write_text(f"[model]\n{model}\n[task]\n{task}")
    (tmp_path / "model.cfg").write_text(f"[model]\n{model}")
    flags = []
    for key, value in task_flags.items():
        flags += ["--branch" if key == "root_branch" else "--" + key.replace("_", "-"), value]

    def run(name, config, *argv):
        outdir = tmp_path / name
        assert cli_main(["--outdir", str(outdir), command, "--config",
                         str(tmp_path / config), *argv]) == 0
        csv = outdir / "g2tau.csv"
        return (capsys.readouterr().out.replace(str(outdir), "<dir>"),
                csv.read_bytes() if csv.exists() else None)

    from_config = run("a", "task.cfg")
    assert from_config == run("b", "model.cfg", *flags)
    overridden = run("c", "task.cfg", *override)
    assert overridden == run("d", "model.cfg", *flags, *override)
    assert overridden != from_config


# (command, [task] text, flags, the config error): each key or flag that the
# point's spec does not use, refused as a sweep refuses it
_UNUSED = [
    ("steady", "axis1 = delta\naxis1_values = 0.0\n", [], "steady does not use [task] axis1"),
    ("steady", "tau_max = 1\n", [], "steady does not use [task] tau_max"),
    ("steady", "cavity_cutoff = 2\n", [], "cavity_cutoff = 2 needs the three-mode model"),
    ("detect", "tau_points = 3\n", [], "detect does not use [task] tau_points"),
    ("g2tau", "outputs = g2_zero\n", [], "g2tau does not use [task] outputs"),
    # a branch without an optimum, as a key or as a flag
    *((command, "root_branch = -\n", [], f"{command} does not use [task] root_branch")
      for command in ("steady", "g2tau", "detect")),
    ("g2tau", "", ["--branch", "-"], "g2tau does not use [task] root_branch"),
]


@pytest.mark.parametrize("command, task, flags, message", _UNUSED,
                         ids=[f"{c}-{task or ' '.join(flags)}" for c, task, flags, _ in _UNUSED])
def test_point_command_rejects_task_key_it_has_no_flag_for(tmp_path, capsys, command, task,
                                                           flags, message):
    config_path = tmp_path / "point.cfg"
    config_path.write_text(
        f"[model]\nj = 0.71\neps = 0.01\n\n[task]\n{task}\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli_main([command, "--config", str(config_path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# the sweep output behind each line a point command prints
_PRINTED_OUTPUTS = {"steady": {"g2_0": "g2_zero", "n_b": "n_b"},
                    "detect": {"g2_b": "g2_zero", "g2_a": "g2a_zero", "n_b": "n_b"}}


@pytest.mark.parametrize(
    "command, model, task, flags",
    [
        ("steady", "j = 3\neps = 0.2\n", "mech_cutoff = 5\ndelta_opt = 3\n",
         ["--delta", "0.1", "--branch", "-"]),
        ("g2tau", "j = 0.71\neps = 0.01\n", "mech_cutoff = 5\ntau_max = 1\n",
         ["--tau-points", "3"]),
        ("detect", "j = 3\neps = 0.2\nn_th = 1e-3\n", "delta_opt = 3\ncavity_cutoff = 2\n",
         ["--delta", "1", "--mech-cutoff", "3"]),
    ],
    ids=["steady", "g2tau", "detect"],
)
def test_point_command_reports_the_sweep_of_its_spec(tmp_path, capsys, command, model, task,
                                                     flags):
    (tmp_path / "point.cfg").write_text(f"[model]\n{model}\n[task]\n{task}")
    argv = [command, "--config", str(tmp_path / "point.cfg"), *flags]
    outputs = ("g2_tau",) if command == "g2tau" else ("g2_zero",)
    spec, _ = _point_spec(build_parser().parse_args(argv), outputs, command == "detect")
    assert cli_main(["--outdir", str(tmp_path), *argv]) == 0
    out = capsys.readouterr().out
    if command == "g2tau":
        columns = run_sweep(spec).columns
        rows = [(tau, columns[f"g2_tau_{k:03d}"][0]) for k, tau in enumerate(spec.tau_grid)]
        assert (tmp_path / "g2tau.csv").read_text() == "tau,g2\n" + "".join(
            f"{tau:.12e},{g2:.12e}\n" for tau, g2 in rows)
    else:
        printed = _PRINTED_OUTPUTS[command]
        columns = run_sweep(replace(spec, outputs=tuple(printed.values()))).columns
        for name, output in printed.items():
            assert f"{name} = {columns[output][0]:.6g}\n" in out


def test_point_command_options_are_model_fields_or_task_values():
    # the dest of each point-command option names what it sets: a model field,
    # a one-value [task] key, or the config file
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    schema = set(flat_params(DetectionParams())) | set(TASK_VALUES) | {"config"}
    for command in ("steady", "g2tau", "detect"):
        dests = {action.dest for action in sub.choices[command]._actions} - {"help"}
        assert dests <= schema, command


def test_csv_na_sentinel_for_failed_rows(tmp_path, capsys):
    config_path = tmp_path / "fail.cfg"
    config_path.write_text(
        "[model]\nj = 1.0\neps = 0.01\n\n[task]\naxis1 = gamma\n"
        "axis1_values = 0.0, 1.0\n\n[output]\n"
        f"dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert "NA" in lines[1].split(",")
    assert "NA" not in lines[2].split(",")


def test_sweep_requires_config(capsys):
    assert cli_main(["sweep"]) == 1
    assert "config" in capsys.readouterr().err


def test_outdir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PHONOBLOCK_OUTDIR", str(tmp_path / "env_out"))
    code = cli_main(
        ["g2tau", "--j", "0.7", "--eps", "0.01", "--tau-max", "1", "--tau-points", "3"]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "env_out" / "g2tau.csv").exists()

"""Self-test of the benchmark's correctness gate.

Run from the repository root with ``python3 -m pytest perfbench/test_gate.py``.
Small sweeps go through the real CLI; the gate must pass their tables as
emitted and flag a row once one of its values moves by 1e-8 relative, or
reads ``NA``, or is marked unconverged.
"""

import contextlib
import csv
import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from phonoblock.cli import cli_main  # noqa: E402


def _small_configs():
    grid = workloads.make_configs("grid2", 7)[0]
    grid = replace(grid, axes=(("j", (0.71,)), ("delta", grid.axes[1][1][:3])))
    tau = workloads.make_configs("g2tau", 7)[1]
    return [grid, replace(tau, task={**tau.task, "tau_max": 1.0, "tau_points": 6})]


@pytest.fixture(scope="module", params=_small_configs(), ids=lambda cfg: cfg.name)
def emitted(request, tmp_path_factory):
    cfg = request.param
    work = tmp_path_factory.mktemp(cfg.name)
    (work / "run.cfg").write_text(cfg.render())
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["--outdir", str(work), "sweep", "--config", str(work / "run.cfg")])
    assert code == 0
    return cfg, (work / "sweep.csv").read_text(), reference.reference_table(cfg)


def _edit(text: str, row: int, column: str, new) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row][column] = new(rows[row][column])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _value_column(cfg) -> str:
    return "g2_zero" if "g2_zero" in cfg.task["outputs"] else "g2_tau_003"


def test_emitted_table_passes(emitted):
    cfg, text, ref = emitted
    assert reference.check_table(cfg, text, ref) == [None] * cfg.rows


def test_relative_perturbation_of_1e8_is_flagged(emitted):
    cfg, text, ref = emitted
    row = cfg.rows - 1
    moved = _edit(text, row, _value_column(cfg), lambda v: f"{float(v) * (1 + 1e-8):.12e}")
    reasons = reference.check_table(cfg, moved, ref)
    assert reasons[row] is not None and _value_column(cfg) in reasons[row]
    assert reasons[:row] == [None] * row


@pytest.mark.parametrize(
    "column, new", [("value", lambda v: "NA"), ("converged", lambda v: "0")]
)
def test_na_and_unconverged_rows_are_flagged(emitted, column, new):
    cfg, text, ref = emitted
    name = _value_column(cfg) if column == "value" else column
    reasons = reference.check_table(cfg, _edit(text, 0, name, new), ref)
    assert reasons[0] is not None
    assert reasons[1:] == [None] * (cfg.rows - 1)

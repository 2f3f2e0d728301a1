"""The benchmark gate's three-mode path runs in the test suite.

``perfbench/test_gate.py`` checks two-mode tables only. The ``detect3``
workload is the one that makes ``perfbench/reference.py`` read the
three-mode model from the package: ``build_h_total``, ``three_mode_space``
and the cavity's ``lowering(space, "a")``. This test runs a small
``detect3`` table through the CLI and through that dense reference, so a
rename or removal of one of those names fails here, not in the benchmark.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

from phonoblock.cli import cli_main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_three_mode_table_passes_the_gate(tmp_path, monkeypatch):
    reference, workloads = (_load(name, monkeypatch) for name in ("reference", "workloads"))
    [cfg] = workloads.make_configs("detect3", 7)
    # lowered cutoffs keep the dense reference small; both of this seed's
    # rows are converged at them
    cfg = replace(cfg, task={**cfg.task, "mech_cutoff": 4, "cavity_cutoff": 3})
    config = tmp_path / "run.cfg"
    config.write_text(cfg.render())
    assert cli_main(["--outdir", str(tmp_path), "sweep", "--config", str(config)]) == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert reference.check_table(cfg, text, reference.reference_table(cfg)) == [None, None]

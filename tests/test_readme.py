"""The README's library tour and CLI examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from phonoblock.cli import cli_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_after(heading: str, lang: str) -> str:
    section = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL).group(1)


def _cli_examples() -> dict[str, list[str]]:
    """Arguments after ``phonoblock`` of each example, keyed by their first word."""
    text = _block_after("Examples:", "bash").replace("\\\n", " ")
    examples = {}
    for line in text.splitlines():
        args = shlex.split(line)[1:]
        if args:
            examples[args[0]] = args
    return examples


def test_library_quick_tour_runs():
    namespace: dict = {}
    exec(_block_after("## Library quick tour", "python"), namespace)
    g2 = namespace["values"]["g2_zero"]
    assert 0.001 < g2 < 0.006
    assert len(namespace["series"]) == 61


@pytest.mark.parametrize("command", ["optimal", "thermal", "steady", "detect"])
def test_cli_example_exits_zero(command, capsys):
    assert cli_main(_cli_examples()[command]) == 0
    assert capsys.readouterr().out


def test_config_format_block_loads_and_runs(tmp_path):
    block = _block_after("### Config format", "ini")
    # the documented block, with its first axis cut to three points
    assert "axis1_range = -1:1:101\n" in block
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block.replace("axis1_range = -1:1:101\n", "axis1_range = -1:1:3\n"))
    assert cli_main(["--outdir", str(tmp_path), "sweep", "--config", str(cfg)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "delta,j,g2_zero,n_b,converged"
    assert len(lines) == 1 + 3 * 3

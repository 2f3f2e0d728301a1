"""Set-up probe: what a fresh ``phonoblock`` process pays before its first table.

Run as ``python3 perfbench/probe.py <workload> <seed> <workdir>``. In a new
interpreter it imports phonoblock, writes the workload's generated config
files and makes one warm-up ``sweep`` call on a one-row copy of the first
config. It prints one JSON line with the total (``setup_s``), the import part
(``import_s``) and the warm-up call's exit code.
"""

import contextlib
import json
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    from phonoblock.cli import cli_main

    imported = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    configs = workloads.make_configs(workload, seed)
    for cfg in configs:
        (workdir / f"{cfg.name}.cfg").write_text(cfg.render())
    warmup = workdir / "warmup.cfg"
    warmup.write_text(configs[0].warmup_copy().render())
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main(["--outdir", str(workdir / "out"), "sweep", "--config", str(warmup)])
    end = time.perf_counter()
    print(json.dumps({"setup_s": end - start, "import_s": imported - start, "code": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of phonoblock sweep tables, with a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a list of ``phonoblock sweep`` configs generated from the
seed (see ``workloads.py``). One closed-loop client in this process runs them
through the real entry point, ``phonoblock.cli.cli_main``, table after table,
until the next table would end past ``--seconds`` (at least two tables); the
sweep keeps its default worker count. Before that, ``probe.py`` measures set-up in fresh
interpreters. Afterwards every emitted ``g2`` value is checked against a
dense reference (``reference.py``), outside the timed region.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced tables and reports the
per-layer metrics from the traced ones (``tracing.py``); the spans are
written to ``.perfbench/traces``. Every run writes a record of the machine,
the revision and all measurements to ``.perfbench/records``. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count table rows, and ``metrics`` maps each metric to its value
and unit. The exit code is 0 only when every row passed.

``--workload all`` runs every workload in its own process and prints their
end-to-end metrics side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SECONDS = 5.0  # probes run until this much time is spent, at least three
SETUP_MIN_PROBES = 3
MIN_TABLES = 2
PROBE_TIMEOUT_S = 120


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_program():
    """Import phonoblock from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import phonoblock.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import phonoblock from {SRC}: {exc}")
    if not Path(phonoblock.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: phonoblock imported from {phonoblock.cli.__file__}")
    return phonoblock.cli


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": cpus,
        # run_sweep's default pool size; the traced run observes the threads
        "sweep_workers": min(8, cpus or 1),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "revision": revision(),
    }


def revision() -> str:
    """Git revision when the checkout is a repository, plus a hash of the sources."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    label = f"src-sha256:{digest.hexdigest()[:16]}"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True)
            label = f"git:{out.stdout.strip()} {label}"
    return label


def measure_setup(workload: str, seed: int, work: Path) -> list[dict]:
    """Set-up timings from fresh interpreters, one after the other."""
    probes = []
    start = time.perf_counter()
    while len(probes) < SETUP_MIN_PROBES or time.perf_counter() - start < SETUP_SECONDS:
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed),
             str(work / f"probe{len(probes)}")],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{out.stderr}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        if probe["code"] != 0:
            raise SystemExit(f"perfbench: warm-up sweep exited {probe['code']}:\n{out.stderr}")
        probes.append(probe)
    return probes


def run_table(cli_main, configs, paths, outdir: Path, tracer=None) -> tuple[float, list]:
    """One table: every config of the workload through ``cli_main``.

    Returns the summed wall time of the calls and each config's CSV text
    (None where the sweep wrote no table).
    """
    wall = 0.0
    texts = []
    for cfg, path in zip(configs, paths):
        if tracer is not None:
            tracer.config = cfg.name
        argv = ["--outdir", str(outdir / cfg.name), "sweep", "--config", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            cli_main(argv)
            wall += time.perf_counter() - start
        csv_path = outdir / cfg.name / "sweep.csv"
        texts.append(csv_path.read_text() if csv_path.is_file() else None)
    shutil.rmtree(outdir)
    return wall, texts


def timed_phase(cli_main, configs, paths, work: Path, seconds: float, tracer=None) -> list[dict]:
    """Tables one after another until the next would end past ``seconds``.

    At least two tables run. With a tracer they alternate untraced and
    traced.
    """
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        first_span = 0
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
        try:
            wall, texts = run_table(cli_main, configs, paths, work / f"rep{len(reps)}",
                                    tracer if traced else None)
        finally:
            if traced:
                tracer.remove()
        reps.append({"traced": traced, "wall_s": wall, "texts": texts,
                     "spans": tracer.spans[first_span:] if traced else []})
        if len(reps) >= MIN_TABLES and time.perf_counter() - start + wall > seconds:
            return reps


def gate(configs, reps: list[dict]) -> tuple[int, int, list[str]]:
    """Rows attempted and failed over all tables, with the first failure reasons.

    The first table is checked value by value against the dense reference;
    every later table must repeat it byte for byte, row by row.
    """
    import reference  # imports phonoblock, so only after import_program()

    attempted = failed = 0
    reasons: list[str] = []
    for i, cfg in enumerate(configs):
        first = reps[0]["texts"][i]
        if first is None:
            row_reasons = ["no table written"] * cfg.rows
        else:
            row_reasons = reference.check_table(cfg, first, reference.reference_table(cfg))
        first_lines = (first or "").splitlines()[1:]
        for rep in reps:
            lines = (rep["texts"][i] or "").splitlines()[1:]
            for k, reason in enumerate(row_reasons):
                if reason is None and lines[k:k + 1] != first_lines[k:k + 1]:
                    reason = "row differs from the first table"
                attempted += 1
                if reason is not None:
                    failed += 1
                    if len(reasons) < 10:
                        reasons.append(f"{cfg.name} row {k}: {reason}")
    return attempted, failed, reasons


def end_to_end(reps, probes, attempted: int, failed: int, peak_rss_mb: float) -> dict:
    wall = statistics.median(r["wall_s"] for r in reps)
    passed_per_table = (attempted - failed) / len(reps)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": wall,
        "rows_per_s": passed_per_table / wall,
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(reps, probes, configs, tracer) -> tuple[dict, dict]:
    base_dims = {cfg.name: cfg.base_dim() for cfg in configs}
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    tables = [tracing.layer_metrics(r["spans"], base_dims) for r in traced]
    metrics = {name: statistics.median(t[name] for t in tables) for name in tables[0]}
    metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    missing_layers = [
        layer for layer, targets in tracing.LAYERS.items()
        if all(f"{m}.{a}" in tracer.missing for m, a in targets)
    ]
    shares = tracing.layer_shares(metrics)
    extra = {
        "missing_targets": tracer.missing,
        "missing_metrics": [name for name in metrics
                            if any(name.startswith((layer + ".", layer + "_"))
                                   for layer in missing_layers)],
        "layer_shares": shares,
        "dominant_layer": max(shares, key=shares.get),
    }
    return metrics, extra


def run_workload(args) -> int:
    spec = load_spec()
    cli = import_program()
    configs = workloads.make_configs(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for cfg in configs:
            path = work / f"{cfg.name}.cfg"
            path.write_text(cfg.render())
            paths.append(path)
        probes = measure_setup(args.workload, args.seed, work)
        tracer = tracing.Tracer() if args.trace else None
        reps = timed_phase(cli.cli_main, configs, paths, work, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, reasons = gate(configs, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "facts": machine_facts(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "configs": [cfg.render() for cfg in configs],
        "setup_probes": probes,
        "tables": [{"traced": r["traced"], "wall_s": r["wall_s"]} for r in reps],
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
    }
    if args.trace:
        values, extra = per_layer(reps, probes, configs, tracer)
        record.update(extra)
        wanted = spec["per_layer"]
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps([s for r in reps for s in r["spans"]]))
    else:
        values = end_to_end(reps, probes, attempted, failed, peak_rss_mb)
        wanted = spec["end_to_end"]
    record["metrics"] = values
    record_path = OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    facts = record["facts"]
    print(f"{args.workload} seed={args.seed} tables={len(reps)} "
          f"workers={facts['sweep_workers']} cpus={facts['cpu_count']} "
          f"numba={facts['numba_importable']} rev={facts['revision']}")
    for reason in reasons:
        print(f"FAILED {reason}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in extra["layer_shares"].items() if v >= 0.001)
        print(f"dominant layer: {extra['dominant_layer']} ({shares})")
        if extra["missing_metrics"]:
            print("missing (wrap target gone): " + ", ".join(extra["missing_metrics"]))
    else:
        print(f"failed_frac = {values['failed_frac']:.6g} ({failed} of {attempted} rows)")
    units = {m["name"]: m["unit"] for m in wanted}
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; end-to-end metrics side by side."""
    results = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode not in (0, 1) or not lines:
            return out.returncode or 1
        results[name] = json.loads(lines[-1])
    first = next(iter(results.values()))
    rows = [("metric", *results)]
    for name, metric in first["metrics"].items():
        rows.append((f"{name} [{metric['unit']}]",
                     *(f"{r['metrics'][name]['value']:.6g}" for r in results.values())))
    if not args.trace:
        rows.append(("failed_frac [ratio]", *(f"{r['failed'] / r['attempted']:.6g}"
                                          for r in results.values())))
    width = max(len(row[0]) for row in rows)
    for row in rows:
        print(row[0].ljust(width) + "".join(f"{cell:>14}" for cell in row[1:]))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

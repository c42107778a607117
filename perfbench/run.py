"""gossipwatch benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload of workloads.py, one run at a time, each run in a fresh
process (worker.py) that calls gossipwatch.cli.main.  An untraced run
repeats passes over the timed ops for a third of ``--seconds``; runs repeat
until the passes have taken ``--seconds`` in total, with at least three
runs untraced (so set-up is measured three times) and one run traced.

Every artifact a timed op writes is hashed.  At seed 0 the digests must equal
those pinned in digests.json; at any other seed, those of the first pass of
the invocation.  An op fails on an exception, a non-zero exit code or a
digest mismatch.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record (quartiles, run counts, per-run figures, the machine) goes to
``perfbench/_out/results/``.  ``--pin`` rewrites the workload's pinned
digests from one run at seed 0, for a change that alters output bytes on
purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import FIT_EPOCHS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
DIGESTS = HERE / "digests.json"

# (metric, unit); the end-to-end metrics BENCHMARK.json lists.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

MIN_RUNS = {0: 3, 1: 1}
DEADLINE_S = 165.0
# One BLAS thread: the network layers are small enough that a second OpenBLAS
# thread costs more in synchronisation than it gains, and one process at a
# time with one thread keeps the load of a two-core machine steady.
BLAS_THREADS = 1


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
    }


def digest_failures(digests: dict[str, str], reference: dict[str, str]) -> set[str]:
    """Ops with an artifact that is changed, missing or extra against the
    reference.  An artifact belongs to the op named by its first path part."""
    return {
        path.split("/", 1)[0]
        for path in digests.keys() | reference.keys()
        if digests.get(path) != reference.get(path)
    }


def quartiles(values: list[float]) -> dict:
    """Median and quartiles as statistics.quantiles(values, n=4) gives them."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def launch(workload: str, seed: int, index: int, traced: bool, timeout: float,
           budget: float = 0.0) -> dict:
    """One run in a fresh worker process; returns its report."""
    tag = f"{workload}-{os.getpid()}-{index}"
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    report = OUT / "work" / f"{tag}.json"
    spans = OUT / "results" / f"{workload}-seed{seed}-spans-{index}.jsonl"
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--report", str(report)]
    if traced:
        cmd += ["--traced", "--spans", str(spans)]
    else:
        cmd += ["--budget", repr(budget)]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(
                f"run {index} of {workload} exited with {proc.returncode}:\n{proc.stderr}"
            )
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        with open(report) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        report.unlink(missing_ok=True)


def collect_runs(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    started = time.monotonic()
    runs, measured, longest = [], 0.0, 0.0
    while len(runs) < MIN_RUNS[trace] or measured < seconds:
        left = DEADLINE_S - (time.monotonic() - started)
        if runs and left < longest * 1.2:
            print(f"stopping after {len(runs)} runs: deadline", file=sys.stderr)
            break
        t = time.monotonic()
        runs.append(launch(workload, seed, len(runs), bool(trace), max(left, 1.0),
                           seconds / MIN_RUNS[0]))
        longest = max(longest, time.monotonic() - t)
        measured += sum(p["wall_s"] for p in runs[-1]["passes"])
    return runs


def gate(workload: str, seed: int, runs: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, verdict lines) over every pass of every run."""
    if seed == 0:
        with open(DIGESTS) as fh:
            reference, source = json.load(fh)[workload], "pinned seed-0 digests"
    else:
        reference, source = runs[0]["passes"][0]["digests"], "the first pass"
    attempted = failed = mismatched = 0
    notes = []
    for i, run in enumerate(runs):
        for p, ps in enumerate(run["passes"]):
            bad = digest_failures(ps["digests"], reference)
            mismatched += bool(bad)
            for op in ps["ops"]:
                attempted += 1
                if op["failed"] or op["name"] in bad:
                    failed += 1
                    why = op["error"] or (f"exit code {op['exit_code']}" if op["failed"]
                                          else "artifact digest mismatch")
                    notes.append(f"run {i} pass {p} op {op['name']}: {why}")
    n_files = len(reference)
    passes = sum(len(r["passes"]) for r in runs)
    verdict = "match" if not mismatched else f"MISMATCH in {mismatched} of {passes} passes"
    notes.insert(0, f"digest verdict {workload} seed {seed}: {verdict} "
                    f"({n_files} artifacts per pass, against {source})")
    return attempted, failed, notes


def end_to_end(workload: str, runs: list[dict]) -> tuple[dict, dict]:
    """BENCHMARK.json end-to-end metrics, and the workload-specific extras.
    wall_s is one untraced pass over the timed ops; set-up and memory are
    one per run."""
    passes = [(r, p) for r in runs for p in r["passes"] if not p["traced"]]
    stats = {
        "wall_s": quartiles([p["wall_s"] for _, p in passes]),
        "setup_s": quartiles([r["setup_s"] for r in runs]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in runs]),
    }
    extra = {}
    if workload == "build-torus":
        extra["samples_per_s"] = quartiles(
            [p["work"]["samples"] / p["wall_s"] for _, p in passes])
    if workload == "fit-eval":
        extra["row_epochs_per_s"] = quartiles([
            sum(r["input_rows"].values()) * FIT_EPOCHS
            / sum(op["seconds"] for op in p["ops"] if op["command"] == "train")
            for r, p in passes
        ])
    return stats, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the workload's pinned seed-0 digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gossipwatch" / "__init__.py").is_file():
        print(f"no gossipwatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    if args.pin:
        run = launch(args.workload, 0, 0, False, DEADLINE_S)
        pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        pinned[args.workload] = run["passes"][0]["digests"]
        DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(pinned[args.workload])} digests for {args.workload}",
              file=sys.stderr)
        return 0

    try:
        runs = collect_runs(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    attempted, failed, notes = gate(args.workload, args.seed, runs)
    stats, extra = end_to_end(args.workload, runs)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(), "runs": len(runs),
        "attempted": attempted, "failed": failed,
        "failed_ops_ratio": failed / attempted, "notes": notes,
        "end_to_end": stats, "extra": extra,
        "per_run": [
            {"setup_s": r["setup_s"], "peak_rss_mb": r["peak_rss_mb"],
             "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                         "cpu_s": sum(op["cpu_s"] for op in p["ops"]),
                         "ops": {op["name"]: op["seconds"] for op in p["ops"]}}
                        for p in r["passes"]]}
            for r in runs
        ],
    }
    if args.trace:
        layers = {name: [r["layers"][name] for r in runs] for name, _ in PER_LAYER}
        record["per_layer"] = {name: quartiles(v) for name, v in layers.items()}
        notes += [f"count {name} differs between runs: {layers[name]}"
                  for name, unit in PER_LAYER
                  if unit in ("count", "B", "B_computed") and len(set(layers[name])) > 1]
        metrics = {
            name: {"value": record["per_layer"][name]["median"], "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    out = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for line in notes:
        print(line, file=sys.stderr)
    for name, s in {**stats, **extra}.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}", file=sys.stderr)
    print(f"{args.workload} failed_ops_ratio: {failed}/{attempted}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run in a fresh process: set-up, then the workload's timed ops.

Set-up is the interpreter start, the imports, the warm-up ops and the ops
that write the workload's inputs.  Each timed op is one call of
``gossipwatch.cli.main``, timed from outside the program.  After a pass over
the ops, the worker hashes every artifact the ops wrote, then deletes them.

A plain run repeats untraced passes until they took ``--budget`` seconds,
and makes at least one.  A traced run records spans during
set-up, then makes one untraced and one traced pass; its per-layer metrics
cover the set-up and the traced pass.

run.py starts this script; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload W --seed N --workdir DIR \
        --report FILE --t0 MONOTONIC [--budget S | --traced --spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WARMUP, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """gossipwatch.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gossipwatch.cli

    where = Path(gossipwatch.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"gossipwatch imported from {where}, not from {src}")
    return gossipwatch.cli


def run_op(main, op, tracer=None) -> dict:
    """Call the CLI once; the op fails on an exception or a non-zero exit code."""
    error, code = None, None
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        if tracer is None:
            code = main(list(op.argv))
        else:
            code = tracer.call("cli.main", main, None, (list(op.argv),), {})
    except Exception as err:  # noqa: BLE001 - a failing op is recorded, not fatal
        error = f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    return {
        "name": op.name,
        "command": op.argv[0],
        "seconds": seconds,
        "cpu_s": time.process_time() - cpu,
        "exit_code": code,
        "error": error,
        "failed": error is not None or code != 0,
    }


def hash_artifacts(workdir: Path, op_names) -> dict[str, str]:
    """SHA-256 of every file under each op's output directory, keyed by the
    path relative to the run directory."""
    digests = {}
    for name in op_names:
        base = workdir / name
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digests[path.relative_to(workdir).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
    return digests


def manifest_rows(workdir: Path, op_name: str, kind: str, split: str | None = None) -> int:
    """Rows of the gen-data datasets of one feature kind (and split), read from
    the manifest an op wrote."""
    with open(workdir / op_name / "manifest.json") as fh:
        datasets = json.load(fh)["datasets"]
    return sum(
        meta["rows"] for meta in datasets.values()
        if meta["kind"] == kind and (split is None or meta["split"] == split)
    )


def run_pass(main, ops, workdir: Path, tracer=None) -> dict:
    results = [run_op(main, op, tracer) for op in ops]
    wall = sum(r["seconds"] for r in results)
    work = {}
    if ops[0].argv[0] == "gen-data" and not results[0]["failed"]:
        # One sample is one monitor x K instances; on the torus every monitor
        # has degree M, so each sample is one temporal row.
        work["samples"] = manifest_rows(workdir, ops[0].name, "temporal")
    digests = hash_artifacts(workdir, [op.name for op in ops])
    for op in ops:
        shutil.rmtree(workdir / op.name, ignore_errors=True)
    return {"traced": tracer is not None, "wall_s": wall, "ops": results,
            "digests": digests, "work": work}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="untraced passes repeat until they took this many seconds")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="JSON-lines file for the spans of a traced run")
    args = parser.parse_args(argv)

    cli = import_program()
    workdir = Path(args.workdir)
    os.chdir(workdir)
    inputs, ops = WORKLOADS[args.workload][0](args.seed)

    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install()
        if tracer.unbound:
            print(f"trace: no caller binds {', '.join(tracer.unbound)}", file=sys.stderr)
    for op in WARMUP + inputs:
        result = run_op(cli.main, op, tracer)
        if result["failed"]:
            print(f"set-up op {op.name} failed: {result}", file=sys.stderr)
            return 3
    if tracer:
        tracer.uninstall()
    setup_s = time.monotonic() - args.t0

    passes = [run_pass(cli.main, ops, workdir)]
    while not args.traced and sum(p["wall_s"] for p in passes) < args.budget:
        passes.append(run_pass(cli.main, ops, workdir))
    report = {"setup_s": setup_s, "input_rows": {}}
    if inputs:
        report["input_rows"] = {
            kind: manifest_rows(workdir, inputs[0].name, kind, "train")
            for kind in ("temporal", "spatial")
        }
    if tracer:
        tracer.run_id = "pass"
        tracer.install()
        passes.append(run_pass(cli.main, ops, workdir, tracer))
        tracer.uninstall()
        overhead = passes[1]["wall_s"] - passes[0]["wall_s"]
        report["layers"] = layer_metrics(tracer.spans, tracer.counts, overhead)
        if args.spans:
            with open(args.spans, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s.__dict__) + "\n")
    report["passes"] = passes
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one fresh worker process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload warm-serve --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload twice, untraced and then with per-layer spans, prints
the per-layer table and reports the tracing overhead.  The human
report goes first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
(the metrics ``BENCHMARK.json`` declares for that mode).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, ".results")

#: Every run is alone on its cores: numeric libraries get one thread.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: A run must end within this many seconds, workers included.
RUN_LIMIT_S = 170.0

#: End-to-end figures the traced run compares against the untraced one.
OVERHEAD_OF = ("setup_s", "route_ms_p50", "serve_rps")


def source_digest() -> str:
    """sha256 over the program's sources (the checkout is not always a
    git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_worker(args, workdir: str, trace: int, deadline: float) -> dict:
    """One workload in a fresh process; returns its result record."""
    out = os.path.join(workdir, f"result-trace{trace}.json")
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # A user's cache="auto" store must never turn a cold build into a
    # hit: point it at this run's own, empty directory.
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "user-cache")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--workdir", os.path.join(workdir, f"w{trace}"),
        "--out", out,
    ]
    if trace:
        command += ["--spans", os.path.join(
            RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    os.makedirs(os.path.join(workdir, f"w{trace}"))
    done = subprocess.run(
        command, cwd=ROOT, env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"worker exited with {done.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def check_rounds(workload: str, seed: int, rounds: float) -> bool:
    """``rounds_total`` must equal the first run's for this seed."""
    path = os.path.join(RESULTS, "rounds.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    key = f"{workload}:{seed}"
    if key in known:
        return known[key] == rounds
    known[key] = rounds
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(temp, path)
    return True


def report(result: dict, provenance: dict) -> None:
    """The human-readable part: provenance, figures, failures."""
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']} wall {result['wall_s']:.2f} s")
    for key, value in provenance.items():
        print(f"#   {key}: {value}")
    print(f"{'metric':<22} {'value':>16} {'unit':<7} {'samples':>7}")
    for name, row in result["end_to_end"].items():
        print(f"{name:<22} {row['value']:>16.6g} {row['unit']:<7} "
              f"{row['n']:>7d}")
    print(f"error_rate base: {result['failed']} failed of "
          f"{result['attempted']} checks")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    if result.get("error"):
        print(result["error"])
    if result.get("notes"):
        print(f"notes: {json.dumps(result['notes'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(
        HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir)
    try:
        untraced = run_worker(args, workdir, 0, deadline)
        traced = run_worker(args, workdir, 1, deadline) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": untraced.get("numpy", "?"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "threads": THREAD_ENV,
    }
    results = [untraced] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in results) + 1
    failed = sum(r["failed"] for r in results)
    rounds = untraced["end_to_end"]["rounds_total"]["value"]
    if not check_rounds(args.workload, args.seed, rounds):
        failed += 1
        untraced["failures"].append(
            f"rounds_total {rounds!r} differs from the first run's")
    for result in results:
        report(result, provenance)
        with open(os.path.join(
            RESULTS,
            f"{args.workload}-seed{args.seed}-trace{result['trace']}.json",
        ), "w", encoding="utf-8") as handle:
            json.dump(dict(result, provenance=provenance), handle, indent=1)

    metrics = {}
    if traced is None:
        wanted = spec["end_to_end"]
        values = {k: v["value"] for k, v in untraced["end_to_end"].items()}
    else:
        print(traced["table"])
        wanted = spec["per_layer"]
        values = dict(traced["per_layer"])
        for name in OVERHEAD_OF:
            base = untraced["end_to_end"].get(name)
            slow = traced["end_to_end"].get(name)
            if base and slow and base["value"]:
                values[f"trace.overhead.{name}"] = (
                    slow["value"] / base["value"] - 1.0
                )
                print(f"tracing overhead on {name}: "
                      f"{values[f'trace.overhead.{name}']:+.1%} "
                      f"({base['value']:.6g} -> {slow['value']:.6g} "
                      f"{base['unit']})")
    for metric in wanted:
        name = metric["name"]
        if traced is None and name not in values:
            print(f"error: workload did not measure {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": float(values.get(name, 0.0)),
                         "unit": metric["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

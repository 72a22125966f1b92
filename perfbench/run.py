"""Benchmark of the cwhom command line: three workloads, outside-in tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload source-model --seed 1 --seconds 30 --trace 0

Each pass of a workload is one fresh interpreter (``worker.py``) that
imports ``cwhom.cli`` and makes the workload's CLI calls once, each call
starting when the previous one returned; nothing else runs meanwhile.
A fresh process per pass matters because ``rates`` keeps a process-wide
``lru_cache``: a second pass in one process would measure another
program. Passes repeat while one more, at the last pass's pace, brings
the measured time closer to ``--seconds`` (at least one runs); metrics
are medians over passes. Set-up time is additionally sampled from
import-only interpreters.

The first pass's artifacts are checked for correctness, outside any
timed region; every later pass must reproduce them byte for byte.
``--trace 1`` runs the untraced passes, then one traced pass, and
reports the per-layer metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0

# per-call stages reported as per-layer metrics, with the seconds they time
STAGE_SECONDS = {
    "stage.fit_s": "fit",
    "stage.dip_scan_s": "dip_scan",
    "stage.oracle_check_s": "oracle_check",
    "stage.optimize_cold_s": "optimize_cold",
    "stage.optimize_warm_s": "optimize_warm",
    "stage.vismap_s": "vismap",
}


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, work: str, trace: str, env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), work, trace]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded the run budget of {RUN_BUDGET_S:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest(calls: list) -> dict:
    out = {}
    for call in calls:
        path = checks.out(call)
        if os.path.exists(path):
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[os.path.basename(path)] = h.hexdigest()
    return out


def _stage_metrics(passes: list) -> dict:
    """Median per-call figures over untraced passes; 0 for stages a workload lacks."""
    per_pass = []
    for p in passes:
        times = {c["stage"]: c["s"] for c in p["calls"]}
        m = {name: times.get(stage, 0.0) for name, stage in STAGE_SECONDS.items()}
        m["stage.simulate_events_per_s"] = 0.0
        m["stage.count_events_per_s"] = 0.0
        if "simulate" in times:
            sim = next(c for c in p["calls"] if c["stage"] == "simulate")
            n = checks.meta(sim)["n_events"]
            m["stage.simulate_events_per_s"] = n / times["simulate"]
            m["stage.count_events_per_s"] = statistics.median(
                n / s for stage, s in times.items() if stage.startswith("count_")
            )
        per_pass.append(m)
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: str) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(root, OUT_DIR, workload)
    os.makedirs(work, exist_ok=True)
    paths = workloads.prepare(workload, root, work)
    with open(os.path.join(work, "paths.json"), "w") as fh:
        json.dump(paths, fh)
    sequence = workloads.calls(workload, paths, work, seed)

    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    setup = [_worker(workload, seed, work, "setup", env, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

    passes, errors, reference = [], [], None
    measured = 0.0
    while True:
        p0 = time.monotonic()
        p = _worker(workload, seed, work, "0", env, deadline)
        wall = time.monotonic() - p0
        measured += wall
        for call, (_, argv) in zip(p["calls"], sequence):
            call["argv"] = argv
        passes.append(p)
        if reference is None:
            by_stage = {c["stage"]: c for c in p["calls"]}
            try:
                errors += checks.check(workload, by_stage, paths)
            except Exception as exc:  # a missing or malformed artifact fails the run
                errors.append(f"check raised {type(exc).__name__}: {exc}")
            reference = _digest(p["calls"])
        elif _digest(p["calls"]) != reference:
            errors.append(f"pass {len(passes)} artifacts differ from pass 1")
        # stop once another pass would overshoot --seconds by more than the
        # total falls short of it; stopping whenever a whole pass does not
        # fit would leave exactly the slow first passes unaveraged
        if measured + wall / 2 > seconds:
            break

    traced = None
    if trace:
        traced = _worker(workload, seed, work, "1", env, deadline)
        for call, (_, argv) in zip(traced["calls"], sequence):
            call["argv"] = argv
        if _digest(traced["calls"]) != reference:
            errors.append("traced pass artifacts differ from the untraced pass")

    all_calls = [c for p in passes + ([traced] if traced else []) for c in p["calls"]]
    failed = sum(1 for c in all_calls if c["rc"] != 0)
    if trace:
        untraced = statistics.median(p["workload_s"] for p in passes)
        metrics = dict(traced["layers"])
        metrics.update(_stage_metrics(passes))
        metrics["trace.workload_s"] = traced["workload_s"]
        metrics["trace.untraced_workload_s"] = untraced
        metrics["trace.overhead_s"] = traced["workload_s"] - untraced
    else:
        metrics = {
            "setup_s": statistics.median(setup + [p["setup_s"] for p in passes]),
            "workload_s": statistics.median(p["workload_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    return {
        "errors": errors,
        "passes": len(passes),
        "call_s": {stage: statistics.median(p["calls"][i]["s"] for p in passes)
                   for i, (stage, _) in enumerate(sequence)},
        "correct": not errors,
        "attempted": len(all_calls),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # passes inherit the environment: BLAS threads stay at their default,
    # and the optimizer's own thread pool stays off
    os.environ.pop("CWHOM_THREADS", None)
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "cwhom", "cli.py")) and os.path.isfile(spec_path)):
        print("run from the root of a cwhom checkout (src/cwhom and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, os.path.join(root, "src"))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 3
        finally:
            for bulk in workloads.BULK_FILES.get(name, ()):
                path = os.path.join(root, OUT_DIR, name, bulk)
                if os.path.exists(path):
                    os.remove(path)
        missing = [m["name"] for m in declared if m["name"] not in res["metrics"]]
        if missing:
            print(f"{name}: metrics not measured: {missing}", file=sys.stderr)
            return 3
        for err in res["errors"]:
            print(f"{name}: CHECK FAILED: {err}", file=sys.stderr)
        print(f"# {name}: seed {args.seed}, {res['passes']} pass(es), "
              f"{res['attempted']} calls attempted, {res['failed']} failed, "
              f"checks {'passed' if res['correct'] else 'FAILED'}")
        print("#   calls (median s): " + ", ".join(f"{k} {v:.3f}" for k, v in res["call_s"].items()))
        metrics = {}
        for m in declared:
            value = float(res["metrics"][m["name"]])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"#   {m['name']} = {value:.6g} {m['unit']}")
        print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
        if not res["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh interpreter.

Usage: worker.py WORKLOAD SEED WORK_DIR TRACE  (TRACE: 0, 1, or "setup")

Times the import of ``cwhom.cli`` (set-up), then each CLI call of the
workload in order, each starting when the previous one returned. With
TRACE=1 the layers are wrapped after the import and the spans are
written to WORK_DIR/trace.jsonl. With TRACE=setup only the import is
timed. Prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    workload, seed, work, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    t0 = time.perf_counter()
    import cwhom.cli

    setup_s = time.perf_counter() - t0
    if trace == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    with open(os.path.join(work, "paths.json")) as fh:
        paths = json.load(fh)
    sequence = workloads.calls(workload, paths, work, seed)
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(run_id=f"{workload}-seed{seed}-pid{os.getpid()}")
        tracer.install()
    main_fn = cwhom.cli.main  # looked up after install, so the traced main when tracing

    calls = []
    start = time.perf_counter()
    for stage, argv in sequence:
        out = io.StringIO()
        c0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = main_fn(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        c1 = time.perf_counter()
        calls.append({"stage": stage, "rc": rc, "s": c1 - c0, "stdout": out.getvalue()})
    workload_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "workload_s": workload_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.write(os.path.join(work, "trace.jsonl"))
        result["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

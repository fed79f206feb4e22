"""One benchmark pass in a fresh interpreter, so that ringgraph's caches start cold.

    PYTHONPATH=src python3 perfbench/worker.py '<request as JSON>'

The parent reads the monotonic clock just before starting this process;
IMPORTED_NS, taken right after `import ringgraph`, ends the set-up interval.
A request is {"mode": "setup"} or {"mode": "pass", "workload", "scale",
"seed", "round", "trace", "spans_path"}.  The reply is one JSON line on
stdout.  A set-up probe then also times calibrate.kernel, from which the
harness gauges the host's speed around each pass.
"""

import json
import os
import resource
import sys
import time
import traceback

import ringgraph  # noqa: F401  (set-up ends here)

IMPORTED_NS = time.monotonic_ns()


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(req: dict) -> dict:
    import numpy as np
    import tracing
    import workloads

    queries = workloads.prepare(req["workload"], req["scale"], req["seed"], req["round"])
    tracer = tracing.Tracer() if req["trace"] else None
    answers, errors, times = [], [], []
    if tracer is not None:
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        for q in queries:
            start = time.perf_counter()
            try:
                answers.append(q.run())
                errors.append(None)
            except Exception as exc:  # a raising query is a failed operation
                answers.append(None)
                errors.append("raised " + "".join(traceback.format_exception_only(exc)).strip())
            times.append(time.perf_counter() - start)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for i, (q, answer) in enumerate(zip(queries, answers)):
        if errors[i] is None:
            try:
                errors[i] = q.check(answer)
            except Exception as exc:
                errors[i] = "check raised " + "".join(traceback.format_exception_only(exc)).strip()

    reply = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "queries": [{"name": q.name, "s": s, "error": e} for q, s, e in zip(queries, times, errors)],
        "numpy": np.__version__,
    }
    if tracer is not None:
        reply["layers"] = tracing.layer_metrics(tracer, wall_s)
        reply["layer_units"] = tracing.LAYER_UNITS
        tracer.dump(req["spans_path"])
    return reply


def main() -> int:
    req = json.loads(sys.argv[1])
    if req["mode"] == "setup":
        import calibrate

        reply = {"imported_ns": IMPORTED_NS, "calib_s": calibrate.kernel(),
                 "calib_ref_s": calibrate.REF_S}
    else:
        reply = run_pass(req)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

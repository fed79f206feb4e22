"""Benchmark harness for ringgraph: one workload per call, every answer checked.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 56 --trace 0

Run it from the root of a ringgraph checkout; it needs only the standard
library here and numpy in the worker.  Each pass runs in a fresh
interpreter (perfbench/worker.py) so that the `_build_ring` cache and the
per-ring automorphism caches start cold, as on every CLI call; there are no
warm-up passes.  Passes repeat until the next one would end after
`--seconds`, one at a time (a closed loop with one client).  An untraced
run starts SETUP_PER_PASS probe interpreters before each pass and after
the last; each probe gives a set-up time and a time of calibrate.kernel.
The end-to-end times are medians adjusted for the host's speed: each is
multiplied by calibrate.REF_S over the run's mean kernel time.  The
unadjusted medians and the factor are in the `env` line.  With `--trace 1`
passes alternate traced and untraced on the same inputs, and the per-layer
metrics, unadjusted, come from the traced ones.

Output: one summary line (PASS or FAIL), one `env` line, and as the last
line the result object {"correct", "attempted", "failed", "metrics"}.  The
full record, with every pass and query, goes to .perfbench/ in the
checkout, next to the spans of traced passes.  Exit code 0 when every
answer was right, 1 when one was not, 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BENCHMARK.json lists catalog and verify; big-rings, with passes of about
# 20 s, gets one or two passes in a run and is run by hand (see README.md)
WORKLOADS = ("catalog", "verify", "big-rings")
SETUP_PER_PASS = 2
# a run must end within 180 s; no pass starts that could end after this
HARD_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _git_commit(root: Path):
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _git_commit(root),
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py"))
        ),
    }


class Worker:
    """Starts perfbench/worker.py for one request and waits for its reply."""

    def __init__(self, root: Path):
        self.root = root
        self.argv = [sys.executable, str(root / "perfbench" / "worker.py")]
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def call(self, request: dict, timeout: float):
        """(reply or None, error or None, start in monotonic ns, seconds taken)."""
        start = time.monotonic_ns()
        try:
            proc = subprocess.run(
                self.argv + [json.dumps(request)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            return None, f"worker timed out after {timeout:.0f} s", start, timeout
        taken = (time.monotonic_ns() - start) / 1e9
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            return None, f"worker exit code {proc.returncode}: {tail[0]}", start, taken
        return json.loads(proc.stdout.strip().splitlines()[-1]), None, start, taken


def probe(worker: Worker, n: int, problems: list) -> list:
    """n (set-up seconds, calibration kernel seconds, REF_S), each from a fresh interpreter."""
    samples = []
    for _ in range(n):
        reply, error, start, _ = worker.call({"mode": "setup"}, 60.0)
        if error:
            problems.append("set-up probe: " + error)
        else:
            samples.append(((reply["imported_ns"] - start) / 1e9, reply["calib_s"],
                            reply["calib_ref_s"]))
    return samples


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1, help="input seed (default 1; hold-out seed 7919)")
    p.add_argument("--seconds", type=float, default=56.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the harness smoke test")
    return p.parse_args(argv)


def run(args, root: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, full record)."""
    started = time.monotonic()
    env = environment(root)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    worker = Worker(root)
    problems: list[str] = []

    # probe samples, taken before each pass of an untraced run and after its
    # last, so that they are spread over the same stretch of time as the passes
    samples: list[tuple] = []
    passes: list[dict] = []
    longest = probe_s = 0.0
    n_probe = 0 if args.trace else SETUP_PER_PASS
    loop_start = time.monotonic()
    while True:
        step_start = time.monotonic()
        samples += probe(worker, n_probe, problems)
        probe_s = max(probe_s, time.monotonic() - step_start)
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 0
        round_ = k // 2 if args.trace else k
        request = {
            "mode": "pass", "workload": args.workload, "scale": args.scale,
            "seed": args.seed, "round": round_, "trace": traced,
            "spans_path": str(out_dir / f"spans-{args.workload}-seed{args.seed}-pass{k}.json"),
        }
        left = HARD_LIMIT_S - (time.monotonic() - started)
        reply, error, _, taken = worker.call(request, left)
        passes.append({"pass": k, "round": round_, "traced": traced, "seconds": taken,
                       "reply": reply, "error": error})
        if error:
            problems.append(f"pass {k}: {error}")
            break
        longest = max(longest, time.monotonic() - step_start)
        pair_open = bool(args.trace) and len(passes) % 2 == 1
        if time.monotonic() - started + longest + probe_s > HARD_LIMIT_S:
            break
        if not pair_open and time.monotonic() - loop_start + longest + probe_s > args.seconds:
            break
    samples += probe(worker, n_probe, problems)

    attempted = failed = 0
    for p in passes:
        if p["reply"] is None:
            attempted += 1
            failed += 1
            continue
        env.setdefault("numpy", p["reply"]["numpy"])
        for q in p["reply"]["queries"]:
            attempted += 1
            if q["error"]:
                failed += 1
                problems.append(f"pass {p['pass']} query {q['name']}: {q['error']}")

    plain = [p["reply"] for p in passes if p["reply"] and not p["traced"]]
    traced = [p["reply"] for p in passes if p["reply"] and p["traced"]]
    if args.trace:
        values, units = {}, {"bench.trace_overhead_s": "s"}
        if traced:
            units.update(traced[0]["layer_units"])
            values = {name: statistics.median(r["layers"][name] for r in traced)
                      for name in traced[0]["layers"]}
        pairs = [(passes[i]["reply"], passes[i + 1]["reply"])
                 for i in range(0, len(passes) - 1, 2)
                 if passes[i]["reply"] and passes[i + 1]["reply"]]
        if pairs:
            values["bench.trace_overhead_s"] = statistics.median(
                t["wall_s"] - u["wall_s"] for t, u in pairs)
    else:
        values, raw = {}, {}
        if plain and samples:
            raw = {
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "setup_s": statistics.median(s for s, _, _ in samples),
                "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            }
            # REF_S over the run's mean kernel time (see calibrate.py)
            factor = samples[0][2] / statistics.mean(c for _, c, _ in samples)
            values = {name: v * factor for name, v in raw.items()}
            values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
            values["ok_ratio"] = (attempted - failed) / attempted
            raw = dict(raw, host_factor=factor)
        env["unadjusted"] = raw
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    record = {
        "args": vars(args), "env": env, "probes": samples, "passes": passes,
        "problems": problems, "result": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    with open(out_dir / name, "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "ringgraph" / "__init__.py").is_file():
        print(f"perfbench: no ringgraph sources at {root / 'src'}; "
              "run from the root of a ringgraph checkout", file=sys.stderr)
        return 2
    result, record = run(args, root)
    for problem in record["problems"]:
        print("FAIL " + problem)
    if not result["metrics"]:
        print(f"perfbench: no pass of {args.workload} completed", file=sys.stderr)
        return 1
    status = "PASS" if result["correct"] else "FAIL"
    n_traced = sum(p["traced"] for p in record["passes"])
    print(f"{status} {args.workload} seed {args.seed}: {len(record['passes'])} passes "
          f"({n_traced} traced), {result['attempted']} queries, {result['failed']} failed")
    print("env " + json.dumps(record["env"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

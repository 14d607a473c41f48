"""Benchmark of qdl: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload expsum-generic --seed 1 --seconds 22 --trace 0

The workload runs in one worker process (worker.py) as a closed loop with
one caller.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; ``setup_s`` is the median of SETUP_SAMPLES set-ups, each timed from
process start to the first timed operation: SETUP_SAMPLES - 1 probe processes
that set up and exit, then the worker itself.  With ``--trace 1`` one traced
worker runs and the line carries the per-layer metrics (tracing.py).

The full result, with the worker's ``info`` block, is also written to
perfbench/out/result-<workload>-seed<seed>-trace<0|1>.json.
This file uses the standard library only; the program is imported by the
worker from the checkout's src/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker; return (seconds from start to its 'ready' line, the
    stdout lines after it).  The worker is killed at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} failed with exit code {code}")
    return setup, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qdl", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src', 'qdl')}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_worker(common + ["--probe"], deadline)[0])
        setup, lines = _run_worker(common, deadline)
        setups.append(setup)
        result = json.loads(lines[-1])
    except (BenchError, IndexError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info = result.pop("info")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_samples_s"] = setups
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "info": info}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

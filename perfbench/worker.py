"""One workload in one process: set-up, warm-up, the timed loop, the checks.

Started by run.py, which times the set-up from outside (process start to
the ``ready`` line).  The timed loop is closed with one caller: each
operation starts after the previous one returned.  It attempts whole rounds
until ``--seconds`` have passed, with ``gc.collect()`` between operations
outside the timed region.  Peak RSS is read as soon as the loop ends, before
any check allocates.  The last stdout line is the result JSON; run.py adds
``setup_s`` and strips ``info``.
"""

import os

# one BLAS / OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WINDOWS = 5  # ops_per_s is the median over this many stretches of a run


def _import_program():
    """Import qdl from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import qdl

    if not os.path.abspath(qdl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qdl imported from {qdl.__file__}, not from {SRC}")


def _timed_loop(wl, seconds, tracer):
    ops, results, times, round_ends = [], [], [], []
    start = time.perf_counter()
    exhausted = True
    for rnd in wl.rounds:
        if time.perf_counter() - start >= seconds:
            exhausted = False
            break
        round_ends.append(len(ops) + len(rnd))
        for op in rnd:
            gc.collect()
            t0 = time.perf_counter()
            try:
                res = tracer.op(wl.run, op) if tracer else wl.run(op)
            except Exception as exc:  # a program fault: the op counts as failed
                traceback.print_exc()
                res = exc
            times.append(time.perf_counter() - t0)
            ops.append(op)
            results.append(res)
    return ops, results, times, round_ends, time.perf_counter() - start, exhausted


def _ops_per_s(times, round_ends):
    """Median over WINDOWS runs of whole rounds of ops / timed wall time.

    The machine's other tenants slow some stretches of a run; a median over
    windows keeps one slow stretch from moving the figure."""
    k = min(WINDOWS, len(round_ends))
    cuts = [0] + [round_ends[(i + 1) * len(round_ends) // k - 1] for i in range(k)]
    return statistics.median((b - a) / sum(times[a:b]) for a, b in zip(cuts, cuts[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up, warm up, print 'ready' and exit")
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    wl.warmup()
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops, results, times, round_ends, loop_s, exhausted = _timed_loop(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    if exhausted:
        print(f"warning: {args.workload} ran out of inputs after {loop_s:.1f} s",
              file=sys.stderr)

    done = [i for i, r in enumerate(results) if not isinstance(r, Exception)]
    statuses, check_info = wl.verify([ops[i] for i in done], [results[i] for i in done])
    wrong = len(ops) - len(done) + statuses.count(workloads.WRONG)
    known = statuses.count(workloads.KNOWN)

    ops_per_s = _ops_per_s(times, round_ends)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": len(ops), "rounds": len(round_ends),
            "loop_s": loop_s, "exhausted_inputs": exhausted, "known_fault_ops": known,
            "wrong_ops": wrong, "ops_per_s": ops_per_s, **check_info}
    if tracer:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        info["trace_file"] = os.path.relpath(path, ROOT)
        metrics = tracer.metrics()
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "ops/s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
                          "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    out = {"correct": wrong == 0, "attempted": len(ops), "failed": wrong + known,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "info": info}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/summary.py --workloads rankin euler-product --seeds 1 2 3 4 5
    python3 perfbench/summary.py --trace 1 --seeds 1 2 3

For every workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound from BENCHMARK.json, plus the share of failed operations
per run.  Runs are sequential, one at a time.  The summary is also written to
perfbench/out/summary-<workload>-trace<0|1>.json; with --trace 1, and an
untraced summary of the same workload present, the tracing overhead
(untraced over traced ops/s, minus one) is reported too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(OUT, exist_ok=True)

    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            with open(os.path.join(OUT, f"result-{wl}-seed{seed}-trace{args.trace}.json")) as fh:
                runs[-1]["info"] = json.load(fh)["info"]
        shares = [r["failed"] / r["attempted"] for r in runs]
        summary = {"workload": wl, "trace": args.trace, "seconds": args.seconds,
                   "seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                   "attempted": [r["attempted"] for r in runs], "failed_share": shares,
                   "metrics": {}}
        print(f"{wl}: correct={summary['correct']} attempted={summary['attempted']} "
              f"failed share={sorted(set(shares))}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"],
                                        "median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f} ({spread / bound:.0%} of it)"
            print(f"  {name:45s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:7.2%}{flag}")
        if args.trace:
            traced = statistics.median(r["info"]["ops_per_s"] for r in runs)
            summary["traced_ops_per_s"] = traced
            try:
                with open(os.path.join(OUT, f"summary-{wl}-trace0.json")) as fh:
                    untraced = json.load(fh)["metrics"]["ops_per_s"]["median"]
                summary["tracing_overhead"] = untraced / traced - 1.0
                print(f"  tracing overhead {summary['tracing_overhead']:.1%} "
                      f"({untraced:.3f} untraced vs {traced:.3f} traced ops/s)")
            except FileNotFoundError:
                pass
        with open(os.path.join(OUT, f"summary-{wl}-trace{args.trace}.json"), "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

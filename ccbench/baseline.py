#!/usr/bin/env python3
"""Repeated runs of the benchmark, summarized per workload and metric.

Runs the command BENCHMARK.json names, from the repository root, with
`--workload`, `--seed`, `--seconds` and `--trace`, and for each workload
reports every metric's median and its spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.

    python3 ccbench/baseline.py spread --seeds 1-10
        one set: every workload once per seed; fails (exit 1) when a
        spread other than setup_s reaches a third of its bound, or a run
        is incorrect.

    python3 ccbench/baseline.py record --seeds 1-10 --gap-minutes 10
        two such sets, the second in the opposite workload order after
        the gap, plus one traced run per workload; writes
        ccbench/baselines/BASELINE_<host>_<utc>.json and fails when the
        two sets' medians disagree by more than a metric's bound.
"""

import argparse
import datetime
import json
import os
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    extras = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                extras[parts[0]] = float(parts[1])
            except ValueError:
                pass
    print(f"  {workload:15} seed {seed:3} trace {int(trace)}: {took:6.1f}s "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
          flush=True)
    return {"seed": seed, "seconds": round(took, 2), "result": result, "printed": extras}


def summarize(runs, metrics):
    out = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                  if m["name"] in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "values": values,
        }
    return out


def one_set(bench, seeds, order):
    runs = {w: [] for w in order}
    for seed in seeds:
        for w in order:
            runs[w].append(run_once(bench, w, seed, trace=False))
    return runs


def report_spreads(bench, runs):
    ok = True
    for w, rs in runs.items():
        if not all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in rs):
            print(f"{w}: a run was incorrect")
            ok = False
        summary = summarize(rs, bench["end_to_end"])
        for m in bench["end_to_end"]:
            s = summary[m["name"]]
            limit = m["bound"] / 3
            flag = "" if m["name"] == "setup_s" or s["iqr_share"] < limit else "  <-- spread too wide"
            if flag:
                ok = False
            print(f"  {w:15} {m['name']:22} median {s['median']:<14.6g} "
                  f"spread {100 * s['iqr_share']:6.2f}% (bound/3 {100 * limit:.2f}%){flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["spread", "record"])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--gap-minutes", type=float, default=10.0)
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    args = ap.parse_args()
    bench = load_benchmark()
    order = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        order = [w for w in order if w in args.workloads.split(",")]

    print(f"set A: workloads {order}, seeds {args.seeds[0]}..{args.seeds[-1]}", flush=True)
    start_a = time.time()
    set_a = one_set(bench, args.seeds, order)
    ok = report_spreads(bench, set_a)
    if args.mode == "spread":
        sys.exit(0 if ok else 1)

    wait = start_a + 60 * args.gap_minutes - time.time()
    if wait > 0:
        print(f"waiting {wait:.0f}s before set B", flush=True)
        time.sleep(wait)
    print(f"set B: workloads {order[::-1]}", flush=True)
    set_b = one_set(bench, args.seeds, order[::-1])
    ok = report_spreads(bench, set_b) and ok
    traced = {w: run_once(bench, w, args.seeds[0], trace=True) for w in order}

    record = {
        "host": socket.gethostname(),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ"),
        "cpus": os.cpu_count(),
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    print("set agreement (B median vs A median, worse direction):")
    for w in order:
        a = summarize(set_a[w], bench["end_to_end"])
        b = summarize(set_b[w], bench["end_to_end"])
        agreement = {}
        for m in bench["end_to_end"]:
            ma, mb = a[m["name"]]["median"], b[m["name"]]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            agreement[m["name"]] = worse
            flag = "" if worse <= m["bound"] else "  <-- exceeds bound"
            if flag:
                ok = False
            print(f"  {w:15} {m['name']:22} {100 * worse:+7.2f}% (bound {100 * m['bound']:.0f}%){flag}")
        t = traced[w]["result"]["metrics"]
        op_a = a["op_ms_p50"]["median"]
        record["workloads"][w] = {
            "set_a": {"order": order, "runs": set_a[w], "summary": a},
            "set_b": {"order": order[::-1], "runs": set_b[w], "summary": b},
            "set_b_worse_than_a": agreement,
            "traced": traced[w],
            "tracing_overhead": t["trace.op_ms_p50"]["value"] / op_a - 1.0,
            "profile_overhead": t["sim.profile_overhead"]["value"],
        }
    os.makedirs(os.path.join(ROOT, "ccbench", "baselines"), exist_ok=True)
    host = "".join(c if c.isalnum() or c in "-_" else "-" for c in record["host"])
    path = os.path.join(ROOT, "ccbench", "baselines", f"BASELINE_{host}_{record['utc']}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

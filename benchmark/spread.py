#!/usr/bin/env python3
"""Run the benchmark several times per workload, each time with another
seed, and report every metric's median, quartiles and spread (the
distance between the first and third quartile over the median, as
statistics.quantiles(values, n=4) gives them). These are the figures
BENCHMARK.json's bounds are checked against; the output JSON is the form
of benchmark/BASELINE.json.

Run from the repository root:

    python3 benchmark/spread.py --seeds 1-10 --out /tmp/spread.json
    python3 benchmark/spread.py --workloads fleet_contended --seeds 1-5 --trace 1
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(command, workload, seed, seconds, trace):
    cmd = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), took


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "spread": spread}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    defs = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in defs}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    report = {
        "commit": commit(),
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "run_seconds": args.seconds,
        "trace": args.trace,
        "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in defs}
        units = {m["name"]: m["unit"] for m in defs}
        correct, took = True, []
        for seed in report["seeds"]:
            result, secs = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            took.append(secs)
            correct &= result["correct"] and result["failed"] == 0
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {secs:.1f} s, correct={result['correct']}", flush=True)
        entry = {
            "why": why.get(workload, ""),
            "all_correct": correct,
            "wall_s_per_run": summarize(took),
            "metrics": {},
        }
        for name, vals in values.items():
            s = summarize(vals)
            s["unit"] = units[name]
            s["values"] = vals
            entry["metrics"][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else ("WITHIN BOUND" if s["spread"] <= bound else "OVER BOUND")
            print(
                f"  {name:<30} median {s['median']:.6g} {units[name]}  "
                f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                + (f"  bound {bound} {flag}" if bound is not None else ""),
                flush=True,
            )
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness record of the simulator benchmark.

Runs the benchmark command from BENCHMARK.json ten times per workload,
with seeds 1 to 10, and reports for every end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median beside the metric's bound.

    python3 simbench/steadiness.py [--json OUT]

The runs go round by round: each round runs every workload once with the
round's seed, so a drift of the host's speed during the record falls on
all workloads alike instead of on whichever ran last.

Run it from the repository root. It exits 1 if a run fails, reports an
incorrect result, or a spread reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

RUNS = 10
SEEDS = range(1, RUNS + 1)


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall_s = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    ref = [l for l in lines if l.strip().startswith("host reference step:")]
    result["host_ref_ns"] = float(ref[0].split(":")[1].split()[0]) if ref else None
    result["wall_s"] = wall_s
    return result


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--json", help="also write the record, with every value, here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    ok = True
    for seed in SEEDS:
        for w in workloads:
            r = run_once(spec, w, seed)
            metrics = ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed}: wall_s={r['wall_s']:.1f}, "
                  f"host_ref_ns={r['host_ref_ns']}, {metrics}", flush=True)
            if not r["correct"] or r["failed"]:
                print(f"  incorrect result: {r['failed']} of {r['attempted']} checks failed")
                ok = False
            results[w].append(r)

    record = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for w, rs in results.items():
        rows = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rs]
            rows[m["name"]] = {"unit": m["unit"], **quartiles(values),
                               "bound": m["bound"], "values": values}
            if rows[m["name"]]["spread"] >= m["bound"]:
                ok = False
        refs = [r["host_ref_ns"] for r in rs if r["host_ref_ns"] is not None]
        if len(refs) > 1:
            rows["host_ref_step_ns"] = {"unit": "ns", **quartiles(refs),
                                        "bound": None, "values": refs}
        record["workloads"][w] = rows

    print()
    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w, rows in record["workloads"].items():
        for name, r in rows.items():
            print(f"| {w} | {name} | {r['unit']} | {r['median']:.6g} | {r['q1']:.6g} "
                  f"| {r['q3']:.6g} | {r['spread']:.4f} | {r['bound'] or '-'} |")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

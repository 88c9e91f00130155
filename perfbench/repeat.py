"""Run the benchmark several times per workload, one fresh process per run
and another seed each time, and summarise every metric by its median,
quartiles and quartile spread (q3 - q1 over the median).

    python3 perfbench/repeat.py --runs 10 --trace 0 --out runs.json
    python3 perfbench/repeat.py --runs 5 --workload sweep-wide --first-seed 100

--seconds defaults to BENCHMARK.json's run_seconds. The spread of each
end-to-end metric is compared with its bound; a run that fails its checks
or exits non-zero stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="repeatable; default: all of them")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"machine": machine(), "runs": args.runs, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in names:
        per_metric, units, attempted, infos = {}, {}, [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: checks failed\n{proc.stdout}")
            attempted.append(result["attempted"])
            if len(lines) > 1:
                infos.append(json.loads(lines[-2]))
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                                        if not args.trace or k.startswith("trace.")), flush=True)
        stats = {name: {"unit": units[name], **summarise(values)} for name, values in per_metric.items()}
        summary["workloads"][workload] = {"seeds": [args.first_seed + i for i in range(args.runs)],
                                          "attempted": attempted, "metrics": stats, "info": infos}
        for name, s in stats.items():
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound:
                flag = "ok" if s["spread"] <= bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER BOUND")
                flag = f"bound {bound} {flag}"
            if s["unit"] == "count" and len(set(s["values"])) != 1:
                flag = "COUNT VARIES"
            if not args.trace or name.startswith("trace.") or flag:
                print(f"  {workload:17s} {name:32s} median {s['median']:.6g} {s['unit']:5s} spread {s['spread']:.4f} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()

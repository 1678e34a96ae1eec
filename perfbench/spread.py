#!/usr/bin/env python3
"""Repeats one workload over several seeds and prints, for each end-to-end
metric, its median and the distance between its first and third quartile
as a share of the median — the spread the bounds in BENCHMARK.json are set
from.

    python3 perfbench/spread.py paging-S 1,2,3,4,5,6,7,8,9,10 [--seconds 5]
"""

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=benchlib.WORKLOADS)
    ap.add_argument("seeds", help="comma-separated seeds")
    ap.add_argument("--seconds", type=int, default=5)
    a = ap.parse_args()

    values = {}
    for seed in (int(s) for s in a.seeds.split(",")):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}\n"
                     f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect run\n{proc.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # The host probes run.py prints, to tell a slow host window apart.
        probes = re.findall(r"host (probe_\w+): median ([0-9.]+)", proc.stdout)
        print(f"seed {seed:>6} {time.monotonic() - t0:5.1f} s  " +
              "  ".join(f"{k}={m['value']:.5g}"
                        for k, m in sorted(result["metrics"].items())) +
              "".join(f"  [{k} {v}]" for k, v in probes),
              flush=True)
    for name, xs in sorted(values.items()):
        print(f"{a.workload:10s} {name:18s} median {statistics.median(xs):<12.6g}"
              f" iqr/median {benchlib.iqr_share(xs):.3f}"
              f"  min {min(xs):.6g}  max {max(xs):.6g}")


if __name__ == "__main__":
    main()

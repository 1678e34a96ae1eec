#!/usr/bin/env python3
"""lpomp benchmark: one command that builds the driver, runs a workload,
checks its outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload paging-S --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout. The driver (perfbench/src/lpbench.cpp)
is built from source into .bench_build/ on first use. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a separate,
traced run reports the per-layer ones. Workloads and metrics are described in
perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # the whole run must end within 180 s once built


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds lpbench (incremental after the first time)."""
    out = root / ".bench_build" / "perfbench"
    jobs = str(len(os.sched_getaffinity(0)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "lpbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "lpbench"


def lpbench_args(name, w, seed, seconds, trace, root, spans, workdir):
    common = [f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
              f"--workdir={workdir}"]
    if trace:
        common.append(f"--spans={spans}")
    if w["mode"] == "serve":
        # A traced run needs no tail percentiles, so fewer rounds do.
        rounds = w["min_rounds"] // 3 if trace else w["min_rounds"]
        return ["serve", f"--min-rounds={rounds}", *common]
    args = ["sweep", f"--kernels={w['kernels']}", f"--klass={w['klass']}",
            f"--platforms={w['platforms']}",
            f"--threads={','.join(map(str, w['threads']))}",
            f"--pages={w['pages']}", f"--paging={w['paging']}",
            f"--workers={w['workers']}", f"--timed={w['timed']}",
            f"--min-passes={w['min_passes']}", *common]
    if name == benchlib.GOLDEN_WORKLOAD and seed == benchlib.CANONICAL_SEED:
        args.append(f"--golden={root / 'tests/golden/sweep_S_reference.json'}")
    return args


def run_driver(binary, args, limit_s):
    """Runs lpbench in its own process group and returns its stdout; on a
    timeout the whole group (daemon included) is killed and reaped."""
    proc = subprocess.Popen([str(binary), *args], stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        # SIGTERM first: a serve-mix daemon then unlinks its ring segment.
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        raise RuntimeError(f"lpbench exceeded {limit_s:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"lpbench exited with {proc.returncode}")
    return out


def main():
    t0 = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    w = benchlib.WORKLOADS[a.workload]

    nproc = len(os.sched_getaffinity(0))
    why = benchlib.budget_error(a.workload, w, nproc)
    if why:
        log(f"refusing to run: {why}")
        return 3

    root = pathlib.Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log("run from the root of an lpomp source checkout "
            "(CMakeLists.txt and src/ not found)")
        return 2
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    built = time.monotonic()

    spans = root / ".bench_build" / f"spans-{a.workload}-{a.seed}-{a.trace}.json"
    # Scratch stores of this run; lpbench deletes it, and so does this
    # script when lpbench fails part-way.
    workdir = root / ".bench_build" / f"work-{os.getpid()}"
    args = lpbench_args(a.workload, w, a.seed, a.seconds, a.trace, root,
                        spans, workdir)
    # The build may take the first run's whole allowance; afterwards every
    # run must end within 180 s.
    build_s = built - t0
    limit = RUN_LIMIT_S if build_s > 60 else RUN_LIMIT_S - build_s
    try:
        out = run_driver(binary, args, limit)
        raw = json.loads(out.strip().splitlines()[-1])
        if a.trace:
            span_list = json.loads(spans.read_text())
            metrics = benchlib.per_layer(raw, span_list)
            v = raw["values"]
            notes = [f"spans: {len(span_list)} written to {spans.name}",
                     f"trace provenance of the {w.get('timed', 'auto')} pass: "
                     f"leader points {v['leader_wall_s']:.6f} s, follower "
                     f"points {v['follower_wall_s']:.6f} s"]
        else:
            metrics, notes = benchlib.end_to_end(w["mode"], raw)
    except (RuntimeError, ValueError, KeyError, IndexError, OSError) as e:
        log(f"benchmark failed: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in raw["errors"]:
        print(f"ERROR {err}")
    for note in notes + raw["notes"]:
        print(f"note  {note}")
    for key in ("probe_serial_ms", "probe_barrier_ms"):
        probe = raw["samples"].get(key)
        if probe:
            print(f"host {key}: median {benchlib.median(probe):.3f} over "
                  f"{len(probe)} samples (min {min(probe):.3f}, max "
                  f"{max(probe):.3f}); reported only, never used to scale")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{a.workload:10s} {name:32s} {value:16.6f} {unit}")
    print(json.dumps(benchlib.result_line(raw, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload table and the benchmark's own arithmetic.

Kept apart from run.py so the arithmetic (percentile rule, span self time,
host-thread budget, result assembly) is unit-tested without building or
running anything: python3 -m unittest discover -s perfbench/tests
"""

import math
import statistics

CANONICAL_SEED = 0x5EED  # base seed of tests/golden/sweep_S_reference.json
# At the canonical seed this workload's native records on Opteron are
# checked against that golden file.
GOLDEN_WORKLOAD = "paging-S"

# Each sweep workload is one lpbench `sweep` invocation; serve-mix is one
# `serve` invocation (client here, daemon spawned as a child process).
# Why each exists, and why the grid-S and live-W grids were dropped, is
# in README.md next to this file.
WORKLOADS = {
    "paging-S": {
        "mode": "sweep",
        "kernels": "CG,MG,GUPS",
        "klass": "S",
        "platforms": "opteron,modern",
        "threads": [1, 2],
        "pages": "4KB",
        "paging": "native,base4k,hugetlb2m,huge1g,thp",
        "workers": 2,
        "timed": "auto",
        "min_passes": 5,
    },
    "serve-mix": {
        "mode": "serve",
        "threads": [1, 2],
        "workers": 1,
        "min_rounds": 30,
    },
}


def host_threads(workload):
    """Host threads a workload keeps busy at once: every pool worker runs a
    team of up to max(threads) simulated-thread host threads; serve-mix adds
    the daemon's serve loop and the client."""
    n = workload["workers"] * max(workload["threads"])
    if workload["mode"] == "serve":
        n += 2
    return n


def budget_error(name, workload, nproc):
    """Why `workload` must not run on a host with `nproc` CPUs, or None."""
    need = host_threads(workload)
    if need > nproc:
        return (f"workload {name} needs {need} host threads "
                f"(workers x simulated threads"
                f"{' + daemon + client' if workload['mode'] == 'serve' else ''}"
                f") but this host has {nproc}; more threads than cores turns "
                f"barrier hand-offs into scheduler noise")
    return None


def median(values):
    return statistics.median(values)


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is exactly 9990)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(n, candidates=(99.9, 99.0, 90.0, 50.0)):
    """The highest percentile with at least ten samples beyond it, and the
    sample count: (p, n). p is None when even the median lacks ten."""
    for p in candidates:
        if beyond(n, p) >= 10:
            return p, n
    return None, n


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover (overlapping children are counted once, and a child
    sticking out of its parent is clipped). Returns {span id: seconds}."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def self_by_name(spans):
    """{span name: [self time of each span with that name]}."""
    own = self_times(spans)
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(own[s["id"]])
    return out


def iqr_share(values):
    """Distance between the first and third quartile over the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


# End-to-end metrics: every workload reports every one of them, each the
# median of the run's samples (README.md, "End-to-end metrics", says what
# one sample is on each workload). Raw sample list of each:
END_TO_END = {
    "setup_s": ("setup_s", "s"),
    "cold_wall_s": ("cold_wall_s", "s"),
    "peak_rss_mb": ("rss_mb", "MB"),
}


def serve_tail_notes(raw):
    """Tail and throughput notes of serve-mix, printed beside the metrics:
    for cold and warm round trips the median and the highest percentile
    with at least ten samples beyond it, with the sample count."""
    s, v = raw["samples"], raw["values"]
    notes = []
    for key, name, unit, scale in (("warm_wall_ms", "rtt_warm", "us", 1e3),
                                   ("cold_wall_s", "rtt_cold", "ms", 1e3)):
        xs = [x * scale for x in s[key]]
        p, n = tail_percentile(len(xs))
        tail = (f"highest percentile with >=10 samples beyond it: "
                f"p{p:g} = {percentile(xs, p):.6g} {unit}" if p is not None
                else "fewer than 20 samples, no percentile has ten beyond it")
        notes.append(f"{name}: n={n}, p50 = {percentile(xs, 50):.6g} {unit}; "
                     f"{tail}")
    notes.append(f"req_per_s: {v['loop_requests'] / sum(s['round_s']):.6g} "
                 f"requests/s over the closed loop (1 cold : 44 warm)")
    return notes


def end_to_end(mode, raw):
    """(metrics, notes) of an untraced run. metrics: {name: (value, unit)}."""
    s = raw["samples"]
    m = {name: (median(s[key]), unit)
         for name, (key, unit) in END_TO_END.items()}
    notes = [f"{name}: median of {len(s[key])} samples"
             for name, (key, _) in END_TO_END.items()]
    if mode == "serve":
        notes += serve_tail_notes(raw)
    else:
        notes.append(f"warm rerun (printed, not a metric): median "
                     f"{median(s['warm_wall_ms']):.6g} ms over "
                     f"{len(s['warm_wall_ms'])} reruns")
        if "golden_matched" in raw["values"]:
            notes.append(f"golden: {raw['values']['golden_matched']:.0f} "
                         f"records equal their match in the reference file")
    return m, notes


# Per-layer metrics lpbench reports as plain values, with their units.
VALUE_UNITS = {
    "cache.access_ns": "ns",
    "exec.live_task_wall_s": "s",
    "exec.live_unattributed_s": "s",
    "exec.live_worker_busy_frac": "ratio",
    "exec.store_insert_us": "us",
    "exec.store_lookup_us": "us",
    "exec.task_wall_s": "s",
    "exec.unattributed_s": "s",
    "exec.worker_busy_frac": "ratio",
    "mem.translate_ns": "ns",
    "paging.overlay_ns_per_access": "ns",
    "serve.queue_depth_peak": "count",
    "sim.accesses": "count",
    "sim.accounting_s": "s",
    "sim.dtlb_walks": "count",
    "sim.l2_misses": "count",
    "sim.maccess_per_s": "Maccess/s",
    "sim.ns_per_access": "ns",
    "sim.pwc_hits": "count",
    "sim.walk_levels": "count",
    "tlb.lookup_ns": "ns",
    "trace.bytes_per_access": "B/access",
    "trace.fallbacks": "count",
    "trace.offload_frac": "ratio",
    "trace.record_overhead_s": "s",
    "trace.replay_over_live": "ratio",
    "trace.replay_s": "s",
}

# Per-layer metrics that are the median of a sample list.
SAMPLE_UNITS = {
    "exec.lru_lookup_us": ("lru_lookup_us", "us"),
    "exec.record_json_us": ("record_json_us", "us"),
    "exec.store_open_ms": ("store_open_ms", "ms"),
    "serve.stats_rtt_us": ("stats_rtt_us", "us"),
    "serve.wire_us": ("wire_us", "us"),
}

# Per-layer metrics taken from span self times or other derived values.
DERIVED_UNITS = {
    "npb.numerics_s": "s",
    "core.setup_ms": "ms",
    "exec.warm_hit_frac": "ratio",
    "bench.tracing_overhead": "ratio",
    "bench.self_s": "s",
}

PER_LAYER = {**VALUE_UNITS,
             **{name: unit for name, (_, unit) in SAMPLE_UNITS.items()},
             **DERIVED_UNITS}


def per_layer(raw, spans):
    """Metrics of a traced run: {name: (value, unit)}. Raises KeyError when
    the run lacks one, so a result never goes out short of a metric."""
    s, v = raw["samples"], raw["values"]
    m = {name: (v[name], unit) for name, unit in VALUE_UNITS.items()}
    for name, (key, unit) in SAMPLE_UNITS.items():
        m[name] = (median(s[key]), unit)
    own = self_by_name(spans)
    m["npb.numerics_s"] = (sum(own["npb.numerics"]), "s")
    ctor = own["core.runtime_ctor"]
    m["core.setup_ms"] = (sum(ctor) / len(ctor) * 1e3, "ms")
    m["bench.self_s"] = (sum(own["bench.layers"]), "s")
    m["exec.warm_hit_frac"] = (v["warm_hits"] / v["warm_points"], "ratio")
    m["bench.tracing_overhead"] = (
        median(s["traced_wall_s"]) / median(s["untraced_wall_s"]), "ratio")
    return m


def result_line(raw, metrics):
    """The final stdout line the contract asks for."""
    failed = int(raw["failed"])
    return {
        "correct": failed == 0,
        "attempted": int(raw["attempted"]),
        "failed": failed,
        "metrics": {k: {"value": val, "unit": unit}
                    for k, (val, unit) in sorted(metrics.items())},
    }

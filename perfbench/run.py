"""lndkit's benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload toric-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; lndkit is imported from ./src. The inputs
of (workload, seed) are generated once and kept under perfbench/.inputs.
Each run starts fresh worker processes, one after another (never two at
once): set-up is timed several times in workers that stop when ready, then
one worker issues queries for --seconds seconds.

With --trace 0 the result line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced worker, and the
tracing overhead against an untraced worker that answers the same
queries. Human-readable lines come first; the last line of standard output
is the JSON result. Exit status 1 means an answer failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170

# Function-level figures of the traced run: (function, figure, unit).
FUNCTION_METRICS = (
    ("cone.hilbert_basis", "self_s", "s/query"),
    ("cone.hilbert_basis", "calls", "count/query"),
    ("cone.hilbert_basis", "cache_hit_ratio", "ratio"),
    ("cone.hilbert_basis", "elements", "count/query"),
    ("cone.dual_cone", "self_s", "s/query"),
    ("cone.dual_cone", "calls", "count/query"),
    ("cone.dual_cone", "cache_hit_ratio", "ratio"),
    ("lattice.matrix_rank", "self_s", "s/query"),
    ("lattice.matrix_rank", "calls", "count/query"),
    ("cone.feasible_point", "self_s", "s/query"),
    ("cone.feasible_point", "calls", "count/query"),
    ("toric.enumerate_roots", "self_s", "s/query"),
    ("toric.enumerate_roots", "calls", "count/query"),
    ("toric.enumerate_roots", "roots_out", "count/query"),
    ("toric.find_local_slice", "self_s", "s/query"),
    ("toric.is_maximal", "self_s", "s/query"),
    ("toric.s_delta", "self_s", "s/query"),
    ("lattice.smith_normal_form", "self_s", "s/query"),
    ("lattice.smith_normal_form", "calls", "count/query"),
    ("algebra.commutator_vanishes_on", "self_s", "s/query"),
    ("algebra.commutator_vanishes_on", "calls", "count/query"),
    ("algebra.exponential", "self_s", "s/query"),
    ("algebra.exponential", "calls", "count/query"),
    ("algebra.exponential", "terms_out", "count/query"),
    ("algebra.TrinomialRing.reduce", "self_s", "s/query"),
    ("algebra.TrinomialRing.reduce", "calls", "count/query"),
    ("trinomial.trinomial_isotropy_report", "self_s", "s/query"),
    ("cli.main", "self_s", "s/query"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def inputs_for(workload, seed):
    """Path of the generated inputs, generating them on first use."""
    folder = os.path.join(HERE, ".inputs", f"{workload}-{seed}")
    path = os.path.join(folder, "inputs.json")
    if not os.path.exists(path):
        os.makedirs(folder, exist_ok=True)
        data = gen.generate(workload, seed)
        tmp = path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    return path


def worker(args, extra, timeout=WORKER_TIMEOUT_S):
    """Run one worker; returns its set-up time (calibrated, raw) and the
    JSON object on its last line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           args.workload] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = None
        last = None
        for line in proc.stdout:
            if ready is None and line.startswith("ready "):
                ready = tuple(float(x) for x in line.split()[1:])
            elif line.strip():
                last = line
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise SystemExit(f"worker failed with exit status {proc.returncode}")
    return ready, (json.loads(last) if last else None)


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(args, inputs):
    setups = [worker(args, ["--inputs", inputs, "--setup-only"])[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready, run = worker(args, ["--inputs", inputs, "--seconds", str(args.seconds)])
    setups.append(ready)
    lat_ms = [t * 1000 for t in run["latencies"]]
    raw_ms = [t * 1000 for t in run["raw_latencies"]]
    n = len(lat_ms)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "decisions_per_s": (n / sum(run["latencies"]), "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "refused_share": (run["refused"] / n, "share"),
    }
    extra = {
        "wrong_verdicts": (run["wrong"], "count"),
        "failed_share": (run["failed"] / run["attempted"], "share"),
    }
    raw = {"setup_s": statistics.median(r for _, r in setups),
           "decisions_per_s": n / sum(run["raw_latencies"]),
           "latency_p50_ms": percentile(raw_ms, 50),
           "latency_p90_ms": percentile(raw_ms, 90)}
    beyond_p90 = sum(1 for x in lat_ms if x > metrics["latency_p90_ms"][0])
    print(f"{args.workload} seed {args.seed}: {n} timed queries in {run['wall_s']:.1f} s "
          f"({sum(run['raw_latencies']):.1f} s inside lndkit), {beyond_p90} beyond p90; "
          f"set-up sampled {len(setups)} times; timings calibrated (raw in brackets)")
    for name, (value, unit) in {**metrics, **extra}.items():
        note = f"  [{raw[name]:.6g}]" if name in raw else ""
        print(f"  {name:<16} {value:>12.6g} {unit}{note}")
    for kind, (count, total, median, most) in run["kinds"].items():
        print(f"  kind {kind:<20} {count:>6} queries, ms: mean {1000 * total / count:9.3f}"
              f" median {1000 * median:9.3f} max {1000 * most:9.3f}")
    print(f"  answer digest {run['digest']} over the first {run['digest_answers']} answers")
    if beyond_p90 < 10:
        print("  warning: fewer than 10 samples beyond p90", file=sys.stderr)
    return metrics, run


def per_layer(args, inputs):
    trace_out = os.path.join(os.path.dirname(inputs), "trace")
    _, traced = worker(args, ["--inputs", inputs, "--seconds", str(args.seconds),
                              "--trace-out", trace_out])
    n = traced["queries"]
    _, plain = worker(args, ["--inputs", inputs, "--queries", str(n)])
    traced_s, plain_s = sum(traced["latencies"]), sum(plain["latencies"])
    # self times are raw span times; the run's mean calibration scales them
    scale = traced["scale"]
    metrics = {}
    for name, agg in traced["layers"].items():
        metrics[f"{name}.calls"] = (agg["calls"] / n, "count/query")
        metrics[f"{name}.self_s"] = (agg["self_s"] * scale / n, "s/query")
        metrics[f"{name}.refusals"] = (agg["refusals"] / n, "count/query")
        metrics[f"{name}.self_share"] = (agg["self_s"] * scale / traced_s, "share")
    funcs = traced["functions"]
    for fname, figure, unit in FUNCTION_METRICS:
        f = funcs.get(fname, {})
        if figure in ("elements", "roots_out", "terms_out"):
            value = f.get("out", 0) / n
        elif figure == "cache_hit_ratio":
            value = f.get(figure, 0.0)
        else:
            value = f.get(figure, 0) * (scale if figure == "self_s" else 1) / n
        metrics[f"{fname}.{figure}"] = (value, unit)
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / n, "s/query")
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "share")
    print(f"{args.workload} seed {args.seed} traced: {n} queries, {traced['spans']} spans "
          f"kept in {trace_out}.bin; traced {traced_s:.2f} s, untraced {plain_s:.2f} s "
          "inside lndkit for the same queries")
    print("  no layer waits on a queue or lock (one thread), so wait time is absent")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>12.6g} {unit}")
    return metrics, traced, plain


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "lndkit", "__init__.py")):
        print("run from the root of an lndkit checkout: src/lndkit is missing",
              file=sys.stderr)
        return 2
    inputs = inputs_for(args.workload, args.seed)
    if args.trace:
        metrics, *runs = per_layer(args, inputs)
    else:
        metrics, run = end_to_end(args, inputs)
        runs = [run]
    failed = sum(r["failed"] + r["wrong"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"  check failed: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark worker: a single closed-loop client in a fresh process.

    python3 perfbench/worker.py --workload W --inputs FILE --seconds S

Imports lndkit from ./src, loads the generated inputs, prints a line
"ready <calibrated seconds> <raw seconds>" that times this set-up, then
issues one query at a time, each only after the previous answer has
been checked, until the time is up. The last line of standard output is
one JSON object with the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from array import array
from time import perf_counter
from types import SimpleNamespace

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# toric-sweep answers are digested for its first cones only, which every
# run reaches; the warm workloads answer every query once in warm-up.
SWEEP_DIGEST_ANSWERS = 40


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--queries", type=int, default=None,
                   help="run exactly this many timed queries instead")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    calibration = calibrate.Calibration()
    calibration.sample(3)
    start = perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import lndkit
    import lndkit.cli
    with open(args.inputs, encoding="utf-8") as fh:
        data = json.load(fh)
    end = perf_counter()
    calibration.sample(3)
    setup = end - start
    print(f"ready {setup * calibration.scale(start, end)!r} {setup!r}", flush=True)
    if args.setup_only:
        return 0

    from lndkit import errors

    modules = {name: sys.modules[f"lndkit.{name}"] for name in tracing.LAYERS}
    modules["lndkit"] = lndkit
    tracer = tracing.install(modules, errors) if args.trace_out else None
    workdir = os.path.dirname(os.path.abspath(args.inputs))
    queries = workloads.build(args.workload, SimpleNamespace(**modules), data, workdir)
    refusals = (errors.RefusalError, errors.SearchBoundExceeded)
    digest_upto = SWEEP_DIGEST_ANSWERS if args.workload == "toric-sweep" else len(queries)
    state = Checker(queries, refusals, digest_upto)

    if args.workload != "toric-sweep":
        # the warm path: fill caches and finish lazy set-up before timing
        for i in range(len(queries)):
            state.ask(i)
    state.start_timing()
    if tracer:
        tracer.reset()

    # the timed phase ends on a cycle boundary, so every run answers whole
    # cycles of the workload's fixed query mix
    cycle = data["cycle"]
    start = perf_counter()
    i = 0
    while True:
        if args.queries is not None:
            if i >= args.queries:
                break
        elif i % cycle == 0 and perf_counter() - start >= args.seconds:
            break
        if tracer:
            tracer.query = i
        state.ask(i % len(queries))
        i += 1
    wall = perf_counter() - start
    # read before the report builds its lists, so that peak RSS is lndkit's
    # plus the worker's compact sample arrays
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = state.report()
    out.update(wall_s=wall, queries=i, peak_rss_mb=peak_rss_mb)
    if tracer:
        out["layers"], out["functions"] = tracing.summary(tracer)
        out["spans"] = len(tracer.span_start)
        tracer.write(args.trace_out)
    print(json.dumps(out), flush=True)
    return 0


class Checker:
    """Asks queries, times them, and checks every answer.

    The first answer to each query gets the full independent check; later
    answers to the same query must repeat it exactly.
    """

    def __init__(self, queries, refusal_types, digest_upto):
        self.queries = queries
        self.refusal_types = refusal_types
        self.digest_upto = digest_upto
        self.seen = {}
        self.calibration = calibrate.Calibration()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.start_timing()

    def start_timing(self):
        """Latencies and refusals count from here; failures count from the
        start, warm-up included."""
        # start, end and kind of each timed query, kept compact
        self.starts = array("d")
        self.ends = array("d")
        self.kind_ids = array("H")
        self.kind_names = {}
        self.refused = 0

    def ask(self, idx):
        q = self.queries[idx]
        if q.before:
            q.before()
        self.calibration.maybe_sample()
        start = perf_counter()
        try:
            result = q.run()
            outcome = "verdict"
        except self.refusal_types as err:
            result = err
            outcome = "refusal"
        except Exception:  # a crash is a failed query, reported, not an abort
            result = traceback.format_exc()
            outcome = "crash"
        end = perf_counter()
        self.calibration.maybe_sample(end)
        self.attempted += 1
        self.starts.append(start)
        self.ends.append(end)
        self.kind_ids.append(self.kind_names.setdefault(q.kind, len(self.kind_names)))
        problem = self.judge(idx, q, outcome, result)
        if problem and len(self.problems) < 20:
            self.problems.append(f"query {idx} ({q.kind}): {problem}")

    def judge(self, idx, q, outcome, result):
        if outcome == "crash":
            self.failed += 1
            return result.strip().splitlines()[-1]
        if outcome == "refusal" and not q.refusal:
            self.failed += 1
            return f"refused where a verdict was expected: {result}"
        if outcome == "refusal":
            self.refused += 1
            ans = workloads.refusal_json(result)
        elif q.refusal:
            self.wrong += 1
            return "gave a verdict where a refusal was expected"
        else:
            ans = q.answer(result)
        text = hashlib.sha256(json.dumps(ans, sort_keys=True).encode()).hexdigest()
        if idx in self.seen:
            if self.seen[idx] != text:
                self.wrong += 1
                return "answer differs from the first answer to the same query"
            return None
        problem = q.check(ans)
        self.seen[idx] = text
        if problem:
            self.wrong += 1
        return problem

    def report(self):
        answers = [self.seen[i] for i in range(self.digest_upto) if i in self.seen]
        digest = hashlib.sha256("".join(answers).encode()).hexdigest()[:16]
        raw, calibrated, by_kind = [], [], {}
        names = {k: name for name, k in self.kind_names.items()}
        for start, end, kind in zip(self.starts, self.ends, self.kind_ids):
            took = end - start
            raw.append(took)
            calibrated.append(took * self.calibration.scale(start, end))
            by_kind.setdefault(names[kind], []).append(calibrated[-1])
        kinds = {k: (len(v), sum(v), statistics.median(v), max(v))
                 for k, v in by_kind.items()}
        scale = sum(calibrated) / sum(raw) if raw else 1.0
        return {"latencies": calibrated, "raw_latencies": raw, "scale": scale,
                "attempted": self.attempted,
                "kinds": dict(sorted(kinds.items())),
                "refused": self.refused, "failed": self.failed, "wrong": self.wrong,
                "problems": self.problems, "digest": digest,
                "digest_answers": len(answers)}


if __name__ == "__main__":
    sys.exit(main())

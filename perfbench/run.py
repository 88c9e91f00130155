"""gramata benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; gramata is imported from its src/
directory and the machines are read from its corpus/. The seed drives the
decide-latency word sample and the microbenchmark's element pairs; the
jobs themselves are fixed.

--trace 0 prints the end-to-end metrics, measured with nothing wrapped.
--trace 1 wraps each layer's entry points from outside the program and
prints per-layer metrics plus the tracing overhead; the spans go to
.perfbench_out/<workload>.spans.jsonl.gz.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A run with a failed check exits 1 and reports correct: false.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# the program gets only the generated inputs, never the caller's overrides
for _var in ("GRAMATA_MEM_GUARD", "GRAMATA_CORPUS"):
    os.environ.pop(_var, None)

import gramata  # noqa: E402

if os.path.dirname(os.path.abspath(gramata.__file__)) != os.path.join(SRC, "gramata"):
    sys.exit(f"gramata was imported from {gramata.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPS = 15  # traced set-ups per run
MIN_REPS = 3
REFERENCE_S = 0.002  # reference_loop's duration on the reference machine
LONG_CALL_S = 0.002  # a decide call this long gets its own reference after it

GROUP_KEYS = ("heis", "free", "zk", "qplus", "matq2", "matq4")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "elements_per_s": "1/s",
    "decide_p50_ms": "ms",
    "decide_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "model.parse_efa_ms": "ms",
    "model.validate_ms": "ms",
    "constructions.oracle_calls": "count",
    "constructions.oracle_member_us": "us",
    "simulate.accepts_calls": "count",
    "simulate.accepts_self_s": "s",
    "simulate.bfs_expanded": "count",
    "simulate.nodes_per_word": "count",
    "simulate.bfs_us_per_expanded": "us",
    "simulate.sweep_self_s": "s",
    "simulate.verdicts.accept": "count",
    "simulate.verdicts.reject": "count",
    "simulate.verdicts.budget_exhausted": "count",
    "simulate.dfs_expanded": "count",
    "simulate.dfs_us_per_expanded": "us",
    "simulate.reachable_register_count_s": "s",
    "simulate.pool_speedup": "x",
    **{f"algebra.mul_calls.{g}": "count" for g in GROUP_KEYS},
    **{f"algebra.mul_s.{g}": "s" for g in GROUP_KEYS},
    "algebra.mul_share": "ratio",
    **{f"algebra.mul_ns.{g}": "ns" for g in GROUP_KEYS},
    "analysis.growth_s": "s",
    "analysis.ball_with_words_s": "s",
    "analysis.elements": "count",
    "analysis.us_per_element": "us",
    "analysis.peak_ball": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# counts that must repeat exactly from rep to rep (and from run to run)
EXACT_COUNTS = (
    "constructions.oracle_calls",
    "simulate.accepts_calls",
    "simulate.bfs_expanded",
    "simulate.dfs_expanded",
    "simulate.verdicts.accept",
    "simulate.verdicts.reject",
    "simulate.verdicts.budget_exhausted",
    "analysis.elements",
    "analysis.peak_ball",
    *(f"algebra.mul_calls.{g}" for g in GROUP_KEYS),
)


def traced_setups(tracer):
    """SETUP_REPS traced set-ups; returns the model layer's milliseconds in
    each: parse_efa self time and validate busy time."""
    parse_ms, validate_ms = [], []
    for _ in range(SETUP_REPS):
        tracer.reset()
        # the state built here holds traced oracles, so it is thrown away
        tracer.install({})
        try:
            wl.setup()
        finally:
            tracer.uninstall()
        parse_ms.append(tracer.totals["model.parse_efa"][2] / 1e6)
        validate_ms.append(tracer.totals["model.validate"][1] / 1e6)
    return parse_ms, validate_ms


def merge(total, tally):
    total.attempted += tally.attempted
    total.failed += tally.failed
    total.errors.extend(tally.errors[: max(0, 20 - len(total.errors))])


def reference_loop():
    """Fixed pure-Python work (tuple arithmetic, a set, a list), unrelated to
    gramata. Its duration measures the speed of the machine at that moment."""
    seen = set()
    out = []
    x = (0, 0, 0)
    for i in range(3000):
        h = (i & 1, (i >> 1) & 1, 1)
        x = (x[0] + h[0], x[1] + h[1], x[2] + h[2] + x[1] * h[0])
        if x not in seen:
            seen.add(x)
            out.append(x)
    return len(out)


class Interleave:
    """Untimed work run between a job's operations: one set-up, and the
    decide sample paced so that its share done follows the share of the run
    gone. reference_loop is timed at both ends of every pause and after
    every long decide call, and each job operation, set-up and group of
    decide calls is scaled by the speed measured on either side of it:
    scaled = seconds * REFERENCE_S / mean(reference before, reference after)."""

    def __init__(self, st, sample, seconds, total):
        self.st, self.sample, self.seconds, self.total = st, sample, seconds, total
        self.start = time.perf_counter()
        self.done = 0
        self.raw = {"setup": [], "latency": []}
        self.setup_seconds, self.latencies, self.references = [], [], []
        self.expanded = 0
        self.scaled = 0.0  # scaled seconds of the job operations so far
        self.paused = 0.0
        self._ref = self._reference()
        self._last = time.perf_counter()

    def _reference(self):
        start = time.perf_counter()
        reference_loop()
        seconds = time.perf_counter() - start
        self.references.append(seconds)
        return seconds

    def _scale(self, before, after):
        return REFERENCE_S / ((before + after) / 2)

    def __call__(self):
        start = time.perf_counter()
        ref = self._reference()
        self.scaled += (start - self._last) * self._scale(self._ref, ref)
        t = time.perf_counter()
        wl.setup()
        setup = time.perf_counter() - t
        share = min(1.0, (start - self.start) / self.seconds)
        before, calls = self._decide(math.ceil(share * len(self.sample)), ref)
        self._ref = self._reference()
        self.raw["setup"].append(setup)
        self.setup_seconds.append(setup * self._scale(ref, self._ref))
        self._scale_calls(calls, self._scale(before, self._ref))
        self._last = time.perf_counter()
        self.paused += self._last - start

    def finish(self):
        """The rest of the decide sample, after the last rep."""
        before, calls = self._decide(len(self.sample), self._reference())
        self._scale_calls(calls, self._scale(before, self._reference()))

    def _decide(self, upto, before):
        """Decide calls up to sample[upto]; those after the last long call
        are returned unscaled, with the reference taken before them."""
        calls = []
        for item in self.sample[self.done : upto]:
            got = wl.decide_one(self.st, item, self.total)
            if got is None:
                continue
            calls.append(got)
            if got[0] >= LONG_CALL_S:
                after = self._reference()
                self._scale_calls(calls, self._scale(before, after))
                before, calls = after, []
        self.done = max(self.done, upto)
        return before, calls

    def _scale_calls(self, calls, scale):
        for latency, expanded in calls:
            self.raw["latency"].append(latency)
            self.latencies.append(latency * scale)
            self.expanded += expanded


def run_reps(job, st, size, total, budget_s, min_reps, tracer=None, pause=None):
    """Closed loop: rep after rep until budget_s has passed and min_reps are
    done. With pause, a rep's wall excludes the time spent in pause() and is
    a (raw, scaled) pair. Returns (wall seconds, (verdicts, elements), layer
    metrics or None) per rep."""
    out = []
    start = time.perf_counter()
    while len(out) < min_reps or time.perf_counter() - start < budget_s:
        layers = None
        if tracer is not None:
            tracer.reset()
            tracer.trace_id += 1
        paused = pause.paused if pause is not None else 0.0
        scaled = pause.scaled if pause is not None else 0.0
        with tracer.span("job") if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            tally = job(st, size, pause) if pause is not None else job(st, size)
            if pause is not None:
                pause()  # closes the rep's last operation
            wall = time.perf_counter() - t0
        if pause is not None:
            wall = (wall - (pause.paused - paused), pause.scaled - scaled)
        if tracer is not None:
            layers = layer_metrics(tracer, wall)
        merge(total, tally)
        out.append((wall, (tally.verdicts, tally.elements), layers))
    return out


def check_repeats(reps, total):
    """Every rep of a fixed job must produce the same work."""
    work = {w for _, w, _ in reps}
    if len(work) != 1:
        total.fail(f"reps disagree on (verdicts, elements): {sorted(work)}")


def layer_metrics(tracer, wall):
    tot, cnt = tracer.totals, tracer.counts

    def calls(name):
        return tot[name][0] if name in tot else 0

    def busy(name):
        return tot[name][1] / 1e9 if name in tot else 0.0

    def own(name):
        return tot[name][2] / 1e9 if name in tot else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    bfs, dfs = "simulate.accepts.bfs", "simulate.accepts.dfs"
    m = {
        "constructions.oracle_calls": calls("constructions.oracle_member"),
        "constructions.oracle_member_us": ratio(busy("constructions.oracle_member") * 1e6, calls("constructions.oracle_member")),
        "simulate.accepts_calls": calls(bfs) + calls(dfs),
        "simulate.accepts_self_s": own(bfs) + own(dfs),
        "simulate.bfs_expanded": cnt["simulate.bfs_expanded"],
        "simulate.nodes_per_word": ratio(cnt["simulate.bfs_expanded"], calls(bfs)),
        "simulate.bfs_us_per_expanded": ratio(busy(bfs) * 1e6, cnt["simulate.bfs_expanded"]),
        "simulate.sweep_self_s": own("simulate.equiv_check") + own("simulate.enumerate_words"),
        "simulate.verdicts.accept": cnt["simulate.verdicts.accept"],
        "simulate.verdicts.reject": cnt["simulate.verdicts.reject"],
        "simulate.verdicts.budget_exhausted": cnt["simulate.verdicts.budget_exhausted"],
        "simulate.dfs_expanded": cnt["simulate.dfs_expanded"],
        "simulate.dfs_us_per_expanded": ratio(busy(dfs) * 1e6, cnt["simulate.dfs_expanded"]),
        "simulate.reachable_register_count_s": busy("simulate.reachable_register_count"),
        "analysis.growth_s": busy("analysis.growth"),
        "analysis.ball_with_words_s": busy("analysis.ball_with_words"),
        "analysis.elements": cnt["analysis.elements"],
        "analysis.us_per_element": ratio(
            (busy("analysis.growth") + busy("analysis.ball_with_words")) * 1e6, cnt["analysis.elements"]
        ),
        "analysis.peak_ball": cnt["analysis.peak_ball"],
        "cli.main_s": busy("cli.main"),
        "cli.self_s": own("cli.main"),
    }
    mul_total = 0.0
    for g in GROUP_KEYS:
        m[f"algebra.mul_calls.{g}"] = calls(f"algebra.mul.{g}")
        m[f"algebra.mul_s.{g}"] = busy(f"algebra.mul.{g}")
    for name in tot:
        if name.startswith("algebra.mul."):
            mul_total += busy(name)
    m["algebra.mul_share"] = ratio(mul_total, wall)
    return m


def percentile_tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seed, seconds, trace, sizes=None):
    """One run. Returns (result dict, info dict)."""
    sizes = sizes or wl.SIZES
    size = sizes[workload]
    job = wl.job_for(workload)
    total = wl.Tally()
    info = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds}

    if not trace:
        st = wl.setup()
        reference = {}
        if workload == "dedup-crosscheck":
            # an untimed first rep gives the cross-checked verdicts that the
            # decide sample is checked against
            first = job(st, size)
            merge(total, first)
            reference = first.reference
        sample = wl.decide_sample(st, workload, size, seed, reference)
        # the harness's own long-lived data (the sample, the reference
        # verdicts) must not lengthen the collections that run inside
        # timed gramata calls
        gc.collect()
        gc.freeze()
        pause = Interleave(st, sample, seconds, total)
        reps = run_reps(job, st, size, total, seconds, MIN_REPS, pause=pause)
        pause.finish()
        check_repeats(reps, total)
        raw_walls = [raw for (raw, _), _, _ in reps]
        walls = [scaled for (_, scaled), _, _ in reps]
        verdicts, elements = reps[-1][1]
        latencies = pause.latencies
        tail, tail_pct = percentile_tail(latencies)
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(pause.setup_seconds),
            "wall_s": wall_s,
            "verdicts_per_s": verdicts / wall_s,
            # cayley: its own balls; the others: configurations expanded per
            # second of accepts calls over the decide sample
            "elements_per_s": elements / wall_s if workload == "cayley" else pause.expanded / sum(latencies),
            "decide_p50_ms": statistics.median(latencies) * 1e3,
            "decide_tail_ms": tail * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw_tail, _ = percentile_tail(pause.raw["latency"])
        units = END_TO_END_UNITS
        info.update(
            reps=len(walls),
            setup_reps=len(pause.setup_seconds),
            decide_samples=len(latencies),
            decide_tail_percentile=tail_pct,
            reference_ms=statistics.median(pause.references) * 1e3,
            raw={
                "setup_s": statistics.median(pause.raw["setup"]),
                "wall_s": statistics.median(raw_walls),
                "decide_p50_ms": statistics.median(pause.raw["latency"]) * 1e3,
                "decide_tail_ms": raw_tail * 1e3,
            },
            rep_walls=raw_walls,
            job_verdicts=verdicts,
            job_elements=elements,
        )
    else:
        tracer = tracing.Tracer()
        parse_ms, validate_ms = traced_setups(tracer)
        st = wl.setup()
        pool_name, pool_len = sizes["pool"]
        speedup = wl.pool_speedup(st, total, pool_name, pool_len)
        micro = wl.micro_mul(seed)
        # untraced and traced reps alternate, so that both see the same drift
        untraced, traced = [], []
        start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - start < 0.6 * seconds:
            untraced += run_reps(job, st, size, total, 0, 1)
            tracer.install(st.oracles)
            try:
                traced += run_reps(job, st, size, total, 0, 1, tracer)
            finally:
                tracer.uninstall()
        check_repeats(untraced + traced, total)
        layers = [m for _, _, m in traced]
        for name in EXACT_COUNTS:
            if len({m[name] for m in layers}) != 1:
                total.fail(f"{name} differs between traced reps")
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        untraced_wall = statistics.median(wall for wall, _, _ in untraced)
        traced_wall = statistics.median(wall for wall, _, _ in traced)
        metrics.update(
            {
                "model.parse_efa_ms": statistics.median(parse_ms),
                "model.validate_ms": statistics.median(validate_ms),
                "simulate.pool_speedup": speedup,
                **{f"algebra.mul_ns.{g}": micro[g] for g in GROUP_KEYS},
                "trace.untraced_wall_s": untraced_wall,
                "trace.traced_wall_s": traced_wall,
                "trace.overhead_s": traced_wall - untraced_wall,
                "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
            }
        )
        units = PER_LAYER_UNITS
        spans = os.path.join(ROOT, ".perfbench_out", f"{workload}.spans.jsonl.gz")
        tracer.write(spans, {"workload": workload, "seed": seed, "reps": len(traced)})
        info.update(reps=len(traced), untraced_reps=len(untraced), spans=os.path.relpath(spans, ROOT))

    info["failed_ratio"] = total.failed / total.attempted
    info["errors"] = total.errors
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, info = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

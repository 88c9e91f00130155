"""Traced mode: spans around each layer's public entry points, installed
from outside the program by patching module attributes and group classes.

Every wrapped call opens a frame on one stack (the benchmark is a single
thread), so a span's self time is its duration minus the durations of its
direct children. Coarse spans (one per search, sweep, ball, CLI call) are
kept in memory with their parent and written out when the run ends.
Per-multiply and per-oracle-call spans would run to millions per rep, so
they are aggregated into calls, busy time and self time only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import json
import os
import time
from collections import defaultdict

from gramata import algebra, analysis, cli, constructions, model, simulate

_now = time.perf_counter_ns

# the register groups whose mul is wrapped; DirectProduct is left alone so
# its components' multiplies are counted under their own groups
MUL_CLASSES = (
    algebra.HeisenbergGroup,
    algebra.FreeGroup,
    algebra.FreeAbelian,
    algebra.PositiveRationals,
    algebra.MatrixGroup,
)


def group_key(group):
    """Short name of a register group: heis, free, zk, qplus, matq2, matq4."""
    if isinstance(group, algebra.MatrixGroup):
        return f"mat{group.field.lower()}{group.dim}"
    text = algebra.compact_group_text(group)
    return text.split(":")[0]


class Tracer:
    def __init__(self):
        self.spans = []  # (trace id, span id, parent span id, name, start ns, end ns)
        self.trace_id = 0
        self._stack = []  # open frames: [span id or None, child ns]
        self._next_id = 0
        self._patches = []
        self.reset()

    def reset(self):
        """Start a new rep: clear the aggregates, keep the spans."""
        self.totals = defaultdict(lambda: [0, 0, 0])  # name -> [calls, busy ns, self ns]
        self.counts = defaultdict(int)

    def _open(self, keep):
        span_id = None
        if keep:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, 0]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, start, end):
        stack = self._stack
        stack.pop()
        dur = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += dur
        total[2] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if frame[0] is not None:
            parent = stack[-1][0] if stack else None
            self.spans.append((self.trace_id, frame[0], parent, name, start, end))

    def wrap(self, fn, name, keep=True, after=None):
        """fn wrapped in a span. name is a string or a function of the call's
        positional arguments; after(args, kwargs, result) records counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = tracer._open(keep)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(label, frame, start, _now())
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A kept span around a block of the benchmark's own code."""
        frame = self._open(True)
        start = _now()
        try:
            yield
        finally:
            self._close(name, frame, start, _now())

    # --- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def traced_oracle(self, oracle):
        return dataclasses.replace(
            oracle, member=self.wrap(oracle.member, "constructions.oracle_member", keep=False)
        )

    def install(self, oracles):
        """Wrap every layer's entry points; oracles (name -> NamedOracle) is
        the benchmark's own table, whose entries are swapped for traced ones."""
        def after_accepts(args, kwargs, result):
            mode = "bfs" if kwargs.get("dedup", True) else "dfs"
            count = self.counts
            count[f"simulate.{mode}_expanded"] += result.stats.expanded
            count[f"simulate.verdicts.{result.verdict.name.lower()}"] += 1

        def after_ball(args, kwargs, result):
            size = result.counts[-1] if isinstance(result, analysis.GrowthTable) else len(result)
            count = self.counts
            count["analysis.elements"] += size
            count["analysis.peak_ball"] = max(count["analysis.peak_ball"], size)

        accepts_bfs = self.wrap(simulate.accepts, "simulate.accepts.bfs", after=after_accepts)
        accepts_dfs = self.wrap(simulate.accepts, "simulate.accepts.dfs", after=after_accepts)

        @functools.wraps(simulate.accepts)
        def accepts_by_mode(*args, **kwargs):
            # the span name tells the deduplicating BFS from the unpruned DFS
            if kwargs.get("dedup", True):
                return accepts_bfs(*args, **kwargs)
            return accepts_dfs(*args, **kwargs)

        self._patch(simulate, "accepts", accepts_by_mode)

        for mod, fn in ((simulate, "equiv_check"), (simulate, "enumerate_words")):
            self._patch(mod, fn, self.wrap(getattr(mod, fn), f"simulate.{fn}"))
        rrc = self.wrap(simulate.reachable_register_count, "simulate.reachable_register_count")
        self._patch(simulate, "reachable_register_count", rrc)
        # analysis imported it by name, so its copy is patched as well
        self._patch(analysis, "reachable_register_count", rrc)

        keys = {}

        def mul_name(args):
            group = args[0]
            key = keys.get(group)
            if key is None:
                key = keys[group] = "algebra.mul." + group_key(group)
            return key

        for cls in MUL_CLASSES:
            self._patch(cls, "mul", self.wrap(cls.__dict__["mul"], mul_name, keep=False))

        self._patch(model, "parse_efa", self.wrap(model.parse_efa, "model.parse_efa"))
        self._patch(model, "validate", self.wrap(model.validate, "model.validate"))

        oracle = constructions.oracle
        self._patch(constructions, "oracle", lambda name: self.traced_oracle(oracle(name)))
        wp_oracle = analysis.wp_oracle
        self._patch(analysis, "wp_oracle", lambda *a, **k: self.traced_oracle(wp_oracle(*a, **k)))
        for name, entry in list(oracles.items()):
            self._patches.append((oracles, name, entry))
            oracles[name] = self.traced_oracle(entry)

        for fn in ("growth", "ball_with_words"):
            self._patch(analysis, fn, self.wrap(getattr(analysis, fn), f"analysis.{fn}", after=after_ball))
        for fn in ("theorem_growth_probe", "lemma_growth_check", "dissimilarity_lower_bound"):
            self._patch(analysis, fn, self.wrap(getattr(analysis, fn), f"analysis.{fn}"))

        self._patch(cli, "main", self.wrap(cli.main, "cli.main"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path, header):
        """Write the kept spans as gzipped JSON lines, header first."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for trace, span, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps({"trace": trace, "span": span, "parent": parent, "name": name, "start_ns": start, "end_ns": end})
                    + "\n"
                )

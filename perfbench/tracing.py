"""Per-layer tracing of clanmc from outside the package.

`Tracer.install()` replaces module attributes of clanmc with wrappers that
open a span around each call into a layer and count the work it was given;
`Tracer.uninstall()` puts the originals back.  No file under `src/` is
touched.  Spans nest per thread: a span's self time is its duration minus
the spans it directly contains on the same thread.  Blocks that
`parallel.map_blocks` runs on worker threads inherit the caller's open
spans as ancestors, so counts such as walk steps can ask "inside which
layer", but their time is never subtracted from a span on another thread.
"""

from __future__ import annotations

import os
import threading
import time

from clanmc import (assoc_walk, clan_sim, cli, env_model, estimators, exact_fl, mcstats,
                    streams)

# Scalar closed forms and brute-force folds of exact_fl that callers reach
# through the module attribute (diagnostics calls exact_fl.<name>).
_SCALAR = ("survival_closed", "h_functional", "cond_event_prob", "extinction_step",
           "extinction_step_log", "v_functional", "yaglom_integrand", "reversed_product_closed")
_FOLD = ("compose_pgf_bruteforce", "reversed_product_bruteforce")

# Spans whose self time is time spent waiting for worker threads, not work.
_WAITING = ("parallel.map",)

PER_LAYER = (
    ("streams.substream_calls", "count"),
    ("env_model.draw_s", "s"),
    ("env_model.draw_values", "count"),
    ("env_model.draw_ns_per_value", "ns"),
    ("estimators.sweep_cells", "count"),
    ("estimators.cumsum_s", "s"),
    ("estimators.kernel_s", "s"),
    ("estimators.exp_s", "s"),
    ("estimators.lse_s", "s"),
    ("estimators.lse_calls", "count"),
    ("estimators.lse_slow_rows", "count"),
    ("estimators.fit_s", "s"),
    ("mcstats.exact_sum_s", "s"),
    ("mcstats.exact_sum_values", "count"),
    ("mcstats.ratio_s", "s"),
    ("parallel.blocks", "count"),
    ("parallel.busy_share", "ratio"),
    ("assoc_walk.scan_s", "s"),
    ("assoc_walk.walk_steps", "count"),
    ("assoc_walk.jackknife_s", "s"),
    ("clan_sim.ensemble_s", "s"),
    ("clan_sim.replicates", "count"),
    ("exact_fl.scalar_calls", "count"),
    ("exact_fl.scalar_s", "s"),
    ("exact_fl.fold_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.out_bytes", "bytes"),
)


class _Frame:
    __slots__ = ("name", "start", "child", "local")

    def __init__(self, name: str, start: float, local: bool):
        self.name = name
        self.start = start
        self.child = 0.0      # summed durations of direct children on this thread
        self.local = local    # False for ancestors inherited from another thread


class Tracer:
    """Collects spans and counters for one round at a time."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.spans: list[tuple[str, int, float, float, float]] = []  # name, thread, start, end, self
        self.counts: dict[str, float] = {}

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(f.name == name for f in self._stack())

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        frame = _Frame(name, time.perf_counter(), True)
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - frame.start
            if stack and stack[-1].local:
                stack[-1].child += dur
            with self._lock:
                self.spans.append((name, threading.get_ident(), frame.start, end, dur - frame.child))

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        t = self

        orig_substream = streams.RngStream.substream

        def substream(self_, purpose, index=0):
            t.add("streams.substream_calls", 1)
            return orig_substream(self_, purpose, index)
        self._patch(streams.RngStream, "substream", substream)

        orig_draw = env_model.draw_increments

        def draw_increments(spec, gen, size):
            x = t.call("env_model.draw", orig_draw, spec, gen, size)
            t.add("env_model.draw_values", x.size)
            if t.inside("assoc_walk.scan"):
                t.add("assoc_walk.walk_steps", x.size)
            return x
        for mod in (env_model, estimators, assoc_walk):
            self._patch(mod, "draw_increments", draw_increments)

        for mod, block_name in ((estimators, "estimators.block"), (assoc_walk, "assoc_walk.block"),
                                (clan_sim, "clan_sim.block")):
            self._patch(mod, "map_blocks", self._map_wrapper(mod.map_blocks, block_name))

        orig_sweep = estimators._sweep

        def _sweep(spec, n, m_samples, stream, purpose, kernel, shards=1):
            t.add("estimators.sweep_cells", m_samples * (n + 1))

            def traced_kernel(s):
                return t.call("estimators.kernel", kernel, s)
            return t.call("estimators.sweep", orig_sweep, spec, n, m_samples, stream, purpose,
                          traced_kernel, shards)
        self._patch(estimators, "_sweep", _sweep)

        exp_rows = estimators._ExpRows
        orig_init, orig_lse = exp_rows.__init__, exp_rows.lse

        def __init__(self_, a):
            t.call("estimators.exp", orig_init, self_, a)

        def lse(self_, lo, hi):
            t.add("estimators.lse_calls", 1)
            return t.call("estimators.lse", orig_lse, self_, lo, hi)
        self._patch(exp_rows, "__init__", __init__)
        self._patch(exp_rows, "lse", lse)

        orig_logsumexp = estimators.logsumexp

        def logsumexp(a, *args, **kwargs):
            if t.inside("estimators.lse"):
                t.add("estimators.lse_slow_rows", a.shape[0])
            return orig_logsumexp(a, *args, **kwargs)
        self._patch(estimators, "logsumexp", logsumexp)

        self._patch(estimators, "fit_scaling_points",
                    self._timed("estimators.fit", estimators.fit_scaling_points))
        self._patch(estimators, "ratio_with_stderr",
                    self._timed("mcstats.ratio", estimators.ratio_with_stderr))

        orig_from_values = mcstats.MCEstimate.__dict__["from_values"].__func__

        def from_values(cls, values):
            t.add("mcstats.exact_sum_values", len(values))
            return t.call("mcstats.exact_sum", orig_from_values, cls, values)
        self._patch(mcstats.MCEstimate, "from_values", classmethod(from_values))

        orig_scan = assoc_walk._persistence_scan
        self._patch(assoc_walk, "_persistence_scan", self._timed("assoc_walk.scan", orig_scan))
        self._patch(assoc_walk, "harmonicity_residual",
                    self._timed("assoc_walk.harmonicity", assoc_walk.harmonicity_residual))

        orig_ensemble = clan_sim.final_clans_ensemble

        def final_clans_ensemble(path, m_reps, stream, *args, **kwargs):
            t.add("clan_sim.replicates", m_reps)
            return t.call("clan_sim.ensemble", orig_ensemble, path, m_reps, stream, *args, **kwargs)
        self._patch(clan_sim, "final_clans_ensemble", final_clans_ensemble)

        for name in _SCALAR:
            self._patch(exact_fl, name, self._scalar(getattr(exact_fl, name)))
        for name in _FOLD:
            self._patch(exact_fl, name, self._timed("exact_fl.fold", getattr(exact_fl, name)))

        orig_emit = cli._emit

        def _emit(config, outcome, run_record):
            t.call("cli.emit", orig_emit, config, outcome, run_record)
            if config.out:
                t.add("cli.out_bytes", os.path.getsize(config.out))
        self._patch(cli, "_emit", _emit)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _scalar(self, fn):
        def wrapper(*args, **kwargs):
            if self.inside("exact_fl.scalar"):  # the outermost call's span covers this one
                return fn(*args, **kwargs)
            self.add("exact_fl.scalar_calls", 1)
            return self.call("exact_fl.scalar", fn, *args, **kwargs)
        return wrapper

    def _map_wrapper(self, orig_map, block_name: str):
        t = self

        def map_blocks(fn, n_blocks, shards=1):
            t.add("parallel.blocks", n_blocks)
            workers = min(shards, n_blocks) if shards > 1 else 1
            ancestors = list(t._stack())

            def traced_block(b):
                stack = t._stack()
                inherited = not stack
                if inherited:  # a worker thread: see the caller's spans, never charge them
                    stack.extend(_Frame(f.name, f.start, False) for f in ancestors)
                try:
                    return t.call(block_name, fn, b)
                finally:
                    if inherited:
                        stack.clear()

            began = time.perf_counter()
            try:
                return t.call("parallel.map", orig_map, traced_block, n_blocks, shards)
            finally:
                t.add("parallel.capacity_s", (time.perf_counter() - began) * workers)
        return map_blocks

    # -- summary ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the round recorded since the last reset."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for name, _, start, end, self_s in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + self_s
        c = self.counts
        draw_values = c.get("env_model.draw_values", 0.0)
        blocks_s = sum(total.get(k, 0.0) for k in
                       ("estimators.block", "assoc_walk.block", "clan_sim.block"))
        capacity = c.get("parallel.capacity_s", 0.0)
        metrics = {
            "streams.substream_calls": c.get("streams.substream_calls", 0.0),
            "env_model.draw_s": total.get("env_model.draw", 0.0),
            "env_model.draw_values": draw_values,
            "env_model.draw_ns_per_value":
                1e9 * total.get("env_model.draw", 0.0) / draw_values if draw_values else 0.0,
            "estimators.sweep_cells": c.get("estimators.sweep_cells", 0.0),
            # a sweep block's own time: the walk cumsum and the block's allocations
            "estimators.cumsum_s": own.get("estimators.block", 0.0),
            "estimators.kernel_s": total.get("estimators.kernel", 0.0),
            "estimators.exp_s": total.get("estimators.exp", 0.0),
            "estimators.lse_s": total.get("estimators.lse", 0.0),
            "estimators.lse_calls": c.get("estimators.lse_calls", 0.0),
            "estimators.lse_slow_rows": c.get("estimators.lse_slow_rows", 0.0),
            "estimators.fit_s": total.get("estimators.fit", 0.0),
            "mcstats.exact_sum_s": total.get("mcstats.exact_sum", 0.0),
            "mcstats.exact_sum_values": c.get("mcstats.exact_sum_values", 0.0),
            "mcstats.ratio_s": total.get("mcstats.ratio", 0.0),
            "parallel.blocks": c.get("parallel.blocks", 0.0),
            "parallel.busy_share": blocks_s / capacity if capacity else 0.0,
            "assoc_walk.scan_s": total.get("assoc_walk.scan", 0.0),
            "assoc_walk.walk_steps": c.get("assoc_walk.walk_steps", 0.0),
            # harmonicity_residual minus its table scan and draws: the jackknife loop
            "assoc_walk.jackknife_s": own.get("assoc_walk.harmonicity", 0.0),
            "clan_sim.ensemble_s": total.get("clan_sim.ensemble", 0.0),
            "clan_sim.replicates": c.get("clan_sim.replicates", 0.0),
            "exact_fl.scalar_calls": c.get("exact_fl.scalar_calls", 0.0),
            "exact_fl.scalar_s": total.get("exact_fl.scalar", 0.0),
            "exact_fl.fold_s": total.get("exact_fl.fold", 0.0),
            "cli.emit_s": total.get("cli.emit", 0.0),
            "cli.out_bytes": c.get("cli.out_bytes", 0.0),
        }
        metrics["self_s_total"] = sum(v for k, v in own.items() if k not in _WAITING)
        return metrics

    def span_dump(self) -> list[list]:
        return [[name, tid, round(start, 7), round(end, 7)] for name, tid, start, end, _ in self.spans]


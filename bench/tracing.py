"""Spans and counts around the calls into each relaylink layer.

The tracer replaces chosen functions with wrappers in every loaded
``relaylink`` module that holds them, which is where callers look them up
(``analysis.alpha_mu_snr_cdf`` and ``mcsim.gammaincinv`` are imported by name).
Names that a module no longer has are skipped, so the metrics they feed read
zero rather than the benchmark failing.

Each wrapper times its call and subtracts the time of the wrapped calls made
inside it (per thread) to get self time. Calls are aggregated per
(name, context) with their number of values, so a vectorized rewrite that
passes arrays stays comparable. Calls named in ``SPAN_NAMES`` are also kept as
individual spans (id, name, start, end, parent, thread); the per-value calls
below them are only aggregated, which keeps the record small. Everything is
held in memory and written out by ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np


def _size(x):
    return int(np.size(x)) if isinstance(x, np.ndarray) else 1


def _last_arg(args, kwargs, result):
    return _size(args[-1]) if args else 1


def _trials(args, kwargs, result):
    mc = args[1] if len(args) > 1 else kwargs["mc"]
    return mc.trials


def _iterations(args, kwargs, result):
    return result.iterations


# (module, attribute) -> how many values one call handles
TARGETS = {
    ("specfun", "reg_lower_inc_gamma"): _last_arg,
    ("specfun", "hermite_rule"): None,
    ("specfun", "adaptive_simpson"): None,
    ("channels", "alpha_mu_snr_cdf"): _last_arg,
    ("selection", "nth_best_cdf"): _last_arg,
    ("selection", "downlink_cdf"): _last_arg,
    ("analysis", "total_outage"): None,
    ("analysis", "asymptotic_outage"): None,
    ("analysis", "asep"): None,
    ("analysis", "_total_outage_value"): _last_arg,
    ("analysis", "_configure"): None,
    ("mcsim", "simulate_outage"): _trials,
    ("mcsim", "simulate_asep"): _trials,
    ("mcsim", "rng_stream"): None,
    ("mcsim", "_draw_uniforms"): None,
    ("mcsim", "_end_to_end_snr"): None,
    ("mcsim", "_alpha_mu_bulk"): None,
    ("mcsim", "gammaincinv"): _last_arg,
    ("mcsim", "_map_blocks"): None,
    ("ggfit", "fit_alpha_mu"): _iterations,
    ("ggfit", "fit_diagnostics"): None,
    ("scenario", "load_scenario"): None,
}

SPAN_NAMES = {
    "bench.point", "analysis.total_outage", "analysis.asep",
    "mcsim.simulate_outage", "mcsim.simulate_asep", "mcsim._map_blocks",
    "mcsim.block", "ggfit.fit_alpha_mu", "ggfit.fit_diagnostics",
    "scenario.load_scenario", "specfun.hermite_rule",
    "specfun.adaptive_simpson", "cli.main",
}


class Tracer:
    def __init__(self):
        self.context = "setup"
        self.spans = []
        self._ids = itertools.count()
        self._stats = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanout_parent = None
        self._patched = []

    # -- recording -------------------------------------------------------
    def _thread_state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = ([], {})
            with self._lock:
                self._stats.append(st[1])
        return st

    def wrap(self, name, fn, count=None):
        tracer = self
        keep_span = name in SPAN_NAMES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats = tracer._thread_state()
            # a worker thread's first span hangs below the fan-out that started it
            parent = stack[-1][1] if stack else tracer._fanout_parent
            span_id = next(tracer._ids) if keep_span else parent
            frame = [0.0, span_id]
            stack.append(frame)
            if name == "specfun.adaptive_simpson":
                args = (tracer.wrap("analysis.simpson_integrand", args[0], _last_arg),
                        *args[1:])
            elif name == "mcsim._map_blocks":
                args = (tracer.wrap("mcsim.block", args[0]), *args[1:])
                tracer._fanout_parent = span_id
            values = 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    values = count(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if name == "mcsim._map_blocks":
                    tracer._fanout_parent = None
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                rec = stats.get((name, tracer.context))
                if rec is None:
                    rec = stats[(name, tracer.context)] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += values
                rec[2] += dur
                rec[3] += dur - frame[0]
                if keep_span:
                    tracer.spans.append((span_id, name, t0, t1, parent,
                                         threading.get_ident()))
        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    # -- installing ------------------------------------------------------
    def install(self):
        """Wrap every target wherever a loaded relaylink module holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "relaylink" or n.startswith("relaylink."))]
        for (mod_name, attr), count in TARGETS.items():
            original = getattr(sys.modules.get(f"relaylink.{mod_name}"), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(f"{mod_name}.{attr}", original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------
    def stats(self):
        """{(name, context): [calls, values, total_s, self_s]} over all threads."""
        merged = {}
        with self._lock:
            tables = list(self._stats)
        for table in tables:
            for key, rec in table.items():
                acc = merged.setdefault(key, [0, 0, 0.0, 0.0])
                for i in range(4):
                    acc[i] += rec[i]
        return merged

    def dump(self, path, extra=None):
        record = {"spans": sorted(self.spans),
                  "stats": [[name, ctx, *rec]
                            for (name, ctx), rec in sorted(self.stats().items())]}
        record.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)

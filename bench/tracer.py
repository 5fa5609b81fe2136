"""Run-time span tracing of sgdinf's public functions, from outside the package.

Tracer.install() replaces each traced function or method with a wrapper
that times the call, in every sgdinf module that holds a reference to it,
and uninstall() puts the originals back. Spans stay in memory: per-name
totals for every call, and one record per call (name, start, duration,
parent) for the layers that are not called once per SGD iteration. A
span's self time is its duration minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute, span name, one record per call?). Class attributes are
# written "Class.method". The sink observe() methods run once per SGD
# iteration, so they keep totals only.
TRACED = (
    ("cli", "main", "cli.main", True),
    ("harness", "load_config", "harness.load_config", True),
    ("harness", "make_oracle_bundle", "harness.make_oracle_bundle", True),
    ("harness", "run_replication", "harness.run_replication", True),
    ("harness", "aggregate", "harness.aggregate", True),
    ("harness", "write_results", "harness.write_results", True),
    ("models", "sample_dataset", "models.sample_dataset", True),
    ("sgd", "run", "sgd.run", True),
    ("plugin", "PluginAccumulator.observe", "plugin.observe", False),
    ("plugin", "PluginAccumulator.finalize", "plugin.finalize", True),
    ("batchmeans", "BatchMeansAccumulator.observe", "batchmeans.observe", False),
    ("batchmeans", "BatchMeansAccumulator.finalize", "batchmeans.finalize", True),
    ("inference", "confidence_interval", "inference.confidence_interval", True),
    ("highdim", "radar_lasso", "highdim.radar_lasso", True),
    ("highdim", "nodewise_fit_all", "highdim.nodewise_fit_all", True),
    ("highdim", "tau_hat", "highdim.tau_hat", True),
    ("highdim", "build_omega", "highdim.build_omega", True),
    ("highdim", "debias", "highdim.debias", True),
    ("highdim", "highdim_ci", "highdim.highdim_ci", True),
)


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}     # name -> [calls, seconds, child seconds]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []          # (id, name, start, seconds, parent id)
        self._stack: list[list] = []          # [span id, child seconds] per open span
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, record, before=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        if not record:
            # Per-iteration layers have no traced children: keep the
            # wrapper as short as the totals allow.
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    totals[0] += 1
                    totals[1] += dt
                    if stack:
                        stack[-1][1] += dt
            return hot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                totals[0] += 1
                totals[1] += dt
                totals[2] += frame[1]
                spans.append((span_id, name, t0, dt, parent))
        return wrapper

    def _before_for(self, name):
        counters = self.counters
        if name == "sgd.run":
            def before(args, kwargs):
                n = args[1] if len(args) > 1 else kwargs["n"]
                counters["sgd.iterations"] = counters.get("sgd.iterations", 0) + int(n)
                return args, kwargs
            return before
        if name == "highdim.radar_lasso":
            def before(args, kwargs):
                user = kwargs.get("on_step")

                def on_step(*a):
                    counters["highdim.radar_lasso.prox_steps"] = (
                        counters.get("highdim.radar_lasso.prox_steps", 0) + 1)
                    if user is not None:
                        user(*a)
                return args, dict(kwargs, on_step=on_step)
            return before
        return None

    def install(self) -> None:
        """Wrap every traced name. A name the package no longer has is
        skipped, and its metrics read zero."""
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "sgdinf" or k.startswith("sgdinf."))]
        for module_name, attr, name, record in TRACED:
            module = sys.modules.get(f"sgdinf.{module_name}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    continue
                setattr(cls, meth, self._wrap(fn, name, record))
                self._undo.append((cls, meth, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, record, self._before_for(name))
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current totals: name -> (calls, seconds, self seconds), plus counters."""
        out = {name: (t[0], t[1], t[1] - t[2]) for name, t in self.totals.items()}
        out.update({name: (v, 0.0, 0.0) for name, v in self.counters.items()})
        return out

    def write(self, path) -> None:
        doc = {
            "totals": {k: {"calls": v[0], "seconds": v[1], "self_seconds": v[1] - v[2]}
                       for k, v in self.totals.items()},
            "counters": self.counters,
            "spans": [{"id": s[0], "name": s[1], "start": s[2], "seconds": s[3],
                       "parent": s[4]} for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

"""Instrumentation the benchmark installs on the package from outside.

The package runs as shipped; nothing here changes what it computes.
Wrappers go in at the bindings callers actually look up: class
attributes for methods, and every module global of the package that
holds a wrapped function (``run_txn``, for example, is imported by name
into ``shuffle``, ``verify`` and ``cli``).  Two kinds are installed:

* The ledger is on in every run.  It sees each simulator, engine and
  transaction an op creates, since ``cli.main`` and
  ``probe_cache_sizes`` return none of them, and it yields the simulated
  counts and the trace digest of the op.
* Spans are on only in a traced run.  A span is (id, name, start, end,
  parent, op id) plus its self time.  Calls made hundreds of thousands
  of times per op (``CacheSim.access``, ``read_word``, ``write_word``,
  ``TxnContext.read``/``write``) and the cache maintenance calls do not
  get spans: each adds a call count, total ns and self ns to the
  innermost open span, so memory stays bounded.

Time the ledger spends folding finished simulators into its digest is
harness time.  It is subtracted from the op's time and from the duration
of every span it falls inside.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from oblishuffle import cache, cli, layout, shuffle, txn, verify

_now = time.perf_counter_ns
_WRITEBACK = cache.KIND_WRITEBACK


@dataclass
class OpLedger:
    """What one op did in simulation."""

    events: int = 0
    writebacks: int = 0
    accesses: int = 0
    l1_hits: int = 0
    llc_misses: int = 0
    attempts: int = 0
    committed: int = 0
    ac2: int = 0
    ac4: int = 0
    capacity_rejects: int = 0
    overflow_retries: int = 0
    harness_ns: int = 0
    digest: str = ""

    def behaviour(self) -> tuple[int, int, str]:
        """The simulated outcome a traced op must share with an untraced one."""
        return self.events, self.attempts, self.digest


class Instruments:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, traced: bool):
        self.traced = traced
        # finished spans: (id, name, start, end, parent, op, dur, self, agg)
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, dict]] = []  # open spans: (id, agg)
        self._inner = 0  # ns covered by children of the innermost open call
        self._harness = 0
        self._harness_at_begin = 0
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self._op: int | None = None
        self._sims: list = []
        self._engines: list = []
        self._hash = hashlib.sha256()
        self.ledger = OpLedger()

    # -- op boundaries -------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self.ledger = OpLedger()
        self._hash = hashlib.sha256()
        self._harness_at_begin = self._harness

    def call(self, fn, *args):
        """Run the op body, under a root span in a traced run."""
        if self.traced:
            return self._call_span("bench.op", fn, args, {})
        return fn(*args)

    def end_op(self) -> OpLedger:
        """Close the op's books.  Call after the op's clock has stopped."""
        led = self.ledger
        led.harness_ns = self._harness - self._harness_at_begin
        self._fold()
        for engine in self._engines:
            led.overflow_retries += engine.overflow_retries
        self._engines.clear()
        led.digest = self._hash.hexdigest()
        return led

    def _fold(self) -> None:
        """Fold finished simulators into the op's counts and digest."""
        if not self._sims:
            return
        t0 = _now()
        led = self.ledger
        for sim in self._sims:
            codes = array(
                "q", [(line << 1) | (kind == _WRITEBACK) for kind, line in sim.trace]
            )
            self._hash.update(len(codes).to_bytes(8, "little"))
            self._hash.update(codes.tobytes())
            led.events += len(codes)
            led.writebacks += int((np.frombuffer(codes, np.int64) & 1).sum())
            c = sim.counters
            led.accesses += c.total
            led.l1_hits += c.l1_hits
            led.llc_misses += c.llc_misses
        self._sims.clear()
        self._harness += _now() - t0

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Instruments":
        sim_cls, engine_cls = cache.CacheSim, shuffle.ShuffleEngine
        self._method(sim_cls, "__init__", self._sim_init)
        self._method(engine_cls, "__init__", self._engine_init)
        self._function(txn.run_txn, self._run_txn(txn.run_txn))
        if not self.traced:
            return self
        agg, span = self._aggregated, self._spanned
        self._method(sim_cls, "access", lambda f: agg("cache.access", f, True))
        for name in ("read_word", "write_word"):
            self._method(sim_cls, name, lambda f: agg("cache.word", f))
        for name in ("invalidate_lines", "unpin_lines", "writeback_line"):
            self._method(sim_cls, name, lambda f: agg("cache.maint", f))
        self._method(sim_cls, "flush_all", lambda f: span("cache.flush_all", f))
        for name in ("read", "write"):
            self._method(txn.TxnContext, name, lambda f: agg("txn.ctx", f))
        self._method(engine_cls, "scatter_txn", lambda f: span("shuffle.scatter", f))
        self._method(engine_cls, "gather_txn", lambda f: span("shuffle.gather", f))
        for fn, name in (
            (layout.check_conflicts, "layout.check_conflicts"),
            (verify.capture_trace, "verify.capture"),
            (verify.first_divergence, "verify.compare"),
            (verify.oracle_apply_perm, "verify.oracle"),
            (verify.probe_cache_sizes, "verify.probe"),
            (cli.main, "cli.main"),
        ):
            self._function(fn, span(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _method(self, cls, name: str, make) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, functools.wraps(orig)(make(orig)))
        self._undo.append((cls, name, orig))

    def _function(self, orig, wrapper) -> None:
        bindings = [
            (mod, key)
            for modname, mod in list(sys.modules.items())
            if modname == "oblishuffle" or modname.startswith("oblishuffle.")
            for key, value in vars(mod).items()
            if value is orig
        ]
        for mod, key in bindings:
            setattr(mod, key, wrapper)
            self._undo.append((mod, key, orig))

    # -- ledger hooks ----------------------------------------------------

    def _sim_init(self, orig):
        init = self._spanned("cache.init", orig) if self.traced else orig

        def __init__(sim, *args, **kwargs):
            # every workload builds its simulators one after another, so
            # the ones built before this are finished
            self._fold()
            init(sim, *args, **kwargs)
            self._sims.append(sim)

        return __init__

    def _engine_init(self, orig):
        init = self._spanned("shuffle.engine_init", orig) if self.traced else orig

        def __init__(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            self._engines.append(engine)

        return __init__

    def _run_txn(self, orig):
        run = self._spanned("txn.run_txn", orig) if self.traced else orig

        @functools.wraps(orig)
        def run_txn(sim, decl, body=None, *args, **kwargs):
            if self.traced and body is not None:
                body = self._spanned("shuffle.body", body)
            led = self.ledger
            stats = None
            try:
                stats = run(sim, decl, body, *args, **kwargs)
                return stats
            except (txn.CapacityError, txn.RetryCapExceededError) as exc:
                stats = exc.stats
                led.capacity_rejects += isinstance(exc, txn.CapacityError)
                raise
            finally:
                if stats is not None:
                    led.attempts += stats.attempts
                    led.committed += stats.committed
                    led.ac2 += stats.ac2
                    led.ac4 += stats.ac4

        return run_txn

    # -- spans ---------------------------------------------------------------

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call_span(name, fn, args, kwargs)

        return wrapper

    def _call_span(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        agg: dict[str, list[int]] = {}
        self._stack.append((sid, agg))
        saved = self._inner
        self._inner = 0
        harness0 = self._harness
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            self._stack.pop()
            dur = t1 - t0 - (self._harness - harness0)
            self.spans.append(
                (sid, name, t0, t1, parent, self._op, dur, dur - self._inner, agg)
            )
            self._inner = saved + dur

    def _aggregated(self, name: str, fn, by_outcome: bool = False):
        def wrapper(*args, **kwargs):
            saved = self._inner
            self._inner = 0
            key = name
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                if by_outcome:
                    key = f"{name}.{result}"
                return result
            except cache.PinViolationError:
                key = f"{name}.pin-violation"
                raise
            finally:
                dt = _now() - t0
                agg = self._stack[-1][1]
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - self._inner
                self._inner = saved + dt

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, dur, self_ns, agg in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": t0,
                            "end_ns": t1,
                            "parent": parent,
                            "op": op,
                            "dur_ns": dur,
                            "self_ns": self_ns,
                            # aggregated calls: name -> [count, total ns, self ns]
                            "aggregated": agg,
                        }
                    )
                    + "\n"
                )


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[tuple], ledgers: dict[int, OpLedger], op_counts: dict[int, Counter]
) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """Per-layer metrics as the median over traced ops, with sample counts.

    ``ledgers`` and ``op_counts`` are keyed by op id: the ledger of each
    traced op, and the counts the op itself reported (plan audits).
    """
    dur: dict[int, Counter] = {op: Counter() for op in ledgers}
    own: dict[int, Counter] = {op: Counter() for op in ledgers}
    calls: dict[int, Counter] = {op: Counter() for op in ledgers}
    agg: dict[int, dict[str, list[int]]] = {op: {} for op in ledgers}
    txn_ms = []
    for _sid, name, _t0, _t1, _parent, op, d, s, a in spans:
        dur[op][name] += d
        own[op][name] += s
        calls[op][name] += 1
        if name == "txn.run_txn":
            txn_ms.append(d / 1e6)
        for key, (n, total, self_ns) in a.items():
            rec = agg[op].setdefault(key, [0, 0, 0])
            rec[0] += n
            rec[1] += total
            rec[2] += self_ns

    per_op: list[dict[str, float]] = []
    for op, led in ledgers.items():
        g = agg[op]

        def agg_sum(prefix: str, field: int) -> int:
            return sum(v[field] for k, v in g.items() if k.startswith(prefix))

        hits = [g.get(f"cache.access.{o}", [0, 0, 0]) for o in ("l1-hit", "llc-hit")]
        hit_calls, hit_ns = sum(h[0] for h in hits), sum(h[1] for h in hits)
        miss = g.get("cache.access.llc-miss", [0, 0, 0])
        ctx = g.get("txn.ctx", [0, 0, 0])
        per_op.append(
            {
                "cache.access.calls": agg_sum("cache.access.", 0),
                "cache.access.hit_ns": _ratio(hit_ns, hit_calls),
                "cache.access.miss_ns": _ratio(miss[1], miss[0]),
                "cache.l1_hit_ratio": _ratio(led.l1_hits, led.accesses),
                "cache.llc_miss_ratio": _ratio(led.llc_misses, led.accesses),
                "cache.writebacks": led.writebacks,
                "cache.pin_violations": agg_sum("cache.access.pin-violation", 0),
                "cache.init_ms": dur[op]["cache.init"] / 1e6,
                "cache.flush_all_ms": dur[op]["cache.flush_all"] / 1e6,
                "cache.maint_ms": agg_sum("cache.maint", 1) / 1e6,
                "txn.run_txn.calls": calls[op]["txn.run_txn"],
                "txn.attempts": led.attempts,
                "txn.commit_ratio": _ratio(led.committed, led.attempts),
                "txn.ac2": led.ac2,
                "txn.ac4": led.ac4,
                "txn.capacity_rejects": led.capacity_rejects,
                "txn.self_ms": own[op]["txn.run_txn"] / 1e6,
                "txn.ctx.calls": ctx[0],
                "txn.ctx.self_ns": _ratio(ctx[2], ctx[0]),
                "shuffle.engine_init_ms": dur[op]["shuffle.engine_init"] / 1e6,
                "shuffle.scatter_ms": dur[op]["shuffle.scatter"] / 1e6,
                "shuffle.gather_ms": dur[op]["shuffle.gather"] / 1e6,
                "shuffle.body.self_ms": own[op]["shuffle.body"] / 1e6,
                "shuffle.overflow_retries": led.overflow_retries,
                "layout.check_conflicts.calls": calls[op]["layout.check_conflicts"],
                "layout.check_conflicts_ms": dur[op]["layout.check_conflicts"] / 1e6,
                "layout.plans_invalid": op_counts[op]["plans_invalid"],
                "verify.capture_ms": dur[op]["verify.capture"] / 1e6,
                "verify.compare_ms": dur[op]["verify.compare"] / 1e6,
                "verify.oracle_ms": dur[op]["verify.oracle"] / 1e6,
                "verify.probe_ms": dur[op]["verify.probe"] / 1e6,
                "cli.self_ms": own[op]["cli.main"] / 1e6,
            }
        )

    # a name ends in its unit (ms, ns or ratio); every other metric is a count
    metrics: dict[str, tuple[float, str]] = {}
    for name in per_op[0]:
        unit = re.split(r"[._]", name)[-1]
        metrics[name] = (
            statistics.median(row[name] for row in per_op),
            unit if unit in ("ms", "ns", "ratio") else "count",
        )
    p50, p99 = _percentiles(txn_ms)
    metrics["txn.ms_p50"] = (p50, "ms")
    metrics["txn.ms_p99"] = (p99, "ms")
    return metrics, {"traced_ops": len(per_op), "run_txn": len(txn_ms)}


def _percentiles(values: list[float]) -> tuple[float, float]:
    """Median and 99th percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=100)[98]

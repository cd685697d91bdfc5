"""Transactional execution on top of the cache simulator.

A transaction declares its read and write byte ranges up front.  Ranges
are normalized to whole lines; the write set must fit in L1 and the
union of read and write sets must fit in the LLC, otherwise the
transaction is rejected before touching the cache (a capacity abort).

With prefetching enabled (the default) each attempt begins by touching
every declared line in ascending line order: reads first, then writes.
All touches pin their lines, so a successfully prefetched body runs
entirely out of cache and emits no events; the prefetch block itself is a
fixed function of the declaration, never of the data.  On commit, dirty
lines are written back in the order they were first dirtied (for a
prefetched transaction that is ascending line order by construction) and
all pins are released; the lines stay resident and clean.  Each block is
one exact ``CacheSim`` call: the prefetch is ``sim.prefetch`` on the read
lines and then on the write lines, equal to one pinned ``access`` per
line, and the commit is ``sim.commit_lines``, equal to ``writeback_line``
per dirtied line followed by ``unpin_lines``.  With prefetching on, the
dirtied and pinned lines come straight from the declaration.

A body accesses words with ``ctx.read``/``ctx.write``, or consecutive
words with ``ctx.read_run(addr, count)``/``ctx.write_run(addr, values)``.
A run is exact: its result, any exception, the interrupt model's
consultations and the whole cache state (trace, counters, clock, LRU
stamps, dirty and pin bits) equal those of one per-word call per word at
ascending addresses.  It costs one full access per line; the line's
other words, which can only hit, are accounted in one step.  The
interrupt model is still consulted once per word.

Aborts roll everything back: every line the attempt touched is
invalidated without events, the declared write range is restored from a
snapshot taken at transaction start, pins are cleared, and the attempt
counter advances.  Retries repeat from the prefetch step up to
``retry_cap`` times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .cache import READ, WRITE, WORD_BYTES, CacheSim, PinViolationError

ByteRange = tuple[int, int]  # (start, size_bytes)


class AbortCause(enum.Enum):
    EVICTION = "ac2"  # pin rules left no evictable way
    CAPACITY = "ac3"  # declared footprint exceeds a cache level
    INTERRUPT = "ac4"  # external interrupt hit the attempt

    def __str__(self) -> str:
        return self.value


class TxnError(Exception):
    pass


class CapacityError(TxnError):
    """Declared footprint cannot fit; raised before any cache traffic."""

    def __init__(self, level: str, need: int, cap: int, stats: "TxnStats"):
        super().__init__(
            f"declared footprint {need} bytes exceeds {level} capacity {cap}"
        )
        self.level = level
        self.need = need
        self.cap = cap
        self.stats = stats


class RetryCapExceededError(TxnError):
    def __init__(self, stats: "TxnStats"):
        super().__init__(f"transaction aborted {stats.attempts} times")
        self.stats = stats


class UndeclaredAccessError(TxnError):
    def __init__(self, addr: int, kind: str):
        super().__init__(f"{kind} of address {addr} outside declared ranges")
        self.addr = addr
        self.kind = kind


class HitGuaranteeError(TxnError):
    """A prefetched transaction produced body events; this is a bug in the
    caller's layout or declaration, never expected in normal operation."""


class NestedTxnError(TxnError):
    pass


class _Interrupted(Exception):
    pass


def _normalize(ranges: Sequence[ByteRange], line_size: int) -> set[int]:
    lines: set[int] = set()
    for start, size in ranges:
        if size <= 0:
            raise ValueError(f"range size must be positive, got {size}")
        if start < 0:
            raise ValueError(f"range start must be non-negative, got {start}")
        first = start // line_size
        last = (start + size - 1) // line_size
        lines.update(range(first, last + 1))
    return lines


@dataclass(frozen=True)
class TxnDeclaration:
    """Declared byte ranges, normalized to line sets at a given line size."""

    read_ranges: tuple[ByteRange, ...]
    write_ranges: tuple[ByteRange, ...]
    line_size: int = 64
    read_lines: tuple[int, ...] = field(init=False)
    write_lines: tuple[int, ...] = field(init=False)
    all_lines: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = _normalize(self.write_ranges, self.line_size)
        r = _normalize(self.read_ranges, self.line_size)
        r -= w  # a line in both sets counts once, as writable
        rl, wl = tuple(sorted(r)), tuple(sorted(w))
        object.__setattr__(self, "read_lines", rl)
        object.__setattr__(self, "write_lines", wl)
        # two ascending runs: the sort only merges them
        object.__setattr__(self, "all_lines", tuple(sorted(rl + wl)))

    @classmethod
    def of(
        cls,
        reads: Iterable[ByteRange] = (),
        writes: Iterable[ByteRange] = (),
        line_size: int = 64,
    ) -> "TxnDeclaration":
        return cls(tuple(reads), tuple(writes), line_size)

    @cached_property
    def write_ok(self) -> frozenset[int]:
        """The lines a body may write, built on first use."""
        return frozenset(self.write_lines)

    @cached_property
    def read_ok(self) -> frozenset[int]:
        """The lines a body may read, built on first use."""
        return self.write_ok.union(self.read_lines)

    def footprint_bytes(self) -> int:
        return (len(self.read_lines) + len(self.write_lines)) * self.line_size

    def write_bytes(self) -> int:
        return len(self.write_lines) * self.line_size


@dataclass
class TxnStats:
    attempts: int = 0
    ac2: int = 0
    ac3: int = 0
    ac4: int = 0
    prefetch_events: int = 0
    body_events: int = 0
    committed: bool = False
    prefetch_enabled: bool = True
    trace_body_start: int = -1  # trace index where the final body began
    last_fault_line: int | None = None

    def count(self, cause: AbortCause) -> None:
        if cause is AbortCause.EVICTION:
            self.ac2 += 1
        elif cause is AbortCause.CAPACITY:
            self.ac3 += 1
        else:
            self.ac4 += 1


# -- interrupt models ------------------------------------------------------


class AccessProbability:
    """Independent per-access firing with fixed probability.

    The generator persists across attempts and transactions, so retried
    work re-rolls fresh randomness.  ``consultations`` counts every draw,
    which makes the total number of interrupts exactly
    Binomial(consultations, rate) by construction.
    """

    _BUF = 4096

    def __init__(self, rate: float, seed: int):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self.consultations = 0
        self._rng = np.random.Generator(np.random.Philox(key=seed))
        self._buf: np.ndarray = self._rng.random(self._BUF)
        self._pos = 0

    def fires_on_access(self) -> bool:
        self.consultations += 1
        if self._pos >= self._BUF:
            self._buf = self._rng.random(self._BUF)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return bool(u < self.rate)


# -- execution -------------------------------------------------------------


class TxnContext:
    """Handle passed to the transaction body.

    Reads and writes go through the cache with pinning and are checked
    against the declaration.  ``read_run``/``write_run`` do the same for
    consecutive words (see the module docstring).  ``tick`` models a unit
    of computation that touches no memory but can still be interrupted.
    """

    __slots__ = (
        "_sim",
        "_decl",
        "_model",
        "_touched",
        "_dirtied",
        "_dirtied_set",
        "_shift",
    )

    def __init__(self, sim: CacheSim, decl: TxnDeclaration, model) -> None:
        self._sim = sim
        self._decl = decl
        self._model = model
        self._touched: set[int] = set()
        self._dirtied: list[int] = []
        self._dirtied_set: set[int] = set()
        self._shift = sim.config.line_shift

    def _consult(self) -> None:
        if self._model is not None and self._model.fires_on_access():
            raise _Interrupted()

    def read(self, addr: int) -> int:
        line = addr >> self._shift
        if line not in self._decl.read_ok:
            raise UndeclaredAccessError(addr, READ)
        self._consult()
        self._touched.add(line)
        return self._sim.read_word(addr, pin=True)

    def write(self, addr: int, value: int) -> None:
        line = addr >> self._shift
        if line not in self._decl.write_ok:
            raise UndeclaredAccessError(addr, WRITE)
        self._consult()
        self._touched.add(line)
        if line not in self._dirtied_set:
            self._dirtied_set.add(line)
            self._dirtied.append(line)
        self._sim.write_word(addr, value, pin=True)

    def read_run(self, addr: int, count: int) -> list[int]:
        """Values of ``count`` words from ``addr``, exactly as that many
        ``read`` calls at ascending word addresses."""
        mem = self._sim.memory
        out: list[int] = []
        for w, k in self._run_lines(addr, count, READ):
            out += [mem.get(i, 0) for i in range(w, w + k)]
        return out

    def write_run(self, addr: int, values: Sequence[int]) -> None:
        """Store ``values`` at ascending words from ``addr``, exactly as
        one ``write`` call per value."""
        mem = self._sim.memory
        v = 0
        for w, k in self._run_lines(addr, len(values), WRITE):
            mem.update(zip(range(w, w + k), values[v : v + k]))
            v += k

    def _run_lines(self, addr: int, count: int, kind: str):
        """Make a run's accesses line by line, yielding (first word index,
        words) once each line's words are accounted.

        Each line goes through the per-word steps once (declaration,
        interrupt model, touched and dirtied sets, alignment,
        ``CacheSim.access``); its remaining words, which can only hit,
        consult the model one by one and are then accounted by
        ``CacheSim.repeat_hit``.  An interrupt on a later word yields the
        words before it and then raises, as the per-word path would.
        """
        sim = self._sim
        model = self._model
        shift = self._shift
        ok = self._decl.write_ok if kind == WRITE else self._decl.read_ok
        end = addr + count * WORD_BYTES
        while addr < end:
            line = addr >> shift
            if line not in ok:
                raise UndeclaredAccessError(addr, kind)
            self._consult()
            self._touched.add(line)
            if kind == WRITE and line not in self._dirtied_set:
                self._dirtied_set.add(line)
                self._dirtied.append(line)
            if addr % WORD_BYTES:
                raise ValueError(f"address {addr} not word aligned")
            sim.access(addr, kind, True)
            stop = min(end, (line + 1) << shift)
            k = (stop - addr) // WORD_BYTES - 1
            fired = False
            if model is not None:
                for done in range(k):
                    if model.fires_on_access():
                        k, fired = done, True
                        break
            sim.repeat_hit(line, k)
            yield addr >> 3, k + 1
            if fired:
                raise _Interrupted()
            addr = stop

    def tick(self) -> None:
        self._consult()


def run_txn(
    sim: CacheSim,
    decl: TxnDeclaration,
    body: Callable[[TxnContext], None] | None = None,
    interrupt_model=None,
    *,
    prefetch: bool = True,
    retry_cap: int = 1024,
) -> TxnStats:
    """Execute one transaction to commit, raising on capacity rejection or
    retry exhaustion.  Returns the accumulated statistics."""
    if sim.txn_open:
        raise NestedTxnError("a transaction is already open on this simulator")
    cfg = sim.config
    if decl.line_size != cfg.line_size:
        raise ValueError("declaration line size does not match the cache")
    stats = TxnStats(prefetch_enabled=prefetch)

    need_w = decl.write_bytes()
    if need_w > cfg.l1_capacity:
        stats.ac3 = 1
        raise CapacityError("l1", need_w, cfg.l1_capacity, stats)
    need_all = decl.footprint_bytes()
    if need_all > cfg.llc_capacity:
        stats.ac3 = 1
        raise CapacityError("llc", need_all, cfg.llc_capacity, stats)
    if retry_cap < 1:
        raise ValueError("retry_cap must be at least 1")

    # the declared write range's words, and those present, for rollback
    per_line = cfg.line_size // WORD_BYTES
    words = [
        w
        for line in decl.write_lines
        for w in range(line * per_line, (line + 1) * per_line)
    ]
    mem = sim.memory
    snapshot = {w: mem[w] for w in words if w in mem}

    sim.txn_open = True
    try:
        while True:
            stats.attempts += 1
            if stats.attempts > retry_cap:
                stats.attempts = retry_cap
                raise RetryCapExceededError(stats)
            ctx = TxnContext(sim, decl, interrupt_model)
            try:
                pf_start = len(sim.trace)
                try:
                    if prefetch:
                        sim.prefetch(decl.read_lines, READ)
                        sim.prefetch(decl.write_lines, WRITE)
                finally:
                    # count partial blocks too: an abort mid-prefetch has
                    # already emitted its events
                    stats.prefetch_events += len(sim.trace) - pf_start

                stats.trace_body_start = len(sim.trace)
                if body is not None:
                    body(ctx)
                stats.body_events += len(sim.trace) - stats.trace_body_start
            except Exception as exc:
                # roll back; invalidating the lines also drops their pins
                sim.invalidate_lines(decl.all_lines if prefetch else ctx._touched)
                for w in words:
                    mem.pop(w, None)
                mem.update(snapshot)
                if isinstance(exc, PinViolationError):
                    stats.count(AbortCause.EVICTION)
                    stats.last_fault_line = exc.line_address
                elif isinstance(exc, _Interrupted):
                    stats.count(AbortCause.INTERRUPT)
                else:
                    # programming errors leave the simulator consistent
                    raise
                continue

            if prefetch:
                # the prefetch dirtied the write lines in order and pinned
                # every declared line; the body can add neither
                sim.commit_lines(decl.write_lines, decl.all_lines)
            else:
                sim.commit_lines(ctx._dirtied, ctx._touched)
            stats.committed = True
            if prefetch and stats.body_events:
                raise HitGuaranteeError(
                    f"prefetched transaction produced {stats.body_events} "
                    "body events"
                )
            return stats
    finally:
        sim.txn_open = False

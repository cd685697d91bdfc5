"""Transactional execution on top of the cache simulator.

A transaction declares its read and write byte ranges up front.  Ranges
are normalized to whole lines; the write set must fit in L1 and the
union of read and write sets must fit in the LLC, otherwise the
transaction is rejected before touching the cache (a capacity abort).  A
declaration that reaches past the address space is refused the same way,
with a ValueError, after the capacity checks.

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
per dirtied line followed by ``unpin_lines``.  Each attempt's context
holds the lines it pinned and dirtied, and the commit and a rollback work
from those: with prefetching on they are the declared lines.

A body accesses words with ``ctx.read``/``ctx.write``, or consecutive
words with ``ctx.read_run(addr, count)``/``ctx.write_run(addr, values)``;
a single word is a run of length one.  A run is exact: its result, any
exception, the interrupt model's consultations and the whole cache state
(trace, counters, LRU order, dirty and pin bits) equal those of
one per-word access per word at ascending addresses, for valid input.
Invalid input is the caller's error and has one rule: a run checks the
declaration once for all its lines, and the alignment of its first word,
and raises an UndeclaredAccessError or a ValueError naming the first bad
word before it consults the interrupt model or accesses anything.  A
valid run consults the model once for its words and makes one
``CacheSim.access_run`` call, which takes one step per line.  In a body
run without prefetch, only a line's first word within a run can fault
(on a pin), and the per-word path neither consults nor touches anything
past a fault.  So there a run is split at line starts: its first word is
one stretch, and each later stretch runs through the next word that
starts a line, one consultation and one ``access_run`` each.

Interrupt models answer one question, ``first_fire(count)``: make
``count`` consultations, stopping at the first that fires, and return its
index or None.  A run of n words asks it once with n and accesses only
the words before the one that fired; ``ctx.tick(count)`` asks it once
with ``count``.

Aborts roll everything back: every line the attempt's context holds as
pinned is invalidated without events, which clears the pins, and the
attempt counter advances.  Each attempt's context keeps an undo log of
the words it stores, with their old values; on abort the log is replayed
newest first, so memory, its set of present words included, is as the
attempt found it.  Retries repeat from the prefetch step up to
``retry_cap`` times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .cache import READ, WRITE, WORD_BYTES, CacheSim, PinViolationError

ByteRange = tuple[int, int]  # (start, size_bytes)


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
    ac2: int = 0  # eviction aborts: pin rules left no evictable way
    ac3: int = 0  # capacity aborts: declared footprint exceeds a cache level
    ac4: int = 0  # interrupt aborts: an external interrupt hit the attempt
    prefetch_events: int = 0
    body_events: int = 0
    committed: bool = False
    prefetch_enabled: bool = True
    trace_body_start: int = -1  # trace index where the final body began
    last_fault_line: int | None = None


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
        self._buf: list[float] = self._rng.random(self._BUF).tolist()
        self._pos = 0

    def first_fire(self, count: int) -> int | None:
        """Make ``count`` consultations, stopping at the first that fires;
        returns its index, or None if none fired.

        Each consultation takes the next draw from the buffer, refilled
        only when a draw is needed and the buffer is spent, so
        ``consultations`` and the draw position advance exactly as
        ``count`` single consultations (or as many as ran) would.
        """
        rate, buf, pos = self.rate, self._buf, self._pos
        done = 0
        while done < count:
            if pos >= self._BUF:
                buf = self._buf = self._rng.random(self._BUF).tolist()
                pos = 0
            stop = min(self._BUF, pos + count - done)
            if min(buf[pos:stop]) < rate:
                for i in range(pos, stop):
                    if buf[i] < rate:
                        self.consultations += done + i - pos + 1
                        self._pos = i + 1
                        return done + i - pos
            done += stop - pos
            pos = stop
        self.consultations += done
        self._pos = pos
        return None


# -- execution -------------------------------------------------------------


class TxnContext:
    """One attempt of a transaction: the handle passed to its body and the
    record ``run_txn`` rolls back and commits from.

    Reads and writes go through the cache with pinning and are checked
    against the declaration.  ``read_run``/``write_run`` do the same for
    consecutive words (see the module docstring).  ``tick`` models units
    of computation that touch no memory but can still be interrupted.
    The context holds the lines its attempt pinned, and those it dirtied
    in the order first dirtied.  A prefetched attempt pins and dirties
    exactly the declared lines, in ascending order, and its body can add
    none; a cold one fills a set and an insertion-ordered dict as its
    body runs.
    """

    __slots__ = (
        "_sim",
        "_decl",
        "_model",
        "_pinned",
        "_dirtied",
        "_shift",
        "_prefetched",
        "_undo",
    )

    def __init__(
        self, sim: CacheSim, decl: TxnDeclaration, model, prefetched: bool
    ) -> None:
        self._sim = sim
        self._decl = decl
        self._model = model
        self._pinned: tuple[int, ...] | set[int] = (
            decl.all_lines if prefetched else set()
        )
        self._dirtied: tuple[int, ...] | dict[int, None] = (
            decl.write_lines if prefetched else {}
        )
        self._shift = sim.config.line_shift
        self._prefetched = prefetched
        # (first word, old values) per store; None for a word not present
        self._undo: list[tuple[int, list[int | None]]] = []

    def read(self, addr: int) -> int:
        """One word: a run of length one."""
        self._run(addr, 1, READ)
        return self._sim.memory.get(addr >> 3, 0)

    def write(self, addr: int, value: int) -> None:
        """One word: a run of length one."""
        self._run(addr, 1, WRITE, (value,))

    def read_run(self, addr: int, count: int) -> list[int]:
        """Values of ``count`` words from ``addr``, exactly as that many
        ``read`` calls at ascending word addresses."""
        self._run(addr, count, READ)
        w = addr >> 3
        return list(map(self._sim.memory.get, range(w, w + count), repeat(0, count)))

    def write_run(self, addr: int, values: Sequence[int]) -> None:
        """Store ``values`` at ascending words from ``addr``, exactly as
        one ``write`` call per value."""
        self._run(addr, len(values), WRITE, values)

    def _rollback(self) -> None:
        """Undo this attempt's stores, newest first."""
        mem = self._sim.memory
        for w, old in reversed(self._undo):
            for i, v in enumerate(old, w):
                if v is None:
                    del mem[i]
                else:
                    mem[i] = v

    def _run(
        self, addr: int, count: int, kind: str, values: Sequence[int] | None = None
    ) -> None:
        """Make the accesses of ``count`` words from ``addr`` as one run,
        store ``values`` (a write run's) in the words accessed, then raise
        what the per-word calls would raise after them, if anything.

        The whole input is checked first, and a bad one changes nothing:
        an undeclared line raises UndeclaredAccessError naming its first
        word of the run, and a misaligned ``addr``, on a declared line, a
        ValueError.  A prefetched body makes the run as one stretch; a cold
        one splits it at line starts (see the module docstring) and adds
        the line each stretch reaches to the context's.  Each stretch asks
        the interrupt model once (``first_fire``) and is one
        ``CacheSim.access_run``, which raises a PinViolationError after the
        words before it; the run then stores no value, and logs none in
        the undo log.
        """
        if count <= 0:
            return
        shift = self._shift
        ok = self._decl.write_ok if kind == WRITE else self._decl.read_ok
        # per word, the line is checked before the alignment, so a
        # misaligned run fails on its first word
        end = addr if addr % WORD_BYTES else addr + (count - 1) * WORD_BYTES
        lines = range(addr >> shift, (end >> shift) + 1)
        if not ok.issuperset(lines):
            bad = next(line for line in lines if line not in ok)
            raise UndeclaredAccessError(max(addr, bad << shift), kind)
        if addr % WORD_BYTES:
            raise ValueError(f"address {addr} not word aligned")
        model = self._model
        cold = not self._prefetched
        mask = (1 << shift) - 1
        fired = None
        done = 0
        while done < count:
            a = addr + done * WORD_BYTES
            m = count - done
            if cold:
                # the first word alone, then through the next line start
                m = min(m, (-a & mask) // WORD_BYTES + 1) if done else 1
            if model is not None:
                fired = model.first_fire(m)
                if fired is not None:
                    m, count = fired, done + fired
            if m:
                if cold:
                    # only the last word can reach a line new to this run
                    line = (a + (m - 1) * WORD_BYTES) >> shift
                    self._pinned.add(line)
                    if kind == WRITE:
                        self._dirtied[line] = None
                self._sim.access_run(a, m, kind, True)
            done += m
        if values is not None and count:
            w = addr >> 3
            mem = self._sim.memory
            self._undo.append((w, list(map(mem.get, range(w, w + count)))))
            mem.update(zip(range(w, w + count), values))
        if fired is not None:
            raise _Interrupted()

    def tick(self, count: int = 1) -> None:
        """``count`` units of computation, each consulting the model."""
        if self._model is not None and self._model.first_fire(count) is not None:
            raise _Interrupted()


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
    if decl.all_lines and decl.all_lines[-1] << cfg.line_shift >= cfg.address_space:
        # name the line the prefetch would reach first: reads, then writes
        bad = next(line for line in decl.read_lines + decl.write_lines
                   if line << cfg.line_shift >= cfg.address_space)
        raise ValueError(f"address {bad << cfg.line_shift} out of range")

    sim.txn_open = True
    try:
        while True:
            stats.attempts += 1
            if stats.attempts > retry_cap:
                stats.attempts = retry_cap
                raise RetryCapExceededError(stats)
            ctx = TxnContext(sim, decl, interrupt_model, prefetch)
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
                sim.invalidate_lines(ctx._pinned)
                ctx._rollback()
                if isinstance(exc, PinViolationError):
                    stats.ac2 += 1
                    stats.last_fault_line = exc.line_address
                elif isinstance(exc, _Interrupted):
                    stats.ac4 += 1
                else:
                    # programming errors leave the simulator consistent
                    raise
                continue

            sim.commit_lines(ctx._dirtied, ctx._pinned)
            stats.committed = True
            if prefetch and stats.body_events:
                raise HitGuaranteeError(
                    f"prefetched transaction produced {stats.body_events} "
                    "body events"
                )
            return stats
    finally:
        sim.txn_open = False

"""Transactional execution on top of the cache simulator.

A transaction declares its read and write byte ranges up front.  The
declaration holds its lines only as spans: ascending, disjoint ranges of
whole lines, one list per side, the read spans without the write lines,
and, built on first use, one list of every declared line with touching
spans joined.  The write set must fit in L1 and the union of read and
write sets must fit in the LLC, otherwise the transaction is rejected
before touching the cache (a capacity abort).  A declaration that
reaches past the address space is refused the same way, with a
ValueError, after the capacity checks.  Both checks read only the
spans, so a refused declaration costs nothing per line, and the body's
declaration check bisects the spans, so it builds no set of lines.

With prefetching enabled (the default) each attempt begins by touching
every declared line in ascending line order: reads first, then writes.
All touches pin their lines, so a successfully prefetched body runs
entirely out of cache and emits no events; the prefetch block itself is a
fixed function of the declaration, never of the data.  On commit, dirty
lines are written back in the order they were first dirtied (for a
prefetched transaction that is ascending line order by construction) and
all pins are released; the lines stay resident and clean.  Each block is
one exact ``CacheSim`` call: the prefetch is ``sim.prefetch`` on the read
lines and then on the write lines, equal to one ``access`` per line,
and the commit is ``sim.commit_lines``, equal to ``writeback_line`` per
dirtied line, one pass over the lines the attempt dirtied and none over
those it only read.  The prefetch takes each side's spans as they are,
and the commit one iterator over the lines of the write spans.  A pin
is a stamp of the transaction's epoch (see ``cache``): ``run_txn``
opens the epoch with ``sim.open_txn``, so every access it makes is
pinned, and closes it with ``sim.close_txn``, which releases every pin
the transaction made in one step, however many lines it pinned.  A
prefetched attempt that reaches its body has pinned and dirtied exactly
the declared lines, so its commit writes back the write spans.  Its
rollback drops every declared span, also after a prefetch that faulted
part-way: the declared lines the prefetch never reached are dropped
too, resident ones among them, where hardware would keep the lines an
aborted transaction never touched (ROADMAP item 5).  A cold attempt's
context holds the lines it dirtied, which the commit writes back, and
those it pinned, which a rollback drops.

A body accesses words with ``ctx.read``/``ctx.write``, consecutive words
with ``ctx.read_run(addr, count)``/``ctx.write_run(addr, values)``, or a
list of such runs with ``ctx.write_runs([(addr, values), ...])``.  A run
list is the one access path: a single word is a list of one run of
length one, and a single run a list of one run.  A list is exact: its
result, any exception, the interrupt model's consultations and the whole
cache state (trace, counters, LRU order, dirty and pin bits) equal those
of one per-word access per word at ascending addresses, run after run,
for valid input.  A list is one walk, ``cache.line_steps``: it checks
the declaration once for all the lines of each run, by a bisect on the
first lines of the declared spans (``check_spans``, a list of ints built
once per declaration), and the alignment of each run's first word, and
in the same pass builds the run's (line, k) steps, the k words it has
in each line.  Invalid input is the caller's error and has one rule: a
bad list raises an UndeclaredAccessError or a ValueError naming the
first bad word of the first bad run before it consults the interrupt
model or accesses anything, so it changes nothing.  A valid list is
then run as stretches by one loop, each stretch its runs, their values,
their steps and their word count: the loop consults the model once for
the stretch, hands the steps of the words before any fire to the
kernel in one ``CacheSim.access_lines`` call and stores their values
itself, one ``CacheSim.store_words`` per run.  A prefetched body's
accesses all find their lines pinned and cannot fault, so there the
whole list is one stretch.  In a body without prefetch, only a line's
first word within a run can fault (on a pin), and the per-word path
neither consults nor touches anything past a fault.  So there each
run, in turn, is split at line starts: its first word is one stretch,
and each later stretch runs through the next word that starts a line,
its steps taken from the walk's.

Interrupt models answer one question, ``first_fire(count)``: make
``count`` consultations, stopping at the first that fires, and return its
index or None.  A list of n words asks it once with n (a cold one once
per stretch) and accesses, and stores, only the words before the one
that fired, whose steps are the walk's first steps; ``ctx.tick(count)``
asks it once with ``count``.  Each attempt's context counts the
consultations it makes, with or without a model, as a model would: one
per word accessed and one per tick, up to and including a word that
fired; ``run_txn`` adds each attempt's count to
``TxnStats.consultations``.  So a run with no model states what every
transaction would ask of one.
``AccessProbability`` draws its Philox stream in buffers of 4096 and
holds each buffer as its fire positions, the indices of the draws below
``rate``, so a call costs one bisect per buffer it reaches, however many
consultations it makes, and no Python object per draw.

Aborts roll everything back: every line the attempt pinned (a
prefetched attempt's every declared line) is invalidated without
events, which clears the pins, and the attempt counter advances.  Each
attempt's context keeps its own undo log of the runs it stores, each as
its first word and the old values that ``store_words`` returned for it;
on abort the old values are stored back newest first, so every word of
memory holds what it held when the attempt began.  Retries repeat from
the prefetch step up to ``retry_cap`` times.  A body that raises
``BodyAbortError`` aborts the transaction for its caller: the attempt
is rolled back and the error re-raised with the transaction's
statistics, as a capacity or retry-cap error carries them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .cache import READ, WRITE, WORD_BYTES, CacheSim, PinViolationError, line_steps

ByteRange = tuple[int, int]  # (start, size_bytes)
_start = attrgetter("start")  # a span's first line


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


class BodyAbortError(TxnError):
    """A body's own abort of its transaction, like an explicit abort
    instruction: ``run_txn`` rolls the attempt back and re-raises it with
    the transaction's statistics so far as ``stats``."""

    stats: TxnStats | None = None


class HitGuaranteeError(TxnError):
    """A prefetched transaction produced body events; this is a bug in the
    caller's layout or declaration, never expected in normal operation."""


class NestedTxnError(TxnError):
    pass


class _Interrupted(Exception):
    pass


def _check(ranges: Sequence[ByteRange]) -> None:
    """Raise a ValueError for the first invalid range, in the order given."""
    for start, size in ranges:
        if size <= 0:
            raise ValueError(f"range size must be positive, got {size}")
        if start < 0:
            raise ValueError(f"range start must be non-negative, got {start}")


def _spans(ranges: Sequence[ByteRange], line_size: int) -> list[range]:
    """The lines of ``ranges`` as ascending, disjoint spans: one pass over
    the ranges sorted by start, in which overlapping or adjacent ones
    merge.  An invalid range raises ``_check``'s error."""
    spans: list[range] = []
    lo = hi = -1
    for start, size in sorted(ranges):
        if size <= 0 or start < 0:
            _check(ranges)
        first = start // line_size
        if first > hi:
            if hi >= 0:
                spans.append(range(lo, hi))
            lo = first
        stop = (start + size - 1) // line_size + 1
        if stop > hi:
            hi = stop
    if hi >= 0:
        spans.append(range(lo, hi))
    return spans


def _line_count(spans: list[range]) -> int:
    """The lines of ``spans``, counted from their ends: ``len`` of a span
    of 2^63 lines or more overflows.  A plain loop: on the one span of a
    probe's declaration a generator takes about twice as long."""
    count = 0
    for span in spans:
        count += span.stop - span.start
    return count


def _subtract(spans: list[range], cut: list[range]) -> list[range]:
    """The lines of ``spans`` not in ``cut``, both ascending and disjoint,
    as ascending, disjoint spans: one sweep over the two lists."""
    out: list[range] = []
    j, n = 0, len(cut)
    for span in spans:
        lo, hi = span.start, span.stop
        while j < n and cut[j].stop <= lo:
            j += 1
        k = j
        while k < n and cut[k].start < hi:
            if cut[k].start > lo:
                out.append(range(lo, cut[k].start))
            lo = cut[k].stop
            k += 1
        if lo < hi:
            out.append(range(lo, hi))
    return out


@dataclass(frozen=True)
class TxnDeclaration:
    """Declared byte ranges, held as line spans at a given line size.

    Construction checks the ranges, writes first, then reads, in the
    order given, and turns each side into ascending, disjoint spans of
    lines, ``read_spans`` and ``write_spans`` (lists of ``range``s); a
    line on both sides counts once, as writable, so the read spans leave
    out the write lines.  The byte counts the capacity checks read,
    ``write_bytes()`` and ``footprint_bytes()``, are sums of span
    lengths taken from the spans' ends, so a declaration too large for
    the cache is refused, with its exact need, without one step per
    line, however many lines it spans.  ``spans``, every declared line
    as ascending spans with touching spans joined, is built on first
    use: a body's read check bisects it, and a prefetched attempt's
    rollback drops its lines.  A body's write check bisects
    ``write_spans``.  Equality and hashing depend only on the ranges and
    the line size.
    """

    read_ranges: tuple[ByteRange, ...]
    write_ranges: tuple[ByteRange, ...]
    line_size: int = 64

    def __post_init__(self) -> None:
        w = _spans(self.write_ranges, self.line_size)
        r = _subtract(_spans(self.read_ranges, self.line_size), w)
        object.__setattr__(self, "read_spans", r)
        object.__setattr__(self, "write_spans", w)

    @classmethod
    def of(
        cls,
        reads: Iterable[ByteRange] = (),
        writes: Iterable[ByteRange] = (),
        line_size: int = 64,
    ) -> "TxnDeclaration":
        return cls(tuple(reads), tuple(writes), line_size)

    @cached_property
    def spans(self) -> list[range]:
        """Every declared line as ascending spans, touching spans joined:
        the two sides sorted by start, each span joined to its neighbour
        when they touch (the sides share no line)."""
        out: list[range] = []
        for span in sorted(self.read_spans + self.write_spans, key=_start):
            if out and out[-1].stop == span.start:
                out[-1] = range(out[-1].start, span.stop)
            else:
                out.append(span)
        return out

    @cached_property
    def check_spans(self) -> dict[str, tuple[list[range], list[int]]]:
        """Per access kind, the spans a body's check of that kind bisects,
        ``spans`` or ``write_spans``, with the first line of each."""
        return {kind: (spans, [span.start for span in spans])
                for kind, spans in ((READ, self.spans), (WRITE, self.write_spans))}

    def footprint_bytes(self) -> int:
        return _line_count(self.read_spans + self.write_spans) * self.line_size

    def write_bytes(self) -> int:
        return _line_count(self.write_spans) * self.line_size


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
    # interrupt consultations of every attempt, with or without a model:
    # one per word accessed and one per tick, through a word that fired
    consultations: int = 0


# -- interrupt models ------------------------------------------------------


class AccessProbability:
    """Independent per-access firing with fixed probability.

    The generator persists across attempts and transactions, so retried
    work re-rolls fresh randomness.  ``consultations`` counts every draw,
    which makes the total number of interrupts exactly
    Binomial(consultations, rate) by construction.

    Draws come from a Philox stream in buffers of 4096, each drawn only
    when a consultation needs a draw and the last buffer is spent.  A
    buffer is held as its fire positions alone, the ascending indices of
    the draws below ``rate`` (about ``4096 * rate`` ints), and ``_pos``
    is the index of the next draw.  So ``rate`` is read-only, since the
    positions are computed from it at refill time, and one
    ``first_fire`` call costs one bisect per buffer it reaches, however
    many draws it consults.
    """

    _BUF = 4096

    def __init__(self, rate: float, seed: int):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self._rate = rate
        self.seed = seed
        self.consultations = 0
        self._rng = np.random.Generator(np.random.Philox(key=seed))
        self._fires = self._refill()
        self._pos = 0

    @property
    def rate(self) -> float:
        return self._rate

    def _refill(self) -> list[int]:
        """The fire positions of the next buffer of draws."""
        return np.flatnonzero(self._rng.random(self._BUF) < self._rate).tolist()

    def first_fire(self, count: int) -> int | None:
        """Make ``count`` consultations, stopping at the first that fires;
        returns its index, or None if none fired.

        Each consultation takes the next draw from the buffer, refilled
        only when a draw is needed and the buffer is spent, so
        ``consultations`` and the draw position advance exactly as
        ``count`` single consultations (or as many as ran) would.  The
        first fire at or past the draw position is one bisect of the
        buffer's fire positions.
        """
        fires, pos = self._fires, self._pos
        done = 0
        while done < count:
            if pos >= self._BUF:
                fires = self._fires = self._refill()
                pos = 0
            stop = min(self._BUF, pos + count - done)
            i = bisect_left(fires, pos)
            if i < len(fires) and fires[i] < stop:
                fire = fires[i]
                self.consultations += done + fire - pos + 1
                self._pos = fire + 1
                return done + fire - pos
            done += stop - pos
            pos = stop
        self.consultations += done
        self._pos = pos
        return None


# -- execution -------------------------------------------------------------


def _line_stretches(runs, values, steps):
    """A cold body's stretches of ``runs``, run after run, taken from the
    walk's ``steps``: a run's first word alone, then each later stretch
    through the next word that starts a line.  Each is yielded in the
    shape of a whole list: its piece of the run as a list of one run,
    the values of that piece (None for a read), its steps and its word
    count."""
    it = iter(steps)
    for j, (addr, count) in enumerate(runs):
        done, k = 0, 1  # the words yielded; k - 1 of line's are left
        while done < count:
            if done + k - 1 < count:  # through the first word of the next line
                nxt, n = next(it)
                stretch = [(line, k - 1), (nxt, 1)] if k > 1 else [(nxt, 1)]
                m, line, k = k, nxt, n
            else:  # the run ends in this line
                m, stretch = k - 1, [(line, k - 1)]
            yield (((addr + done * WORD_BYTES, m),),
                   None if values is None else (values[j][done:done + m],),
                   stretch, m)
            done += m


def _first_words(pairs, k: int) -> list[tuple[int, int]]:
    """The pairs of the first ``k`` words of ``pairs``: runs ``(addr,
    count)`` or steps ``(line, k)``."""
    head = []
    for x, count in pairs:
        if k <= 0:
            break
        head.append((x, min(count, k)))
        k -= max(count, 0)
    return head


# a body's refusal of an access off its declaration, per access kind
_UNDECLARED = {kind: partial(UndeclaredAccessError, kind=kind)
               for kind in (READ, WRITE)}


class TxnContext:
    """One attempt of a transaction: the handle passed to its body and the
    record ``run_txn`` rolls back and commits from.

    Reads and writes go through the cache with pinning and are checked
    against the declaration.  ``read_run``/``write_run`` do the same for
    consecutive words, and ``write_runs`` for a list of such runs (see
    the module docstring).  ``tick`` models units of computation that
    touch no memory but can still be interrupted.  ``consultations``
    counts what the attempt has asked of the interrupt model, or would
    have asked of one (see the module docstring).
    A cold attempt's context holds the lines it dirtied, in the order
    first dirtied (an insertion-ordered dict), and those it pinned (a
    set), both filled as its body runs.  A prefetched attempt pins and
    dirties exactly the declared lines, in ascending order, and its body
    can add none, so its context holds neither (None): ``run_txn``
    commits and rolls it back from the declaration's spans.
    """

    __slots__ = (
        "_sim",
        "_decl",
        "_model",
        "_pinned",
        "_dirtied",
        "_shift",
        "_undo",
        "consultations",
    )

    def __init__(
        self, sim: CacheSim, decl: TxnDeclaration, model, prefetched: bool
    ) -> None:
        self._sim = sim
        self._decl = decl
        self._model = model
        self._pinned: set[int] | None = None if prefetched else set()
        self._dirtied: dict[int, None] | None = None if prefetched else {}
        self._shift = sim.config.line_shift
        # (first word, old values) per stored run
        self._undo: list[tuple[int, list[int]]] = []
        self.consultations = 0

    def read(self, addr: int) -> int:
        """One word: a run of length one."""
        self._run(((addr, 1),), READ)
        return self._sim.load_word(addr >> 3)

    def write(self, addr: int, value: int) -> None:
        """One word: a run of length one."""
        self._run(((addr, 1),), WRITE, ((value,),))

    def read_run(self, addr: int, count: int) -> list[int]:
        """Values of ``count`` words from ``addr``, exactly as that many
        ``read`` calls at ascending word addresses."""
        self._run(((addr, count),), READ)
        return self._sim.load_words(addr >> 3, count)

    def write_run(self, addr: int, values: Sequence[int]) -> None:
        """Store ``values`` at ascending words from ``addr``, exactly as
        one ``write`` call per value."""
        self._run(((addr, len(values)),), WRITE, (values,))

    def write_runs(self, runs: Sequence[tuple[int, Sequence[int]]]) -> None:
        """Store each ``(addr, values)`` of ``runs`` in order, exactly as
        one ``write_run`` call per pair, for valid input."""
        self._run([(addr, len(values)) for addr, values in runs], WRITE,
                  [values for _, values in runs])

    def _rollback(self) -> None:
        """Undo this attempt's stores, newest first."""
        store = self._sim.store_words
        for w, old in reversed(self._undo):
            store(w, old)

    def _run(
        self,
        runs: Sequence[tuple[int, int]],
        kind: str,
        values: Sequence[Sequence[int]] | None = None,
    ) -> None:
        """Make the accesses of each ``(addr, count)`` of ``runs`` in order,
        store ``values`` (a write list's, one sequence per run) in the
        words accessed, then raise what the per-run calls would raise
        after them, if anything.

        The whole list is checked first, in the walk that builds its
        steps (``line_steps``), and a bad one changes nothing: the first
        run with a bad word raises, for an undeclared line an
        UndeclaredAccessError naming its first word of that run, and for a
        misaligned ``addr`` on a declared line a ValueError.  Then one
        loop runs the list's stretches: a prefetched body's list is one
        stretch, the runs, values, steps and word count as they are, and
        a cold one's are ``_line_stretches``, each run split at line
        starts (see the module docstring) in the same shape, and the loop
        adds the line each cold stretch reaches to the context's.  Each
        stretch asks the interrupt model once (``first_fire``), is one
        ``CacheSim.access_lines`` of the steps of the words before any
        fire, and then stores those words' values, one
        ``CacheSim.store_words`` per run, appending each run's first word
        and the values it overwrote to the undo log.  A PinViolationError
        from ``access_lines`` leaves its stretch's values unstored; the
        rollback restores the rest.
        """
        spans, starts = self._decl.check_spans[kind]
        steps, total = line_steps(runs, self._shift, spans, starts, _UNDECLARED[kind],
                                  True)
        if not total:
            return
        model, sim, pinned = self._model, self._sim, self._pinned
        for piece, vals, stretch, m in (
            ((runs, values, steps, total),) if pinned is None
            else _line_stretches(runs, values, steps)
        ):
            fired = None if model is None else model.first_fire(m)
            self.consultations += m if fired is None else fired + 1
            if fired is not None:
                m, piece = fired, _first_words(piece, fired)
                stretch = _first_words(stretch, fired)
                if vals is not None:  # the values of the words before it
                    vals = [v[:count] for (_, count), v in zip(piece, vals)]
            if m:
                if pinned is not None:
                    # only a cold stretch's last word can reach a line new
                    # to its run
                    line = stretch[-1][0]
                    pinned.add(line)
                    if kind == WRITE:
                        self._dirtied[line] = None
                sim.access_lines(stretch, kind)
                if vals is not None:  # each run's first word and old values
                    ws = [addr >> 3 for addr, _ in piece]
                    self._undo += zip(ws, map(sim.store_words, ws, vals))
            if fired is not None:
                raise _Interrupted()

    def tick(self, count: int = 1) -> None:
        """``count`` units of computation, each consulting the model."""
        fired = None if self._model is None else self._model.first_fire(count)
        self.consultations += count if fired is None else fired + 1
        if fired is not None:
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
    past = cfg.address_space >> cfg.line_shift  # the first line past the space
    for spans in (decl.read_spans, decl.write_spans):
        # name the line the prefetch would reach first: reads, then writes
        if spans and spans[-1].stop > past:
            bad = max(past, next(s.start for s in spans if s.stop > past))
            raise ValueError(f"address {bad << cfg.line_shift} out of range")

    sim.open_txn()
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
                        sim.prefetch(decl.read_spans, READ)
                        sim.prefetch(decl.write_spans, WRITE)
                finally:
                    # count partial blocks too: an abort mid-prefetch has
                    # already emitted its events
                    stats.prefetch_events += len(sim.trace) - pf_start

                stats.trace_body_start = len(sim.trace)
                if body is not None:
                    body(ctx)
                stats.body_events += len(sim.trace) - stats.trace_body_start
            except Exception as exc:
                # roll back; invalidating the lines also drops their pins.
                # A prefetched attempt pinned the declared spans, dropped
                # in any order: invalidation emits nothing and moves no
                # other entry
                sim.invalidate_lines(chain.from_iterable(decl.spans)
                                     if prefetch else ctx._pinned)
                ctx._rollback()
                if isinstance(exc, PinViolationError):
                    stats.ac2 += 1
                    stats.last_fault_line = exc.line_address
                elif isinstance(exc, _Interrupted):
                    stats.ac4 += 1
                else:
                    # a body's abort or a programming error: the simulator
                    # is left consistent
                    if isinstance(exc, BodyAbortError):
                        exc.stats = stats
                    raise
                continue
            finally:
                stats.consultations += ctx.consultations

            # the write-backs, for a prefetched attempt the declared
            # write lines in order; closing the epoch below ends the pins
            sim.commit_lines(chain.from_iterable(decl.write_spans)
                             if prefetch else ctx._dirtied)
            stats.committed = True
            if prefetch and stats.body_events:
                raise HitGuaranteeError(
                    f"prefetched transaction produced {stats.body_events} "
                    "body events"
                )
            return stats
    finally:
        sim.close_txn()

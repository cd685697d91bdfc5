"""Reference models the tests hold the library to.

``CacheSim.access_runs`` and the ``TxnContext`` run path make a whole
list of runs of words in one step per line, and
``AccessProbability.first_fire`` makes a list's interrupt consultations
in one call.  ``per_word_access``,
``per_word_read``/``per_word_write`` and ``per_word_draw`` are the
per-word paths they replace: one ``access`` per word, checked against the
declaration and preceded by one interrupt consultation, each drawing
once from the model's buffer.  ``ScanAccessProbability`` is
``AccessProbability`` as it was when it held each buffer as its draws
and scanned them for a fire; ``per_word_draw`` draws from its buffer.
``PeriodicTimer`` fires on every T-th consultation of a whole run, and
``TraceAdversary`` on the calls whose keyed hash of the trace seen so
far comes out zero in its low bits: the OS as a closed-loop adversary.
``per_word_access`` and its miss, ``per_word_miss``, are
``CacheSim.access`` as it was before every traced call became a front
end of one per-line step: they work on the simulator's sets and counters
and call none of its methods.

``CacheSim.prefetch`` and ``CacheSim.commit_lines`` handle a whole block
of lines in one call.  ``per_line_prefetch`` and ``per_line_commit`` are
the loops they replace: one ``access`` per prefetched line, and the
commit's write-backs written out line by line on the cache entries,
independently of ``commit_lines``; ``per_line_unpin`` is
``unpin_lines`` written out the same way.

``ReferenceCacheSim`` is ``CacheSim`` as it was when it kept LRU order
with stamps: each resident line a 3-slot list (dirty, pinned, stamp),
with the stamp taken from a global access clock, and the victim the
entry with the smallest stamp that its level's pin rule lets go.  Its
pins are per line: an access made while a transaction is open pins its
line, and ``close_txn`` unpins, line by line, every line pinned since
``open_txn``.
``in_epoch`` opens or closes either simulator's epoch, and
``pinned_lines`` lists the pins ``line_state`` reports.
``lru_entries`` and ``reference_lru_entries`` put either simulator's sets
in one form, (line, dirty, pinned) in LRU order, and ``memory_contents``
puts either one's backing memory, pages or a word dict, in one form,
each nonzero word mapped to its value.  ``snapshot_run_txn`` is
``run_txn`` as it was when an abort restored the declared write lines
from a snapshot taken at transaction start, instead of replaying the
attempt's undo log.

``AllLinesDeclaration`` is a ``TxnDeclaration`` with ``all_lines``,
every declared line ascending, which a prefetched attempt's context held
until pins became epoch stamps; ``snapshot_run_txn`` drops them when an
attempt aborts, so the differential test declares through it.

``SetDeclaration`` is ``TxnDeclaration`` as it was when each side was a
set of lines (built by ``normalize``) and its line tuples were sorted at
construction, before anything asked for a capacity.  ``declared_lines``
is the body's declaration check as it was before it bisected the spans:
a frozenset of the lines a body may access, the write lines for a write
and every declared line for a read; ``per_word_read``/``per_word_write``
check against it.

``two_phase_plan`` is the layout planner as it was before it ran on
``layout.SetLoads``: capacity pre-checks, then a contiguous packing from
address zero, and only if that overloads a set, a first-fit placement
that starts again from nothing, each with its own set-load counting.

The rest are helpers that only the tests call, so the package does not
carry them.  Over a ``CacheSim``: ``reset_trace``, ``peek_word`` and
``poke_word`` (one word through ``peek_words``/``poke_words``),
``line_state`` and ``check_invariants``.  Over a ``LayoutPlan``:
``base_of``, ``assignments`` and ``export_csv``.  And ``unpack``, the
inverse of ``shuffle.pack``.  A run of words is
``sim.access_runs(((addr, count),), kind)``.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from hashlib import blake2b
from typing import Callable, Iterable

import numpy as np

from oblishuffle.cache import (
    KIND_MISS,
    KIND_WRITEBACK,
    PAGE_WORDS,
    READ,
    WORD_BYTES,
    WRITE,
    AccessCounters,
    CacheConfig,
    CacheSim,
    PinViolationError,
    Trace,
    TraceEvent,
    _event,
)
from oblishuffle.layout import READ_WRITE, LayoutInfeasibleError, LayoutPlan
from oblishuffle.shuffle import VALUE_MASK
from oblishuffle.txn import (
    CapacityError,
    HitGuaranteeError,
    NestedTxnError,
    RetryCapExceededError,
    TxnContext,
    TxnDeclaration,
    TxnStats,
    UndeclaredAccessError,
    _Interrupted,
)

# the slots of a ReferenceCacheSim entry, a 3-slot list per resident line
_DIRTY, _PINNED, _STAMP = 0, 1, 2


def per_word_access(sim, addr, kind):
    """One access, as ``CacheSim.access`` makes it: returns "l1-hit",
    "llc-hit" or "llc-miss"."""
    if not 0 <= addr < sim.config.address_space:
        raise ValueError(f"address {addr} out of range")
    is_write = kind == WRITE
    if not is_write and kind != READ:
        raise ValueError(f"bad access kind: {kind!r}")
    line = addr >> sim._shift
    sim.counters.total += 1
    l1_set = sim._l1[line & sim._l1_mask]
    if line in l1_set:
        # a hit moves the line to the end of its L1 set only, and stamps
        # the latest epoch at both levels, keeping the dirty bit
        flags = l1_set.pop(line)
        l1_set[line] = sim._epoch << 1 | flags & 1 | is_write
        sim._llc[line & sim._llc_mask][line] = sim._epoch
        sim.counters.l1_hits += 1
        return "l1-hit"
    return per_word_miss(sim, line, l1_set, is_write)


def per_word_miss(sim, line: int, l1_set: dict, is_write: bool) -> str:
    """Finish an access to ``line``, already counted, that found no
    entry in its L1 set ``l1_set``: choose both victims, evict them,
    then install the line.  Returns "llc-hit" or "llc-miss"."""
    # decide both victims before touching anything; each is the first
    # entry in LRU order that its level's pin rule lets go, and a stamp
    # pins while it is the open epoch
    install_l1 = True
    if len(l1_set) >= sim._l1_ways:
        for l1_victim, flags in l1_set.items():
            if not (flags & 1 and flags >> 1 == sim._pin):  # pinned dirty data
                break
        else:
            # every way holds protected dirty data: a read is served
            # from the LLC without L1 residency, a write has no home
            if is_write:
                raise PinViolationError(line, "l1")
            install_l1 = False

    llc_set = sim._llc[line & sim._llc_mask]
    if llc_set is None:  # an LLC set is made on its first fill
        llc_set = sim._llc[line & sim._llc_mask] = {}
    # an LLC hit moves the line to the end of its set: popped here,
    # reinserted below
    lflags = llc_set.pop(line, None)
    llc_victim = None
    if lflags is None and len(llc_set) >= sim._llc_ways:
        for llc_victim, flags in llc_set.items():
            if flags != sim._pin:
                break
        else:
            raise PinViolationError(line, "llc")

    trace = sim.trace
    if llc_victim is not None:
        del llc_set[llc_victim]
        if sim._l1[llc_victim & sim._l1_mask].pop(llc_victim, 0) & 1:
            trace.append(_event(TraceEvent, (KIND_WRITEBACK, llc_victim)))

    # the inclusion eviction above may have freed this set already
    if install_l1 and len(l1_set) >= sim._l1_ways:
        if l1_set.pop(l1_victim, 0) & 1:
            trace.append(_event(TraceEvent, (KIND_WRITEBACK, l1_victim)))

    # the line is stamped with the latest epoch at each level it holds
    if lflags is not None:
        sim.counters.llc_hits += 1
        result = "llc-hit"
    else:
        trace.append(_event(TraceEvent, (KIND_MISS, line)))
        sim.counters.llc_misses += 1
        result = "llc-miss"
    llc_set[line] = sim._epoch

    if install_l1:
        l1_set[line] = sim._epoch << 1 | is_write
    return result


class ScanAccessProbability:
    """``AccessProbability`` as it was when it held each buffer as its
    draws, Python floats, and found a fire by scanning the window a
    ``first_fire`` call consults: the same Philox stream, buffers,
    ``consultations`` and ``_pos``, with the draws kept in ``_buf``."""

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


class PeriodicTimer:
    """An interrupt model that fires on every ``period``-th consultation,
    counted over the whole run: a timer the OS programs to strike at a
    fixed rate, whatever the enclave does."""

    def __init__(self, period: int):
        self.period = period
        self.consultations = 0

    def first_fire(self, count: int) -> int | None:
        before = self.consultations
        fire = (before // self.period + 1) * self.period
        if fire <= before + count:
            self.consultations = fire
            return fire - before - 1
        self.consultations = before + max(count, 0)
        return None


class TraceAdversary:
    """An interrupt model that watches the trace: an OS that decides each
    interrupt from what it has observed.  It holds the simulator, and
    each ``first_fire(count)`` call hashes, keyed by ``salt``, the trace
    length, the last event's code, ``count`` and the number of calls made
    before it.  The call fires when the hash's low ``bits`` bits are
    zero, at the index below ``count`` that the rest of the hash names;
    a call of no consultations never fires.  ``fired`` counts fires."""

    def __init__(self, sim, salt: int, bits: int):
        self.sim = sim
        self.key = salt.to_bytes(8, "little")
        self.bits = bits
        self.calls = 0
        self.fired = 0

    def first_fire(self, count: int) -> int | None:
        trace = self.sim.trace
        last = array.__getitem__(trace, -1) if trace else -1
        seen = array("q", (len(trace), last, count, self.calls)).tobytes()
        self.calls += 1
        h = int.from_bytes(
            blake2b(seen, key=self.key, digest_size=8).digest(), "little")
        if count <= 0 or h & ((1 << self.bits) - 1):
            return None
        self.fired += 1
        return (h >> self.bits) % count


def per_word_draw(model):
    """One consultation of a ScanAccessProbability: the next draw from
    its buffer, refilled when spent; True if it fires.  Only the scan
    reads the draws: an ``AccessProbability`` holds a buffer as fire
    positions computed at refill time, so it is refused."""
    if not isinstance(model, ScanAccessProbability):
        raise TypeError(f"per_word_draw needs a ScanAccessProbability, "
                        f"got {type(model).__name__}")
    model.consultations += 1
    if model._pos >= model._BUF:
        model._buf = model._rng.random(model._BUF).tolist()
        model._pos = 0
    u = model._buf[model._pos]
    model._pos += 1
    return u < model.rate


def per_word_first_fire(model, count):
    """``first_fire(count)`` as ``count`` single draws."""
    for i in range(count):
        if per_word_draw(model):
            return i
    return None


def _consult(ctx):
    model = ctx._model
    if model is None:
        return
    if isinstance(model, ScanAccessProbability):
        fired = per_word_draw(model)
    else:
        fired = model.first_fire(1) is not None
    if fired:
        raise _Interrupted()


def declared_lines(decl, kind) -> frozenset[int]:
    """The lines a body of ``decl`` may access with ``kind``."""
    write_ok = frozenset(decl.write_lines)
    return write_ok if kind == WRITE else write_ok.union(decl.read_lines)


def per_word_read(ctx, addr):
    """``ctx.read(addr)`` as one declaration check, one consultation and
    one access; a cold context records the line as pinned."""
    line = addr >> ctx._shift
    if line not in declared_lines(ctx._decl, READ):
        raise UndeclaredAccessError(addr, READ)
    _consult(ctx)
    if not ctx._prefetched:
        ctx._pinned.add(line)
    sim = ctx._sim
    sim._check_word(addr)
    per_word_access(sim, addr, READ)
    return sim.load_words(addr >> 3, 1)[0]


def per_word_write(ctx, addr, value):
    """``ctx.write(addr, value)`` as one declaration check, one
    consultation and one access; a cold context records the line as
    pinned and dirtied."""
    line = addr >> ctx._shift
    if line not in declared_lines(ctx._decl, WRITE):
        raise UndeclaredAccessError(addr, WRITE)
    _consult(ctx)
    if not ctx._prefetched:
        ctx._pinned.add(line)
        ctx._dirtied.setdefault(line)
    sim = ctx._sim
    sim._check_word(addr)
    per_word_access(sim, addr, WRITE)
    ctx._undo.append((addr >> 3, sim.load_words(addr >> 3, 1)))
    sim.store_words(addr >> 3, [value])


def per_line_prefetch(sim, lines, kind) -> None:
    for line in lines:
        per_word_access(sim, line << sim.config.line_shift, kind)


def per_line_commit(sim, dirtied) -> int:
    """Write back each dirtied line in order.  Returns the number of
    write-back events.  Dirty data lives in L1 only."""
    emitted = 0
    for line in dirtied:
        s = sim._l1[line & sim._l1_mask]
        if s.get(line, 0) & 1:
            s[line] &= ~1  # an entry change keeps the LRU order
            sim.trace.append(TraceEvent(KIND_WRITEBACK, line))
            emitted += 1
    return emitted


def per_line_unpin(sim, lines) -> None:
    """Stamp 0 on each line at each level where it is resident."""
    for line in lines:
        s = sim._l1[line & sim._l1_mask]
        if line in s:
            s[line] = s[line] & 1  # stamp 0, the dirty bit kept
        s = sim._llc[line & sim._llc_mask] or {}
        if line in s:
            s[line] = 0


def reset_trace(sim) -> None:
    """Empty a ``CacheSim``'s trace in place, leaving the cache alone."""
    del sim.trace[:]


def peek_word(sim, addr: int) -> int:
    """The word at byte address ``addr``, checked and untraced."""
    return sim.peek_words(addr, 1)[0]


def poke_word(sim, addr: int, value: int) -> None:
    """Store ``value`` at byte address ``addr``, checked and untraced."""
    sim.poke_words(addr, (value,))


def line_state(sim, line: int, level: str) -> tuple[bool, bool] | None:
    """(dirty, pinned) of ``line`` at ``level`` ("l1" or "llc") of a
    ``CacheSim``, or None if it is not resident there."""
    if level == "l1":
        f = sim._l1[line & sim._l1_mask].get(line)
        return None if f is None else (bool(f & 1), f >> 1 == sim._pin)
    f = (sim._llc[line & sim._llc_mask] or {}).get(line)
    return None if f is None else (False, f == sim._pin)


def check_invariants(sim) -> None:
    """Structural sanity of a ``CacheSim``: occupancy bounds, set
    mapping, inclusion, every stamp in ``0..epoch``, and pin agreement
    between levels: a pinned L1 entry's LLC entry has its stamp."""
    config = sim.config
    for idx, s in enumerate(sim._l1):
        assert len(s) <= config.l1_ways, "L1 set over ways"
        for line, f in s.items():
            assert line & sim._l1_mask == idx, "L1 set mapping broken"
            assert 0 <= f >> 1 <= sim._epoch, "L1 stamp out of range"
            lf = (sim._llc[line & sim._llc_mask] or {}).get(line)
            assert lf is not None, "inclusion broken"
            assert lf == f >> 1 or f >> 1 != sim._pin, "pin levels disagree"
    for idx, s in enumerate(sim._llc):
        if s is None:  # no line installed here since the last flush
            continue
        assert len(s) <= config.llc_ways, "LLC set over ways"
        for line, f in s.items():
            assert line & sim._llc_mask == idx, "LLC set mapping broken"
            assert 0 <= f <= sim._epoch, "LLC stamp out of range"


def lru_entries(sim):
    """Each set of a ``CacheSim``, L1 sets then LLC sets, as (line, dirty,
    pinned) in LRU order, least recently used first; an LLC set not yet
    made is empty.  An L1 entry is ``stamp << 1 | dirty`` and an LLC
    entry a stamp, which pins while it is the open epoch."""
    l1 = [[(line, bool(f & 1), f >> 1 == sim._pin) for line, f in s.items()]
          for s in sim._l1]
    llc = [[(line, False, f == sim._pin) for line, f in (s or {}).items()]
           for s in sim._llc]
    return l1 + llc


def in_epoch(sim, inside):
    """Open an epoch, or close the open one, so that the next access is
    made inside an epoch iff ``inside``."""
    if inside and not sim.txn_open:
        sim.open_txn()
    elif sim.txn_open and not inside:
        sim.close_txn()


def pinned_lines(sim, lines):
    """The (line, level) pairs of ``lines`` resident and pinned, by
    ``line_state``."""
    return [(line, level) for line in lines for level in ("l1", "llc")
            if (line_state(sim, line, level) or (False, False))[1]]


def set_dicts(sim):
    """Each set of a ``CacheSim`` as a dict, L1 sets then LLC sets, with
    an empty dict for an LLC set not yet made."""
    return sim._l1 + [s or {} for s in sim._llc]


def reference_lru_entries(ref):
    """``lru_entries`` for a ``ReferenceCacheSim``: each set's entries
    sorted by stamp."""
    return [
        [(line, e[_DIRTY], e[_PINNED])
         for line, e in sorted(s.items(), key=lambda item: item[1][_STAMP])]
        for s in ref._l1 + ref._llc
    ]


def memory_contents(sim):
    """The backing memory of a ``CacheSim`` (pages) or of a
    ``ReferenceCacheSim`` (a word dict) as one dict, each nonzero word's
    index mapped to its value.  A word never stored and a word that holds
    zero read alike, so both are left out."""
    if isinstance(sim, ReferenceCacheSim):
        words = sim.memory.items()
    else:
        words = ((p * PAGE_WORDS + i, v)
                 for p, page in sim._pages.items() for i, v in enumerate(page))
    return {w: v for w, v in words if v}


def normalize(ranges, line_size: int) -> set[int]:
    """The set of lines ``ranges`` touch, each range checked in order."""
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


class SetDeclaration:
    """``TxnDeclaration`` as it was when it built line sets: each side's
    lines as a set, the write lines taken out of the read set, and the
    line tuples sorted at construction."""

    def __init__(self, reads=(), writes=(), line_size: int = 64):
        w = normalize(writes, line_size)
        r = normalize(reads, line_size)
        r -= w  # a line in both sets counts once, as writable
        self.line_size = line_size
        self.read_lines = tuple(sorted(r))
        self.write_lines = tuple(sorted(w))
        self.all_lines = tuple(sorted(self.read_lines + self.write_lines))

    def footprint_bytes(self) -> int:
        return (len(self.read_lines) + len(self.write_lines)) * self.line_size

    def write_bytes(self) -> int:
        return len(self.write_lines) * self.line_size


class AllLinesDeclaration(TxnDeclaration):
    """A ``TxnDeclaration`` with ``all_lines``, for ``snapshot_run_txn``."""

    @cached_property
    def all_lines(self) -> tuple[int, ...]:
        """Every declared line, ascending."""
        return tuple(sorted(self.read_lines + self.write_lines))


def _lines(region, line):
    return -(-region.size // line)


def two_phase_plan(regions, config):
    line = config.line_size
    write_lines = sum(_lines(r, line) for r in regions if r.kind == READ_WRITE)
    total_lines = sum(_lines(r, line) for r in regions)
    if write_lines * line > config.l1_capacity:
        raise LayoutInfeasibleError(
            "capacity", "l1", f"{write_lines * line} write bytes > {config.l1_capacity}"
        )
    if total_lines * line > config.llc_capacity:
        raise LayoutInfeasibleError(
            "capacity", "llc", f"{total_lines * line} bytes > {config.llc_capacity}"
        )
    return _contiguous_plan(regions, config) or _first_fit_plan(regions, config)


def _contiguous_plan(regions, config):
    line = config.line_size
    l1_load, llc_load = {}, {}
    placements = []
    cursor = 0
    for region in regions:
        nlines = _lines(region, line)
        if cursor + nlines * line > config.address_space:
            return None
        for l in range(cursor // line, cursor // line + nlines):
            s = l & (config.llc_sets - 1)
            llc_load[s] = llc_load.get(s, 0) + 1
            if llc_load[s] > config.llc_ways:
                return None
            if region.kind == READ_WRITE:
                s1 = l & (config.l1_sets - 1)
                l1_load[s1] = l1_load.get(s1, 0) + 1
                if l1_load[s1] > config.l1_ways:
                    return None
        placements.append((region, cursor))
        cursor += nlines * line
    return LayoutPlan(tuple(placements))


def _first_fit_plan(regions, config):
    line = config.line_size
    max_shift = max(config.l1_sets, config.llc_sets)
    l1_load, llc_load = {}, {}
    placements = []
    cursor = 0
    blocked = "llc"
    for region in regions:
        nlines = _lines(region, line)
        for k in range(max_shift):
            base = cursor + k * line
            if base + nlines * line > config.address_space:
                raise LayoutInfeasibleError(
                    "arrangement",
                    "address-space",
                    f"region {region.name!r} does not fit below "
                    f"{config.address_space}",
                )
            undo = []
            for l in range(base // line, base // line + nlines):
                s = l & (config.llc_sets - 1)
                if llc_load.get(s, 0) + 1 > config.llc_ways:
                    blocked = "llc"
                    break
                llc_load[s] = llc_load.get(s, 0) + 1
                undo.append((llc_load, s))
                if region.kind == READ_WRITE:
                    s1 = l & (config.l1_sets - 1)
                    if l1_load.get(s1, 0) + 1 > config.l1_ways:
                        blocked = "l1"
                        break
                    l1_load[s1] = l1_load.get(s1, 0) + 1
                    undo.append((l1_load, s1))
            else:
                placements.append((region, base))
                cursor = base + nlines * line
                break
            for d, s in undo:
                d[s] -= 1
        else:
            raise LayoutInfeasibleError(
                "arrangement",
                blocked,
                f"no base found for region {region.name!r} within "
                f"{max_shift} line offsets",
            )
    return LayoutPlan(tuple(placements))


def base_of(plan: LayoutPlan, name: str) -> int:
    """The base address of the region of ``plan`` named ``name``."""
    for region, base in plan.placements:
        if region.name == name:
            return base
    raise KeyError(name)


def assignments(plan: LayoutPlan) -> dict[str, int]:
    """Each region name of ``plan`` mapped to its base address."""
    return {r.name: base for r, base in plan.placements}


def export_csv(plan: LayoutPlan) -> str:
    """``plan`` as CSV: one row of (name, base, size) per region."""
    lines = ["region_name,base_address,size_bytes"]
    for region, base in plan.placements:
        lines.append(f"{region.name},{base},{region.size}")
    return "\n".join(lines) + "\n"


def unpack(word: int) -> tuple[int, int]:
    """The (tag, value) of a word ``shuffle.pack`` made."""
    return word >> 32, word & VALUE_MASK


class ReferenceCacheSim:
    """Cache hierarchy plus a flat word-addressed backing memory.

    The backing store is sparse: words never written read as zero.  Data
    movement is not modelled at byte level; the hierarchy only tracks
    which lines are resident, dirty, and pinned, while ``peek``/``poke``
    operate on the backing store directly and are invisible to the trace.
    ``load_word``, ``load_words`` and ``store_words`` are ``CacheSim``'s
    page helpers on the word dict, for the ``TxnContext`` of
    ``snapshot_run_txn``.
    """

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self.memory: dict[int, int] = {}
        self.trace: list[TraceEvent] = []
        self.counters = AccessCounters()
        self.txn_open = False
        self._held: set[int] = set()  # the lines pinned since open_txn
        c = self.config
        self._shift = c.line_shift
        self._l1_mask = c.l1_sets - 1
        self._llc_mask = c.llc_sets - 1
        self._l1_ways = c.l1_ways
        self._llc_ways = c.llc_ways
        self._l1: list[dict[int, list]] = [dict() for _ in range(c.l1_sets)]
        self._llc: list[dict[int, list]] = [dict() for _ in range(c.llc_sets)]
        self._clock = 0

    # -- transactions ----------------------------------------------------

    def open_txn(self) -> None:
        """Until ``close_txn``, every access pins its line."""
        self.txn_open = True

    def close_txn(self) -> None:
        """Unpin, line by line, every line pinned since ``open_txn``."""
        self.txn_open = False
        self.unpin_lines(self._held)
        self._held.clear()

    # -- observable trace ------------------------------------------------

    def snapshot_trace(self) -> Trace:
        return Trace(tuple(self.trace))

    def reset_trace(self) -> None:
        self.trace.clear()

    # -- raw memory (not traced) -----------------------------------------

    def peek_word(self, addr: int) -> int:
        self._check_word(addr)
        return self.memory.get(addr >> 3, 0)

    def poke_word(self, addr: int, value: int) -> None:
        self._check_word(addr)
        self.memory[addr >> 3] = value

    def peek_words(self, addr: int, count: int) -> list[int]:
        self._check_word(addr)
        base = addr >> 3
        mem = self.memory
        return [mem.get(base + i, 0) for i in range(count)]

    def poke_words(self, addr: int, values: Iterable[int]) -> None:
        self._check_word(addr)
        base = addr >> 3
        mem = self.memory
        for i, v in enumerate(values):
            mem[base + i] = v

    def load_word(self, w: int) -> int:
        return self.memory.get(w, 0)

    def load_words(self, w: int, count: int) -> list[int]:
        mem = self.memory
        return [mem.get(i, 0) for i in range(w, w + count)]

    def store_words(self, w: int, values) -> None:
        mem = self.memory
        for i, v in enumerate(values, w):
            mem[i] = v

    def _check_word(self, addr: int) -> None:
        if addr % WORD_BYTES:
            raise ValueError(f"address {addr} not word aligned")
        if not 0 <= addr < self.config.address_space:
            raise ValueError(f"address {addr} out of range")

    # -- traced accesses ---------------------------------------------------

    def read_word(self, addr: int) -> int:
        self._check_word(addr)
        self.access(addr, READ)
        return self.memory.get(addr >> 3, 0)

    def write_word(self, addr: int, value: int) -> None:
        self._check_word(addr)
        self.access(addr, WRITE)
        self.memory[addr >> 3] = value

    def access(self, addr: int, kind: str) -> str:
        """Touch one byte address; returns "l1-hit", "llc-hit" or "llc-miss".

        Raises PinViolationError when the access cannot be satisfied
        without evicting a protected line (see module docstring).  The
        raise comes before any entry changes or event, but after the
        access has been counted: ``_clock`` and ``counters.total`` have
        already advanced, and no hit or miss counter has.  A ValueError
        (address out of range, bad kind) changes nothing.
        """
        if not 0 <= addr < self.config.address_space:
            raise ValueError(f"address {addr} out of range")
        is_write = kind == WRITE
        if not is_write and kind != READ:
            raise ValueError(f"bad access kind: {kind!r}")
        line = addr >> self._shift
        pin = self.txn_open
        if pin:
            self._held.add(line)
        self._clock += 1
        clock = self._clock
        self.counters.total += 1

        l1_set = self._l1[line & self._l1_mask]
        entry = l1_set.get(line)
        if entry is not None:
            entry[_STAMP] = clock
            if is_write:
                entry[_DIRTY] = True
            if pin:
                entry[_PINNED] = True
                self._llc[line & self._llc_mask][line][_PINNED] = True
            self.counters.l1_hits += 1
            return "l1-hit"
        return self._miss(line, l1_set, is_write, pin, clock)

    def access_run(self, addr: int, count: int, kind: str) -> None:
        """Exactly ``access(addr + i * WORD_BYTES, kind)`` for each i in
        ``range(count)``, in one call taking one step per line.

        A line's first word is a full access; its other words can only
        hit at the level that access left the line stamped at (L1, or
        the LLC when a read was served without L1 residency), and they
        set no bit it did not set, so they move only the clock, the
        counters and that one stamp.  A fault (PinViolationError, or
        ValueError for a word out of range) leaves the words before it
        applied and the faulting word counted as ``access`` would.
        """
        if count <= 0:
            return
        is_write = kind == WRITE
        if not is_write and kind != READ:
            raise ValueError(f"bad access kind: {kind!r}")
        shift = self._shift
        limit = self.config.address_space
        l1, l1_mask = self._l1, self._l1_mask
        llc, llc_mask = self._llc, self._llc_mask
        pin = self.txn_open
        c = self.counters
        clock, total, l1_hits = self._clock, c.total, c.l1_hits
        end = addr + count * WORD_BYTES
        fault = None
        if addr < 0 or addr >= limit:
            fault = end = addr
        elif end - WORD_BYTES >= limit:
            # the first word at or past the limit faults, after the ones
            # before it
            fault = end = addr + -(-(limit - addr) // WORD_BYTES) * WORD_BYTES
        try:
            while addr < end:
                line = addr >> shift
                stop = (line + 1) << shift
                if stop > end:
                    stop = end
                # the words of this run that fall in this line
                k = (stop - addr + WORD_BYTES - 1) // WORD_BYTES
                addr += k * WORD_BYTES
                if pin:
                    self._held.add(line)
                l1_set = l1[line & l1_mask]
                entry = l1_set.get(line)
                if entry is None:
                    clock += 1
                    total += 1
                    self._miss(line, l1_set, is_write, pin, clock)
                    k -= 1
                    if not k:
                        continue
                    entry = l1_set.get(line)
                    if entry is None:
                        entry = llc[line & llc_mask][line]
                        c.llc_hits += k
                    else:
                        l1_hits += k
                else:
                    if is_write:
                        entry[_DIRTY] = True
                    if pin:
                        entry[_PINNED] = True
                        llc[line & llc_mask][line][_PINNED] = True
                    l1_hits += k
                clock += k
                total += k
                entry[_STAMP] = clock
            if fault is not None:
                raise ValueError(f"address {fault} out of range")
        finally:
            self._clock, c.total, c.l1_hits = clock, total, l1_hits

    def access_runs(self, runs, kind: str) -> None:
        """``access_run`` for each ``(addr, count)`` of ``runs`` in order,
        which is how a ``TxnContext`` body reaches the simulator."""
        for addr, count in runs:
            self.access_run(addr, count, kind)

    def prefetch(self, lines: Iterable[int], kind: str) -> None:
        """Exactly ``access(line << shift, kind)`` for each of ``lines`` in
        order, in one call.

        A fault on a line (PinViolationError, or ValueError for a line
        out of range) leaves the lines before it applied and the faulting
        line counted as ``access`` would.  Only a bad ``kind`` is checked
        once, before any line.
        """
        is_write = kind == WRITE
        if not is_write and kind != READ:
            raise ValueError(f"bad access kind: {kind!r}")
        shift = self._shift
        limit = self.config.address_space
        l1, l1_mask = self._l1, self._l1_mask
        llc, llc_mask = self._llc, self._llc_mask
        miss = self._miss
        pin = self.txn_open
        c = self.counters
        clock, total, l1_hits = self._clock, c.total, c.l1_hits
        try:
            for line in lines:
                addr = line << shift
                if not 0 <= addr < limit:
                    raise ValueError(f"address {addr} out of range")
                if pin:
                    self._held.add(line)
                clock += 1
                total += 1
                l1_set = l1[line & l1_mask]
                entry = l1_set.get(line)
                if entry is None:
                    miss(line, l1_set, is_write, pin, clock)
                    continue
                entry[_STAMP] = clock
                if is_write:
                    entry[_DIRTY] = True
                if pin:
                    entry[_PINNED] = True
                    llc[line & llc_mask][line][_PINNED] = True
                l1_hits += 1
        finally:
            self._clock, c.total, c.l1_hits = clock, total, l1_hits

    def _miss(self, line: int, l1_set: dict, is_write: bool, pin: bool,
              clock: int) -> str:
        """Finish an access to ``line``, already counted at ``clock``, that
        found no entry in its L1 set ``l1_set``: choose both victims, evict
        them, then install the line.  Returns "llc-hit" or "llc-miss"."""
        # decide both victims before touching anything
        install_l1 = True
        l1_victim = None
        if len(l1_set) >= self._l1_ways:
            stamp = clock + 1
            for vline, ve in l1_set.items():
                # the stamp test comes first: most entries fail it, which
                # spares them the protection test
                if ve[_STAMP] < stamp and not (ve[_PINNED] and ve[_DIRTY]):
                    stamp = ve[_STAMP]
                    l1_victim = vline
            if l1_victim is None:
                # every way holds protected dirty data: a read is served
                # from the LLC without L1 residency, a write has no home
                if is_write:
                    raise PinViolationError(line, "l1")
                install_l1 = False

        llc_set = self._llc[line & self._llc_mask]
        lentry = llc_set.get(line)
        llc_victim = None
        if lentry is None and len(llc_set) >= self._llc_ways:
            stamp = clock + 1
            for vline, ve in llc_set.items():
                if ve[_STAMP] < stamp and not ve[_PINNED]:
                    stamp = ve[_STAMP]
                    llc_victim = vline
            if llc_victim is None:
                raise PinViolationError(line, "llc")

        trace = self.trace
        if llc_victim is not None:
            ve = llc_set.pop(llc_victim)
            l1e = self._l1[llc_victim & self._l1_mask].pop(llc_victim, None)
            if ve[_DIRTY] or (l1e is not None and l1e[_DIRTY]):
                trace.append(_event(TraceEvent, (KIND_WRITEBACK, llc_victim)))

        if install_l1 and len(l1_set) >= self._l1_ways:
            # the inclusion eviction above may have freed this set already
            ve = l1_set.pop(l1_victim, None)
            if ve is not None and ve[_DIRTY]:
                trace.append(_event(TraceEvent, (KIND_WRITEBACK, l1_victim)))

        if lentry is not None:
            lentry[_STAMP] = clock
            if pin:
                lentry[_PINNED] = True
            self.counters.llc_hits += 1
            result = "llc-hit"
        else:
            trace.append(_event(TraceEvent, (KIND_MISS, line)))
            self.counters.llc_misses += 1
            llc_set[line] = [False, pin, clock]
            result = "llc-miss"

        if install_l1:
            l1_set[line] = [is_write, pin, clock]
        return result

    # -- bulk operations ---------------------------------------------------

    def flush_all(self) -> None:
        """Write back every dirty line in ascending line order, then empty
        both levels.  Pins do not survive a flush."""
        dirty_lines = []
        for llc_set in self._llc:
            for line, ve in llc_set.items():
                d = ve[_DIRTY]
                if not d:
                    l1e = self._l1[line & self._l1_mask].get(line)
                    d = l1e is not None and l1e[_DIRTY]
                if d:
                    dirty_lines.append(line)
        for line in sorted(dirty_lines):
            self.trace.append(_event(TraceEvent, (KIND_WRITEBACK, line)))
        for s in self._l1:
            s.clear()
        for s in self._llc:
            s.clear()

    def invalidate_lines(self, lines: Iterable[int]) -> None:
        """Drop lines from both levels without any trace events.  Dirty
        data is discarded; the caller owns restoring memory."""
        for line in lines:
            self._l1[line & self._l1_mask].pop(line, None)
            self._llc[line & self._llc_mask].pop(line, None)

    def commit_lines(self, dirtied: Iterable[int]) -> int:
        """Exactly ``writeback_line`` for each of ``dirtied`` in order, in
        one call.  Returns the number of write-back events emitted."""
        l1, l1_mask = self._l1, self._l1_mask
        llc, llc_mask = self._llc, self._llc_mask
        trace = self.trace
        emitted = 0
        for line in dirtied:
            dirty = False
            e = l1[line & l1_mask].get(line)
            if e is not None and e[_DIRTY]:
                e[_DIRTY] = False
                dirty = True
            e = llc[line & llc_mask].get(line)
            if e is not None and e[_DIRTY]:
                e[_DIRTY] = False
                dirty = True
            if dirty:
                trace.append(_event(TraceEvent, (KIND_WRITEBACK, line)))
                emitted += 1
        return emitted

    def unpin_lines(self, lines: Iterable[int]) -> None:
        for line in lines:
            e = self._l1[line & self._l1_mask].get(line)
            if e is not None:
                e[_PINNED] = False
            e = self._llc[line & self._llc_mask].get(line)
            if e is not None:
                e[_PINNED] = False

    def writeback_line(self, line: int) -> bool:
        """Force a dirty line out to memory, emitting one write-back event.

        The line stays resident (now clean) wherever it was.  Returns True
        if an event was emitted, False if the line was clean or absent.
        """
        return self.commit_lines((line,)) == 1

    def line_resident(self, line: int, level: str = "llc") -> bool:
        if level == "l1":
            return line in self._l1[line & self._l1_mask]
        return line in self._llc[line & self._llc_mask]

    def line_state(self, line: int, level: str) -> tuple[bool, bool] | None:
        """(dirty, pinned) at that level, or None if not resident."""
        sets = self._l1 if level == "l1" else self._llc
        mask = self._l1_mask if level == "l1" else self._llc_mask
        e = sets[line & mask].get(line)
        if e is None:
            return None
        return (e[_DIRTY], e[_PINNED])

    def check_invariants(self) -> None:
        """Structural sanity for tests: occupancy bounds, set mapping,
        inclusion, and pin agreement between levels."""
        for idx, s in enumerate(self._l1):
            assert len(s) <= self.config.l1_ways, "L1 set over ways"
            for line, e in s.items():
                assert line & self._l1_mask == idx, "L1 set mapping broken"
                le = self._llc[line & self._llc_mask].get(line)
                assert le is not None, "inclusion broken"
                assert le[_PINNED] or not e[_PINNED], "pin levels disagree"
        for idx, s in enumerate(self._llc):
            assert len(s) <= self.config.llc_ways, "LLC set over ways"
            for line, e in s.items():
                assert line & self._llc_mask == idx, "LLC set mapping broken"


def snapshot_run_txn(
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
                sim.invalidate_lines(decl.all_lines if prefetch else ctx._pinned)
                for w in words:
                    mem.pop(w, None)
                mem.update(snapshot)
                if isinstance(exc, PinViolationError):
                    stats.ac2 += 1
                    stats.last_fault_line = exc.line_address
                elif isinstance(exc, _Interrupted):
                    stats.ac4 += 1
                else:
                    # programming errors leave the simulator consistent
                    raise
                continue

            # the prefetch dirtied the write lines in order, and the body
            # can add none; closing the transaction below unpins
            sim.commit_lines(decl.write_lines if prefetch else ctx._dirtied)
            stats.committed = True
            if prefetch and stats.body_events:
                raise HitGuaranteeError(
                    f"prefetched transaction produced {stats.body_events} "
                    "body events"
                )
            return stats
    finally:
        sim.close_txn()

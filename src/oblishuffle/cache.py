"""Deterministic two-level set-associative cache simulator.

The hierarchy is inclusive: every line resident in L1 is also resident in
the LLC.  Replacement is LRU per set at each level: a set is a dict in
LRU order, a line moves to its end when touched, and the victim is the
first entry the pin rules allow.  A resident line's entry is an int of
flags, dirty and pinned in L1 and only pinned in the LLC, and changing a
flag leaves the order alone.  Two things are observable: a read of a
line absent from both levels emits an ``llc-miss-read`` event, and dirty
data leaving L1 emits a ``write-back`` event.  Dirty state lives in L1
(write-allocate): when a dirty line is demoted out of L1 its data is
written through, so the surviving LLC copy is clean, and when an LLC
eviction removes a line whose L1 copy is dirty the combined removal
writes back once.  Clean evictions at either level are silent, as are L1
hits and LLC hits themselves.  Within one access, victim write-backs
precede the incoming line's miss event.

Pinning is the protection primitive for transactions.  A pinned line is
never evicted from the LLC.  In L1 the protected resource is *dirty*
pinned data: a pinned clean line may be silently demoted (its LLC copy is
still pinned, so nothing escapes to memory), but a pinned dirty line may
not be displaced.  When an access needs a victim and every candidate is
protected, the behaviour depends on the access kind: a read is served
from the LLC without allocating in L1 (no event, nothing lost), while a
write raises :class:`PinViolationError` because there is nowhere safe to
put the dirty word.

A transaction's prefetch block, each run of its body and its commit are
one call each, and each is exact: ``prefetch(lines, kind)`` equals one
pinned ``access`` per line in order, ``access_run(addr, count, kind,
pin)`` equals one ``access`` per word at ascending addresses, taking one
step per line, and ``commit_lines(dirtied, pinned)`` equals
``writeback_line`` per dirtied line in order followed by
``unpin_lines(pinned)``.  Their state (trace, counters, LRU order, dirty
and pin bits) matches the per-line or per-word calls, including after a
PinViolationError part-way through a block or run.  Invalid input is the
caller's error, not a modelled fault, and has one rule: ``access``,
``read_word``/``write_word``, ``access_run`` and ``prefetch`` check their
whole input (the kind, and the range of every address or line) before
their first access, and raise a ValueError naming the first bad address
before anything changes.  The block calls sit on one
per-line step: ``access``, ``read_word``/``write_word``, ``access_run``
and ``prefetch`` each pass (line, k) pairs to ``_lines``, which makes a
full access for a line's first word and moves only the counters for its
other k - 1 words (a prefetch passes k = 1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

WORD_BYTES = 8

KIND_MISS = "llc-miss-read"
KIND_WRITEBACK = "write-back"

READ = "read"
WRITE = "write"

# entry flags; the LLC keeps only _PINNED, since dirty data lives in L1
_DIRTY = 1
_PINNED = 2
_PROTECTED = _DIRTY | _PINNED  # an L1 entry no access may displace


def _is_write(kind: str) -> bool:
    if kind == WRITE:
        return True
    if kind != READ:
        raise ValueError(f"bad access kind: {kind!r}")
    return False


class TraceEvent(NamedTuple):
    kind: str
    line_address: int


# builds a TraceEvent from a (kind, line) tuple without the Python-level
# NamedTuple constructor, which the per-event paths would pay each time
_event = tuple.__new__


@dataclass(frozen=True)
class Trace:
    """Immutable sequence of LLC-boundary events.

    Two traces are equal iff they have the same length and agree at every
    position.  There is no tolerance or reordering: positional equality is
    the whole definition.
    """

    events: tuple[TraceEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i: int) -> TraceEvent:
        return self.events[i]

    def __iter__(self):
        return iter(self.events)

    def export_csv(self) -> str:
        lines = ["sequence,kind,line_address"]
        for seq, ev in enumerate(self.events):
            lines.append(f"{seq},{ev.kind},{ev.line_address}")
        return "\n".join(lines) + "\n"


class PinViolationError(Exception):
    """An access required evicting a line the pin rules protect.

    ``line_address`` is the line of the *faulting access*, ``level`` the
    cache level whose set had no evictable entry.
    """

    def __init__(self, line_address: int, level: str):
        super().__init__(
            f"no evictable way in {level} set for line {line_address}"
        )
        self.line_address = line_address
        self.level = level


def _require_pow2(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    line_size: int = 64
    l1_sets: int = 64
    l1_ways: int = 8
    llc_sets: int = 8192
    llc_ways: int = 16
    address_space: int = 1 << 30

    def __post_init__(self) -> None:
        _require_pow2("line_size", self.line_size)
        _require_pow2("l1_sets", self.l1_sets)
        _require_pow2("llc_sets", self.llc_sets)
        _require_pow2("address_space", self.address_space)
        if self.l1_ways <= 0 or self.llc_ways <= 0:
            raise ValueError("way counts must be positive")
        if self.line_size % WORD_BYTES:
            raise ValueError("line_size must be a multiple of the word size")
        if self.l1_capacity > self.llc_capacity:
            raise ValueError("L1 capacity must not exceed LLC capacity")
        if self.address_space < self.line_size:
            raise ValueError("address space smaller than one line")

    @property
    def l1_capacity(self) -> int:
        return self.line_size * self.l1_sets * self.l1_ways

    @property
    def llc_capacity(self) -> int:
        return self.line_size * self.llc_sets * self.llc_ways

    @property
    def line_shift(self) -> int:
        return self.line_size.bit_length() - 1

    @classmethod
    def from_text(cls, text: str) -> "CacheConfig":
        """Parse ``key=value`` lines; '#' starts a comment, blanks ignored."""
        allowed = {
            "line_size",
            "l1_sets",
            "l1_ways",
            "llc_sets",
            "llc_ways",
            "address_space",
        }
        fields: dict[str, int] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = re.fullmatch(r"(\w+)\s*=\s*(\d+)", line)
            if not m:
                raise ValueError(f"malformed config line: {raw!r}")
            key = m.group(1)
            if key not in allowed:
                raise ValueError(f"unknown config key: {key}")
            if key in fields:
                raise ValueError(f"duplicate config key: {key}")
            fields[key] = int(m.group(2))
        return cls(**fields)

    @classmethod
    def from_file(cls, path: str) -> "CacheConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


@dataclass
class AccessCounters:
    total: int = 0
    l1_hits: int = 0
    llc_hits: int = 0
    llc_misses: int = 0


class CacheSim:
    """Cache hierarchy plus a flat word-addressed backing memory.

    The backing store is sparse: words never written read as zero.  Data
    movement is not modelled at byte level; the hierarchy only tracks
    which lines are resident, dirty, and pinned, while ``peek``/``poke``
    operate on the backing store directly and are invisible to the trace.
    """

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self.memory: dict[int, int] = {}
        self.trace: list[TraceEvent] = []
        self.counters = AccessCounters()
        self.txn_open = False
        c = self.config
        self._shift = c.line_shift
        self._l1_mask = c.l1_sets - 1
        self._llc_mask = c.llc_sets - 1
        self._l1_ways = c.l1_ways
        self._llc_ways = c.llc_ways
        self._l1: list[dict[int, int]] = [dict() for _ in range(c.l1_sets)]
        self._llc: list[dict[int, int]] = [dict() for _ in range(c.llc_sets)]

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
        self._check_words(addr, count)
        base = addr >> 3
        return list(map(self.memory.get, range(base, base + count), repeat(0, count)))

    def poke_words(self, addr: int, values: Iterable[int]) -> None:
        values = list(values)
        self._check_words(addr, len(values))
        base = addr >> 3
        self.memory.update(zip(range(base, base + len(values)), values))

    def _check_words(self, addr: int, count: int) -> None:
        """Check the first and the last of ``count`` words from ``addr``."""
        self._check_word(addr)
        self._check_word(addr + max(count - 1, 0) * WORD_BYTES)

    def _check_word(self, addr: int) -> None:
        if addr % WORD_BYTES:
            raise ValueError(f"address {addr} not word aligned")
        if not 0 <= addr < self.config.address_space:
            raise ValueError(f"address {addr} out of range")

    # -- traced accesses ---------------------------------------------------

    def read_word(self, addr: int, pin: bool = False) -> int:
        self._check_word(addr)
        self._lines(((addr >> self._shift, 1),), False, pin)
        return self.memory.get(addr >> 3, 0)

    def write_word(self, addr: int, value: int, pin: bool = False) -> None:
        self._check_word(addr)
        self._lines(((addr >> self._shift, 1),), True, pin)
        self.memory[addr >> 3] = value

    def access(self, addr: int, kind: str, pin: bool = False) -> str:
        """Touch one byte address; returns "l1-hit", "llc-hit" or "llc-miss".

        Raises PinViolationError when the access cannot be satisfied
        without evicting a protected line (see module docstring).  The
        raise comes before any entry changes or event, but after the
        access has been counted: ``counters.total`` has already advanced,
        and no hit or miss counter has.  A ValueError (address out of
        range, bad kind) is raised before anything changes.
        """
        if not 0 <= addr < self.config.address_space:
            raise ValueError(f"address {addr} out of range")
        c = self.counters
        l1_hits, llc_misses = c.l1_hits, c.llc_misses
        self._lines(((addr >> self._shift, 1),), _is_write(kind), pin)
        if c.l1_hits != l1_hits:
            return "l1-hit"
        return "llc-miss" if c.llc_misses != llc_misses else "llc-hit"

    def access_run(self, addr: int, count: int, kind: str, pin: bool = False) -> None:
        """Exactly ``access(addr + i * WORD_BYTES, kind, pin)`` for each i in
        ``range(count)``, in one call taking one step per line.

        Any line-long stretch of addresses holds ``line_size // 8`` of the
        run's words, whatever the alignment, so the run is a head, whole
        lines and a tail.  A word out of range raises a ValueError naming
        the first such word before any access; a PinViolationError leaves
        the words before it applied and the faulting word counted as
        ``access`` would.
        """
        if count <= 0:
            return
        is_write = _is_write(kind)
        limit = self.config.address_space
        end = addr + (count - 1) * WORD_BYTES
        if not 0 <= addr < limit:
            raise ValueError(f"address {addr} out of range")
        if end >= limit:
            # the limit is a multiple of the word size, so this is the
            # first word at or past it
            raise ValueError(f"address {limit + addr % WORD_BYTES} out of range")
        shift = self._shift
        first, last = addr >> shift, end >> shift
        if first == last:
            steps = ((first, count),)
        else:
            head = -(-(((first + 1) << shift) - addr) // WORD_BYTES)
            per = (1 << shift) // WORD_BYTES
            steps = [
                (first, head),
                *zip(range(first + 1, last), repeat(per)),
                (last, count - head - (last - first - 1) * per),
            ]
        self._lines(steps, is_write, pin)

    def prefetch(self, lines: Sequence[int], kind: str) -> None:
        """Exactly ``access(line << shift, kind, pin=True)`` for each of
        ``lines`` in order, in one call.

        A bad ``kind``, or a line out of range (a ValueError naming the
        first such line's address), is refused before any line; a
        PinViolationError leaves the lines before it applied and the
        faulting line counted as ``access`` would.
        """
        is_write = _is_write(kind)
        shift, limit = self._shift, self.config.address_space
        if min(lines, default=0) < 0 or max(lines, default=0) << shift >= limit:
            bad = next(line for line in lines if not 0 <= line << shift < limit)
            raise ValueError(f"address {bad << shift} out of range")
        self._lines(zip(lines, repeat(1)), is_write, True)

    def _lines(self, steps: Iterable[tuple[int, int]], is_write: bool, pin: bool) -> None:
        """Make ``k`` accesses of one kind to each ``line`` of ``steps``, in
        order: the one per-line step every traced call is made of.

        A line's first word is a full access.  On an L1 miss both victims
        are chosen before anything changes, each the first entry in LRU
        order that its level's pin rule lets go; then the victims go
        (LLC, then L1) and the line comes in.  The line's other k - 1
        words can only hit at the level where that access left the line
        last in LRU order (L1, or the LLC when a read found no L1 way),
        and they set no bit it did not set, so they move only the
        counters.  A PinViolationError leaves the steps before it applied
        and only the faulting line's first word counted.
        """
        bits = (_DIRTY if is_write else 0) | (_PINNED if pin else 0)
        l1, l1_mask, l1_ways = self._l1, self._l1_mask, self._l1_ways
        llc, llc_mask, llc_ways = self._llc, self._llc_mask, self._llc_ways
        trace = self.trace
        c = self.counters
        hits = 0  # L1 hits, counted into the counters once, on the way out
        try:
            for line, k in steps:
                l1_set = l1[line & l1_mask]
                flags = l1_set.pop(line, None)
                if flags is not None:
                    # an L1 hit moves the line to the end of its L1 set only
                    l1_set[line] = flags | bits
                    if pin:
                        llc[line & llc_mask][line] = _PINNED
                    hits += k
                    continue
                c.total += 1
                install_l1 = True
                if len(l1_set) >= l1_ways:
                    for l1_victim, flags in l1_set.items():
                        if flags != _PROTECTED:
                            break
                    else:
                        # every way holds protected dirty data: a read is
                        # served from the LLC without L1 residency, a write
                        # has no home
                        if is_write:
                            raise PinViolationError(line, "l1")
                        install_l1 = False
                llc_set = llc[line & llc_mask]
                # an LLC hit moves the line to the end of its set: popped
                # here, reinserted below
                lflags = llc_set.pop(line, None)
                if lflags is None and len(llc_set) >= llc_ways:
                    for llc_victim, flags in llc_set.items():
                        if not flags:
                            break
                    else:
                        raise PinViolationError(line, "llc")
                    del llc_set[llc_victim]
                    if l1[llc_victim & l1_mask].pop(llc_victim, 0) & _DIRTY:
                        trace.append(_event(TraceEvent, (KIND_WRITEBACK, llc_victim)))
                # the inclusion eviction above may have freed this set already
                if install_l1 and len(l1_set) >= l1_ways:
                    if l1_set.pop(l1_victim, 0) & _DIRTY:
                        trace.append(_event(TraceEvent, (KIND_WRITEBACK, l1_victim)))
                if lflags is None:
                    trace.append(_event(TraceEvent, (KIND_MISS, line)))
                    c.llc_misses += 1
                    llc_set[line] = bits & _PINNED
                else:
                    c.llc_hits += 1
                    llc_set[line] = _PINNED if pin else lflags
                if install_l1:
                    l1_set[line] = bits
                    hits += k - 1
                else:
                    c.total += k - 1
                    c.llc_hits += k - 1
        finally:
            if hits:
                c.total += hits
                c.l1_hits += hits

    # -- bulk operations ---------------------------------------------------

    def flush_all(self) -> None:
        """Write back every dirty line in ascending line order, then empty
        both levels.  Pins do not survive a flush."""
        dirty = sorted(line for s in self._l1 for line, f in s.items() if f & _DIRTY)
        self.trace.extend(_event(TraceEvent, (KIND_WRITEBACK, line)) for line in dirty)
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

    def commit_lines(self, dirtied: Iterable[int], pinned: Iterable[int]) -> int:
        """Exactly ``writeback_line`` for each of ``dirtied`` in order, then
        ``unpin_lines(pinned)``, in one call.  Returns the number of
        write-back events emitted."""
        l1, l1_mask = self._l1, self._l1_mask
        llc, llc_mask = self._llc, self._llc_mask
        trace = self.trace
        emitted = 0
        for line in dirtied:
            s = l1[line & l1_mask]
            f = s.get(line, 0)
            if f & _DIRTY:
                s[line] = f ^ _DIRTY
                trace.append(_event(TraceEvent, (KIND_WRITEBACK, line)))
                emitted += 1
        for line in pinned:
            s = l1[line & l1_mask]
            f = s.get(line, 0)
            if f & _PINNED:
                s[line] = f ^ _PINNED
            s = llc[line & llc_mask]
            if s.get(line):
                s[line] = 0
        return emitted

    def unpin_lines(self, lines: Iterable[int]) -> None:
        self.commit_lines((), lines)

    def writeback_line(self, line: int) -> bool:
        """Force a dirty line out to memory, emitting one write-back event.

        The line stays resident (now clean) wherever it was.  Returns True
        if an event was emitted, False if the line was clean or absent.
        """
        return self.commit_lines((line,), ()) == 1

    def line_resident(self, line: int, level: str = "llc") -> bool:
        if level == "l1":
            return line in self._l1[line & self._l1_mask]
        return line in self._llc[line & self._llc_mask]

    def line_state(self, line: int, level: str) -> tuple[bool, bool] | None:
        """(dirty, pinned) at that level, or None if not resident."""
        sets = self._l1 if level == "l1" else self._llc
        mask = self._l1_mask if level == "l1" else self._llc_mask
        f = sets[line & mask].get(line)
        if f is None:
            return None
        return (bool(f & _DIRTY), bool(f & _PINNED))

    def check_invariants(self) -> None:
        """Structural sanity for tests: occupancy bounds, set mapping,
        inclusion, and pin agreement between levels."""
        for idx, s in enumerate(self._l1):
            assert len(s) <= self.config.l1_ways, "L1 set over ways"
            for line, f in s.items():
                assert line & self._l1_mask == idx, "L1 set mapping broken"
                lf = self._llc[line & self._llc_mask].get(line)
                assert lf is not None, "inclusion broken"
                assert lf or not f & _PINNED, "pin levels disagree"
        for idx, s in enumerate(self._llc):
            assert len(s) <= self.config.llc_ways, "LLC set over ways"
            for line, f in s.items():
                assert line & self._llc_mask == idx, "LLC set mapping broken"
                assert f in (0, _PINNED), "LLC entry holds more than a pin"

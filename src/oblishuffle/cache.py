"""Deterministic two-level set-associative cache simulator.

The hierarchy is inclusive: every line resident in L1 is also resident
in the LLC.  Replacement is LRU per set at each level: a set is a dict
in LRU order, a line moves to its end when touched, and the victim is
the first entry the pin rules allow.  A resident line's entry is an int:
in L1 ``stamp << 1 | dirty``, in the LLC the ``stamp`` alone (see
pinning below), and changing an entry leaves the order alone.  Two
things are observable: a read of a line absent from both levels emits an
``llc-miss-read`` event, and dirty data leaving L1 emits a
``write-back`` event.  Dirty state lives in L1 (write-allocate): when a
dirty line is demoted out of L1 its data is written through, so the
surviving LLC copy is clean, and when an LLC eviction removes a line
whose L1 copy is dirty the combined removal writes back once.  Clean
evictions at either level are silent, as are L1 hits and LLC hits
themselves.  Within one access, victim write-backs precede the incoming
line's miss event.

Pinning is the protection primitive for transactions.  A pinned line is
never evicted from the LLC.  In L1 the protected resource is *dirty*
pinned data: a pinned clean line may be silently demoted (its LLC copy is
still pinned, so nothing escapes to memory), but a pinned dirty line may
not be displaced.  When an access needs a victim and every candidate is
protected, the behaviour depends on the access kind: a read is served
from the LLC without allocating in L1 (no event, nothing lost), while a
write raises :class:`PinViolationError` because there is nowhere safe to
put the dirty word.

A pin models the read and write set a hardware transaction tracks, so
it exists only while a transaction runs: an access is pinned iff an
epoch is open; an access with no transaction open never faults.
``open_txn`` starts a new epoch and ``close_txn`` ends it.  Every access
stamps the latest epoch on its entry at both levels, and an entry is
pinned iff its stamp is the open epoch, so closing the epoch releases
every pin made in it at once, as a hardware transaction's commit clears
the tracking of all its lines.  ``unpin_lines`` stamps 0 on the lines
it names, which releases their pins early.

A transaction's prefetch block, each list of runs of its body and its
commit are one call each, and each is exact: ``prefetch(lines, kind)``
equals one ``access`` per line in order, ``access_runs(runs, kind)``
equals, for each ``(addr, count)`` of ``runs`` in order, one ``access``
per word at ascending addresses, taking one step per line, and
``commit_lines(dirtied)`` equals ``writeback_line`` per dirtied line in
order.  A run list is the one path for consecutive words.  A
transaction commits with ``commit_lines(dirtied)``, one pass over the
lines it dirtied, and its pins end with ``close_txn``.  The state of
these calls (trace, counters, LRU order, dirty bits and stamps) matches
the per-line or per-word calls, including after a PinViolationError
part-way through a block or run list.  Invalid input is the caller's
error, not a modelled fault, and has one rule: ``access``,
``read_word``/``write_word``, ``access_runs`` and ``prefetch`` check
their whole input (the kind, and the range of every address or line)
before their first access, and raise a ValueError naming the first bad
address before anything changes.  The block calls sit on one per-line
step: ``access``, ``read_word``/``write_word``, ``access_runs`` and
``prefetch`` each make one ``_lines`` call with (line, k) pairs, which
makes a full access for a line's first word and moves only the counters
for its other k - 1 words (a prefetch passes k = 1).  The one exception
is a cold fill: a ``prefetch`` of a step-1 range whose L1 and LLC sets
are all empty, that gives no LLC set more lines than its ways and, for
a write, no L1 set more than its ways.  With nothing resident no line
hits and nothing is evicted but a read's own clean lines from L1, so
the fill is installed per set in closed form: each LLC set its lines,
each L1 set its last ``l1_ways`` lines, and one miss per line.  The
per-line step is its reference, and the tests hold the two equal.

The trace is stored packed.  ``CacheSim.trace`` is a ``Trace``, an
``array('q')`` of one 8-byte code per event, ``line << 1 |
is_writeback``, so recording an event makes no Python object; a
``TraceEvent`` is made only when the trace is read (iteration, an index,
a slice, equality with a list or a tuple).  ``snapshot_trace`` returns a
copy of it, one memcpy, and comparing two traces is one compare of their
codes.  LLC sets are made on first fill: a slot of the LLC's set list
is None until a line is first installed in that set (and again after
``flush_all``), so a simulator allocates a dict only for the sets it
fills.

The backing memory is a dict of fixed pages, each a list of
``PAGE_WORDS`` words, and this module is the only one that knows the
page layout.  ``load_words`` and ``store_words`` move a run of words as
one list slice per page it touches, and the other data movements sit on
them, except the one-word ones: ``load_word``, ``read_word`` and
``write_word`` index their one page inline.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from operator import and_, rshift
from typing import Iterable, Iterator, NamedTuple

WORD_BYTES = 8

PAGE_BYTES = 4096
PAGE_WORDS = PAGE_BYTES // WORD_BYTES
_PAGE_SHIFT = PAGE_WORDS.bit_length() - 1  # word index -> page number
_PAGE_MASK = PAGE_WORDS - 1  # word index -> index within its page

KIND_MISS = "llc-miss-read"
KIND_WRITEBACK = "write-back"

READ = "read"
WRITE = "write"

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
# NamedTuple constructor, which decoding would pay per event
_event = tuple.__new__

# An event is stored as one int, ``line << 1 | is_writeback``.
_KINDS = (KIND_MISS, KIND_WRITEBACK)
_KIND_BIT = {KIND_MISS: 0, KIND_WRITEBACK: 1}
_append = array.append  # the kernels append codes through the base method
_extend = array.extend


def _code(event: tuple[str, int]) -> int:
    kind, line = event
    try:
        return line << 1 | _KIND_BIT[kind]
    except KeyError:
        raise ValueError(f"bad event kind: {kind!r}") from None


def _events(codes: Iterator[int], same: Iterator[int]) -> Iterator[TraceEvent]:
    """The events of a stream of codes, made as they are read: ``codes``
    and ``same`` are two iterators over the same codes."""
    kinds = map(_KINDS.__getitem__, map(and_, codes, repeat(1)))
    lines = map(rshift, same, repeat(1))
    return map(_event, repeat(TraceEvent), zip(kinds, lines))


class Trace(array):
    """The ordered LLC-boundary events, held packed: an ``array('q')`` of
    one 8-byte code per event, ``line << 1 | is_writeback``.

    Two traces are equal iff they have the same length and agree at every
    position.  There is no tolerance or reordering: positional equality is
    the whole definition, made as one compare of the codes.  To a reader
    a trace is a sequence of ``TraceEvent``s: iteration, an index and a
    slice (a list) decode the events they return, ``append`` takes an
    event, and a trace equals a list or a tuple of the same events.  The
    other ``array`` methods, ``in`` among them, work on the codes: the
    simulator appends codes through them, so recording an event makes no
    Python object.  A trace is mutable, so, like a list, it has no hash.
    """

    __slots__ = ()

    def __new__(cls, events: Iterable[tuple[str, int]] = ()):
        return super().__new__(cls, "q", map(_code, events))

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[TraceEvent]:
        return _events(array.__iter__(self), array.__iter__(self))

    def __getitem__(self, i):
        codes = array.__getitem__(self, i)
        if isinstance(i, slice):
            return list(_events(iter(codes), iter(codes)))
        return _event(TraceEvent, (_KINDS[codes & 1], codes >> 1))

    def __eq__(self, other):
        if isinstance(other, Trace):
            return array.__eq__(self, other)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and self.events == tuple(other)
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __copy__(self, memo=None) -> "Trace":
        return array.__new__(Trace, "q", self)  # codes are ints: deep is shallow

    __deepcopy__ = __copy__

    def append(self, event: tuple[str, int]) -> None:
        _append(self, _code(event))

    def export_csv(self) -> str:
        lines = ["sequence,kind,line_address"]
        for seq, ev in enumerate(self):
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


# A simulator makes one L1 dict and one LLC slot per set up front, so a set
# count past this would spend the memory before the first access.
MAX_SETS = 1 << 20
# x86-64 virtual addresses are 48 bits wide, and an enclave's range lies
# within them.
MAX_ADDRESS_SPACE = 1 << 48


def _require_pow2(name: str, value: int, most: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    line_size: int = 64
    l1_sets: int = 64
    l1_ways: int = 8
    llc_sets: int = 8192
    llc_ways: int = 16
    address_space: int = 1 << 30

    def __post_init__(self) -> None:
        _require_pow2("line_size", self.line_size, MAX_ADDRESS_SPACE)
        _require_pow2("l1_sets", self.l1_sets, MAX_SETS)
        _require_pow2("llc_sets", self.llc_sets, MAX_SETS)
        _require_pow2("address_space", self.address_space, MAX_ADDRESS_SPACE)
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
        allowed = {f.name for f in fields(cls)}
        values: dict[str, int] = {}
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
            if key in values:
                raise ValueError(f"duplicate config key: {key}")
            values[key] = int(m.group(2))
        return cls(**values)

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

    The backing store is paged: a page of ``PAGE_WORDS`` zeros is
    allocated on the first store to any of its words and never on a read,
    so words never written read as zero.  Data movement is not modelled
    at byte level; the hierarchy only tracks which lines are resident,
    dirty, and pinned, while ``peek_words``/``poke_words`` operate on the
    backing store directly and are invisible to the trace.
    """

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self._pages: dict[int, list[int]] = {}  # page number -> its words
        self.trace = Trace()
        self.counters = AccessCounters()
        self._epoch = 0  # the epochs opened so far; the first is 1
        self._pin = -1  # the open epoch, or -1, which no entry holds
        c = self.config
        self._shift = c.line_shift
        self._l1_mask = c.l1_sets - 1
        self._llc_mask = c.llc_sets - 1
        self._l1_ways = c.l1_ways
        self._llc_ways = c.llc_ways
        self._l1: list[dict[int, int]] = [dict() for _ in range(c.l1_sets)]
        # an LLC set is made when a line is first installed in it
        self._llc: list[dict[int, int] | None] = [None] * c.llc_sets

    # -- transaction epochs ----------------------------------------------

    @property
    def txn_open(self) -> bool:
        return self._pin > 0

    def open_txn(self) -> None:
        """Start a new epoch: until ``close_txn``, every access stamps it
        and so pins its line."""
        self._epoch += 1
        self._pin = self._epoch

    def close_txn(self) -> None:
        """End the open epoch, which releases every pin stamped with it."""
        self._pin = -1

    # -- observable trace ------------------------------------------------

    def snapshot_trace(self) -> Trace:
        return array.__new__(Trace, "q", self.trace)  # one copy of the codes

    # -- raw memory (not traced) -----------------------------------------

    def peek_words(self, addr: int, count: int) -> list[int]:
        self._check_words(addr, count)
        return self.load_words(addr >> 3, count)

    def poke_words(self, addr: int, values: Iterable[int]) -> None:
        values = list(values)
        self._check_words(addr, len(values))
        self.store_words(addr >> 3, values)

    def load_word(self, w: int) -> int:
        """The value of the word at word index ``w``, unchecked and
        untraced: ``load_words(w, 1)[0]`` without building the list."""
        try:
            return self._pages[w >> _PAGE_SHIFT][w & _PAGE_MASK]
        except KeyError:  # a page never stored to
            return 0

    def load_words(self, w: int, count: int) -> list[int]:
        """The values of ``count`` words from word index ``w``: one list
        slice per page the run touches, zeros for a page never stored
        to.  Unchecked and untraced: the caller has checked the range."""
        pages = self._pages
        i = w & _PAGE_MASK
        if i + count <= PAGE_WORDS:
            page = pages.get(w >> _PAGE_SHIFT)
            return [0] * count if page is None else page[i:i + count]
        out: list[int] = []
        while count > 0:
            k = min(count, PAGE_WORDS - i)
            page = pages.get(w >> _PAGE_SHIFT)
            out += [0] * k if page is None else page[i:i + k]
            w, count, i = w + k, count - k, 0
        return out

    def store_words(self, w: int, values: Sequence[int]) -> None:
        """Store ``values`` at ascending words from word index ``w``: one
        list slice per page the run touches.  Unchecked and untraced: the
        caller has checked the range."""
        pages = self._pages
        i = w & _PAGE_MASK
        n = len(values)
        if i + n <= PAGE_WORDS:
            if n:
                p = w >> _PAGE_SHIFT
                (pages.get(p) or self._new_page(p))[i:i + n] = values
            return
        done = 0
        while done < n:
            k = min(n - done, PAGE_WORDS - i)
            p = w >> _PAGE_SHIFT
            (pages.get(p) or self._new_page(p))[i:i + k] = values[done:done + k]
            w, done, i = w + k, done + k, 0

    def _new_page(self, p: int) -> list[int]:
        """Allocate page ``p``, zero-filled, for a store."""
        page = self._pages[p] = [0] * PAGE_WORDS
        return page

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

    def read_word(self, addr: int) -> int:
        self._check_word(addr)
        self._lines(((addr >> self._shift, 1),), False)
        w = addr >> 3
        try:
            return self._pages[w >> _PAGE_SHIFT][w & _PAGE_MASK]
        except KeyError:  # a page never stored to
            return 0

    def write_word(self, addr: int, value: int) -> None:
        self._check_word(addr)
        self._lines(((addr >> self._shift, 1),), True)
        w = addr >> 3
        try:
            self._pages[w >> _PAGE_SHIFT][w & _PAGE_MASK] = value
        except KeyError:
            self._new_page(w >> _PAGE_SHIFT)[w & _PAGE_MASK] = value

    # access, unpin_lines and writeback_line have no caller in this package:
    # perfbench/tracing.py wraps each by name (``cls.__dict__[name]``), so
    # they stay until the benchmark stops wrapping them (ROADMAP item 1)
    def access(self, addr: int, kind: str) -> str:
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
        self._lines(((addr >> self._shift, 1),), _is_write(kind))
        if c.l1_hits != l1_hits:
            return "l1-hit"
        return "llc-miss" if c.llc_misses != llc_misses else "llc-hit"

    def access_runs(self, runs: Iterable[tuple[int, int]], kind: str) -> None:
        """Exactly ``access(addr + i * WORD_BYTES, kind)`` for each i in
        ``range(count)``, for each ``(addr, count)`` of ``runs`` in order,
        in one call taking one step per line of each run.

        Any line-long stretch of addresses holds ``line_size // 8`` of a
        run's words, whatever the alignment, so a run is a head, whole
        lines and a tail.  A bad ``kind`` is refused first, and a word out
        of range raises a ValueError naming the first such word of the
        first run that has one, both before any access; a
        PinViolationError leaves the words before it applied and the
        faulting word counted as ``access`` would.
        """
        is_write = _is_write(kind)
        limit = self.config.address_space
        shift = self._shift
        per = (1 << shift) // WORD_BYTES
        steps: list[tuple[int, int]] = []
        for addr, count in runs:
            if count <= 0:
                continue
            end = addr + (count - 1) * WORD_BYTES
            if not 0 <= addr < limit:
                raise ValueError(f"address {addr} out of range")
            if end >= limit:
                # the limit is a multiple of the word size, so this is the
                # first word at or past it
                raise ValueError(f"address {limit + addr % WORD_BYTES} out of range")
            first, last = addr >> shift, end >> shift
            if first == last:
                steps.append((first, count))
                continue
            head = -(-(((first + 1) << shift) - addr) // WORD_BYTES)
            steps.append((first, head))
            steps.extend(zip(range(first + 1, last), repeat(per)))
            steps.append((last, count - head - (last - first - 1) * per))
        self._lines(steps, is_write)

    def prefetch(self, lines: Iterable[int], kind: str) -> None:
        """Exactly ``access(line << shift, kind)`` for each of ``lines`` in
        order, in one call.

        The lines are taken once: anything that is not a sequence is
        made a tuple first.  A bad ``kind``, or a line out of range (a
        ValueError naming the first such line's address), is refused
        before any line; a range is checked from its ends.  A
        PinViolationError leaves the lines before it applied and the
        faulting line counted as ``access`` would.

        A step-1 range is a cold fill, made per set in closed form, when
        every L1 and LLC set its lines map to is empty, no LLC set gets
        more than ``llc_ways`` of them and, for a write, no L1 set more
        than ``l1_ways``.  Then no line hits and no access needs an LLC
        victim, nor a write an L1 victim, and a read's L1 victims are
        its own clean lines, which leave silently, so the per-line step
        would miss on every line and leave each LLC set holding its lines
        and each L1 set its last ``l1_ways`` lines, all in ascending
        order.  Any other block takes the per-line step, ``_lines``,
        which is the fill's reference.
        """
        is_write = _is_write(kind)
        shift, limit = self._shift, self.config.address_space
        span = type(lines) is range
        if not span and not isinstance(lines, Sequence):
            lines = tuple(lines)
        # a range's least and greatest lines are its ends
        ends = (lines[0], lines[-1]) if span and lines else lines
        if min(ends, default=0) < 0 or max(ends, default=0) << shift >= limit:
            bad = next(line for line in lines if not 0 <= line << shift < limit)
            raise ValueError(f"address {bad << shift} out of range")
        if span and lines.step == 1 and self._cold(lines, is_write):
            self._fill(lines, is_write)
        else:
            self._lines(zip(lines, repeat(1)), is_write)

    def _cold(self, lines: range, is_write: bool) -> bool:
        """Whether the step-1 range ``lines`` takes the closed-form fill:
        its sets are all empty and none of them overflows (see
        ``prefetch``)."""
        n = len(lines)
        l1_sets, llc_sets = self._l1_mask + 1, self._llc_mask + 1
        if not 0 < n <= llc_sets * self._llc_ways:
            return False
        if is_write and n > l1_sets * self._l1_ways:
            return False
        # the sets of the first min(n, sets) lines are all the sets touched
        llc, llc_mask = self._llc, self._llc_mask
        if any(llc[line & llc_mask] for line in lines[:llc_sets]):
            return False
        l1, l1_mask = self._l1, self._l1_mask
        return not any(l1[line & l1_mask] for line in lines[:l1_sets])

    def _fill(self, lines: range, is_write: bool) -> None:
        """The per-line step's result for a cold step-1 range: every line
        misses, each LLC set holds its lines and each L1 set its last
        ``l1_ways`` lines, stamped as the step would stamp them."""
        lstamp = self._epoch
        bits = lstamp << 1 | is_write
        llc, llc_mask = self._llc, self._llc_mask
        for i, first in enumerate(lines[:llc_mask + 1]):
            llc[first & llc_mask] = dict.fromkeys(lines[i::llc_mask + 1], lstamp)
        l1, l1_mask, l1_ways = self._l1, self._l1_mask, self._l1_ways
        for i, first in enumerate(lines[:l1_mask + 1]):
            l1[first & l1_mask] = dict.fromkeys(
                lines[i::l1_mask + 1][-l1_ways:], bits)
        _extend(self.trace, range(lines.start << 1, lines.stop << 1, 2))
        c = self.counters
        c.total += len(lines)
        c.llc_misses += len(lines)

    def _lines(self, steps: Iterable[tuple[int, int]], is_write: bool) -> None:
        """Make ``k`` accesses of one kind to each ``line`` of ``steps``, in
        order: the one per-line step every traced call is made of.

        A line's first word is a full access.  On an L1 miss both victims
        are chosen before anything changes, each the first entry in LRU
        order that its level's pin rule lets go; then the victims go
        (LLC, then L1) and the line comes in.  The line's other k - 1
        words can only hit at the level where that access left the line
        last in LRU order (L1, or the LLC when a read found no L1 way),
        and they change nothing it did not change, so they move only the
        counters.  A PinViolationError leaves the steps before it applied
        and only the faulting line's first word counted.
        """
        # every access stamps the latest epoch at both levels; an entry is
        # pinned iff its stamp is ``live``: the open epoch, or with none
        # open -1, which no entry holds
        live = self._pin
        protected = live << 1 | 1  # an L1 entry no access may displace
        lstamp = self._epoch
        bits = lstamp << 1 | is_write
        l1, l1_mask, l1_ways = self._l1, self._l1_mask, self._l1_ways
        llc, llc_mask, llc_ways = self._llc, self._llc_mask, self._llc_ways
        trace = self.trace
        emit = _append
        c = self.counters
        hits = 0  # L1 hits, counted into the counters once, on the way out
        try:
            for line, k in steps:
                l1_set = l1[line & l1_mask]
                flags = l1_set.pop(line, None)
                if flags is not None:
                    # an L1 hit moves the line to the end of its L1 set only
                    l1_set[line] = flags & 1 | bits
                    llc[line & llc_mask][line] = lstamp
                    hits += k
                    continue
                c.total += 1
                install_l1 = True
                if len(l1_set) >= l1_ways:
                    for l1_victim, flags in l1_set.items():
                        if flags != protected:
                            break
                    else:
                        # every way holds protected dirty data: a read is
                        # served from the LLC without L1 residency, a write
                        # has no home
                        if is_write:
                            raise PinViolationError(line, "l1")
                        install_l1 = False
                llc_set = llc[line & llc_mask]
                if llc_set is None:
                    llc_set = llc[line & llc_mask] = {}
                # an LLC hit moves the line to the end of its set: popped
                # here, reinserted below
                lflags = llc_set.pop(line, None)
                if lflags is None and len(llc_set) >= llc_ways:
                    for llc_victim, flags in llc_set.items():
                        if flags != live:
                            break
                    else:
                        raise PinViolationError(line, "llc")
                    del llc_set[llc_victim]
                    if l1[llc_victim & l1_mask].pop(llc_victim, 0) & 1:
                        emit(trace, llc_victim << 1 | 1)
                # the inclusion eviction above may have freed this set already
                if install_l1 and len(l1_set) >= l1_ways:
                    if l1_set.pop(l1_victim, 0) & 1:
                        emit(trace, l1_victim << 1 | 1)
                if lflags is None:
                    emit(trace, line << 1)
                    c.llc_misses += 1
                else:
                    c.llc_hits += 1
                llc_set[line] = lstamp
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
        dirty = sorted(line for s in self._l1 for line, f in s.items() if f & 1)
        _extend(self.trace, [line << 1 | 1 for line in dirty])
        for s in self._l1:
            s.clear()
        self._llc = [None] * len(self._llc)

    def invalidate_lines(self, lines: Iterable[int]) -> None:
        """Drop lines from both levels without any trace events.  Dirty
        data is discarded; the caller owns restoring memory."""
        l1, l1_mask = self._l1, self._l1_mask
        llc, llc_mask = self._llc, self._llc_mask
        for line in lines:
            l1[line & l1_mask].pop(line, None)
            s = llc[line & llc_mask]
            if s:
                s.pop(line, None)

    def commit_lines(self, dirtied: Iterable[int]) -> int:
        """Exactly ``writeback_line`` for each of ``dirtied`` in order, in
        one call.  Returns the number of write-back events emitted."""
        l1, l1_mask = self._l1, self._l1_mask
        trace = self.trace
        emit = _append
        emitted = 0
        for line in dirtied:
            s = l1[line & l1_mask]
            f = s.get(line, 0)
            if f & 1:
                s[line] = f ^ 1
                emit(trace, line << 1 | 1)
                emitted += 1
        return emitted

    # wrapped by name in perfbench/tracing.py, as ``access`` is
    def unpin_lines(self, lines: Iterable[int]) -> None:
        """Stamp 0 on each of ``lines`` resident at a level, which ends
        its pin before the open epoch does."""
        for line in lines:
            s = self._l1[line & self._l1_mask]
            if line in s:
                s[line] &= 1
            s = self._llc[line & self._llc_mask]
            if s and line in s:
                s[line] = 0

    # wrapped by name in perfbench/tracing.py, as ``access`` is
    def writeback_line(self, line: int) -> bool:
        """Force a dirty line out to memory, emitting one write-back event.

        The line stays resident (now clean) wherever it was.  Returns True
        if an event was emitted, False if the line was clean or absent.
        """
        return self.commit_lines((line,)) == 1

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
commit are one call each, and each is exact: ``prefetch(spans, kind)``,
whose spans are ``range``s of lines as a declaration holds them, equals
one ``access`` per line of each span in order, ``access_runs(runs, kind)``
equals, for each ``(addr, count)`` of ``runs`` in order, one ``access``
per word at ascending addresses, taking one step per line, and
``commit_lines(dirtied)`` equals ``writeback_line`` per dirtied line in
order.  A run list is the one path for consecutive words, and
``access`` is the list of one word.  A
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
step: ``read_word``/``write_word``, ``access_runs``, ``access_lines``
and ``prefetch`` each make one ``_lines`` call with (line, k) pairs,
which makes a full access for a line's first word and moves only the
counters for its other k - 1 words (a prefetch passes k = 1).  A run
list's pairs come from one walk, ``line_steps``, which checks each run
against a list of line spans and builds its pairs in the same pass:
``access_runs`` walks against the whole address space, a transaction
body against its declaration, and ``access_lines`` takes pairs so
checked.  ``_lines`` keeps the counts it moves in locals (an L1 hit's
words, a miss step's first word, the words the LLC serves and the LLC
misses) and adds each to ``counters`` once, on the way out and only if
it moved, so a PinViolationError leaves exactly the counts ``access``
would, and ``commit_lines`` counts its write-backs as the trace's
growth.  An LLC hit evicts nothing from the LLC, so its step skips the
test for an inclusion eviction.  A line resident in L1 carries the same
stamp at both levels, which every call that writes a stamp keeps, so an
L1 hit in the epoch of the line's last access leaves its LLC entry
alone: every hit of a prefetched body is one.

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
page layout.  ``load_words`` and ``store_words`` move a run of words
with one visit per page it touches, ``store_words`` returning the values
it overwrote, which a transaction's undo log keeps, and the other data
movements sit on them, except the one-word ones: ``load_word``,
``read_word`` and ``write_word`` index their one page inline.

A geometry is a ``CacheConfig``, whose fields are taken through
``operator.index`` (numpy's integers pass, stored as ints) and a
non-integer one refused naming it, before any other check: one
``index_fields`` loop, which ``ShuffleParams`` runs too.
``CacheConfig.from_text`` reads one from ``key=value`` lines, which
``key_values`` splits, as it splits the CLI's ``--config`` file: one
loop over such lines.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain, repeat
from operator import and_, attrgetter, index, rshift
from typing import Callable, Iterable, Iterator, NamedTuple

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


def _out_of_range(addr: int) -> ValueError:
    return ValueError(f"address {addr} out of range")


def line_steps(runs: Iterable[tuple[int, int]], shift: int, spans: Sequence[range],
               starts: Sequence[int], refuse: Callable[[int], Exception],
               aligned: bool, build: bool = True) -> tuple[list[tuple[int, int]], int]:
    """One walk over ``runs``, each ``(addr, count)`` ``count`` words at
    ascending byte addresses from ``addr``: check each run with words
    against ``spans`` and build its ``(line, k)`` steps, the ``k`` words
    it has in each ``line``.  Returns the steps and the number of words.
    Without ``build`` the runs are only checked, and no steps are built.

    ``spans`` are ascending, disjoint ``range``s of lines, no two
    touching, with ``starts`` their first lines, so one bisect finds the
    one span that can hold a run's first line.  The first run with a
    line outside them raises ``refuse(addr)`` for its first word there.
    With ``aligned``, a misaligned run is refused at its first word: by
    ``refuse`` if its line is outside the spans, else by a ValueError.
    Any line-long stretch of addresses holds ``1 << shift >> 3`` of a
    run's words, whatever the alignment, so a run's steps are a head,
    whole lines and a tail.
    """
    steps: list[tuple[int, int]] = []
    total = 0
    for addr, count in runs:
        if count <= 0:
            continue
        misaligned = aligned and addr & 7
        first = addr >> shift
        last = first if misaligned else addr + (count - 1) * WORD_BYTES >> shift
        i = bisect_right(starts, first) - 1
        if i < 0 or spans[i].stop <= last:
            bad = first if i < 0 else max(first, spans[i].stop)
            # the run's first word at or past line ``bad``: its words
            # share addr's offset within a word
            raise refuse(max(addr, bad << shift | addr & 7))
        if misaligned:
            raise ValueError(f"address {addr} not word aligned")
        total += count
        if not build:
            continue
        if first == last:
            steps.append((first, count))
            continue
        head = (((first + 1) << shift) - addr + 7) >> 3
        per = 1 << shift >> 3
        steps.append((first, head))
        for line in range(first + 1, last):
            steps.append((line, per))
        steps.append((last, count - head - (last - first - 1) * per))
    return steps, total


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
_start, _stop = attrgetter("start"), attrgetter("stop")  # a span's ends


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


def key_values(text: str) -> Iterator[tuple[str, str, str]]:
    """Each ``key=value`` line of ``text`` as ``(line, key, value)``, key
    and value stripped, made as it is read, so a caller's refusal of one
    line comes before any later line is looked at.  '#' starts a comment,
    blank lines are skipped, a line with no '=' is refused, quoted, and so
    is a key given twice, '-' read as '_', named as its line spells it."""
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"malformed config line: {raw!r}")
        key = key.strip()
        if (name := key.replace("-", "_")) in seen:
            raise ValueError(f"duplicate config key: {key}")
        seen.add(name)
        yield raw, key, value.strip()


def index_fields(obj) -> None:
    """Set each field of the dataclass ``obj``, frozen or not, to
    ``operator.index`` of its value (numpy's integers pass, as ints); a
    non-integer one is refused as ``<field> must be an integer``."""
    for f in fields(obj):
        try:
            object.__setattr__(obj, f.name, index(getattr(obj, f.name)))
        except TypeError:
            raise ValueError(f"{f.name} must be an integer") from None


@dataclass(frozen=True)
class CacheConfig:
    line_size: int = 64
    l1_sets: int = 64
    l1_ways: int = 8
    llc_sets: int = 8192
    llc_ways: int = 16
    address_space: int = 1 << 30

    def __post_init__(self) -> None:
        index_fields(self)
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
        """The geometry of ``key_values`` lines, each a field and its
        decimal value; unset fields keep defaults."""
        allowed = {f.name for f in fields(cls)}
        values: dict[str, int] = {}
        for raw, key, value in key_values(text):
            if not (re.fullmatch(r"\w+", key) and value.isdecimal()):
                raise ValueError(f"malformed config line: {raw!r}")
            if key not in allowed:
                raise ValueError(f"unknown config key: {key}")
            values[key] = int(value)
        return cls(**values)


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
        # the address space as ``line_steps`` spans: one, from line 0
        self._space = (range(c.address_space >> c.line_shift),)

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
        i = w & _PAGE_MASK
        if i + count > PAGE_WORDS:  # over a page boundary: one load per page
            k = PAGE_WORDS - i
            out = self.load_words(w, k)
            for d in range(k, count, PAGE_WORDS):
                out += self.load_words(w + d, min(PAGE_WORDS, count - d))
            return out
        page = self._pages.get(w >> _PAGE_SHIFT)
        return [0] * count if page is None else page[i:i + count]

    def store_words(self, w: int, values: Sequence[int]) -> list[int]:
        """Store ``values`` at ascending words from word index ``w`` and
        return the values they held: one visit per page the run touches,
        two list slices.  Unchecked and untraced: the caller has checked
        the range."""
        i = w & _PAGE_MASK
        n = len(values)
        if i + n > PAGE_WORDS:  # over a page boundary: one store per page
            k = PAGE_WORDS - i
            old = self.store_words(w, values[:k])
            for d in range(k, n, PAGE_WORDS):
                old += self.store_words(w + d, values[d:d + PAGE_WORDS])
            return old
        if not n:
            return []
        p = w >> _PAGE_SHIFT
        page = self._pages.get(p) or self._new_page(p)
        old = page[i:i + n]
        page[i:i + n] = values
        return old

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

    # the one-word calls test the word inline and leave the refusal to
    # ``_check_word``, sparing a call per word
    def read_word(self, addr: int) -> int:
        if addr & 7 or not 0 <= addr < self.config.address_space:
            self._check_word(addr)
        self._lines(((addr >> self._shift, 1),), False)
        w = addr >> 3
        try:
            return self._pages[w >> _PAGE_SHIFT][w & _PAGE_MASK]
        except KeyError:  # a page never stored to
            return 0

    def write_word(self, addr: int, value: int) -> None:
        if addr & 7 or not 0 <= addr < self.config.address_space:
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
        It is the run list of one word, ``access_runs(((addr, 1),), kind)``.

        Raises PinViolationError when the access cannot be satisfied
        without evicting a protected line (see module docstring).  The
        raise comes before any entry changes or event, but after the
        access has been counted: ``counters.total`` has already advanced,
        and no hit or miss counter has.  A ValueError (a bad kind, else
        an address out of range) is raised before anything changes.
        """
        c = self.counters
        l1_hits, llc_misses = c.l1_hits, c.llc_misses
        self.access_runs(((addr, 1),), kind)
        if c.l1_hits != l1_hits:
            return "l1-hit"
        return "llc-miss" if c.llc_misses != llc_misses else "llc-hit"

    def access_runs(self, runs: Iterable[tuple[int, int]], kind: str) -> None:
        """Exactly ``access(addr + i * WORD_BYTES, kind)`` for each i in
        ``range(count)``, for each ``(addr, count)`` of ``runs`` in order,
        in one call taking one step per line of each run.

        The steps are ``line_steps``' walk of the runs against the whole
        address space.  A bad ``kind`` is refused first, and a word out
        of range raises a ValueError naming the first such word of the
        first run that has one, both before any access; a
        PinViolationError leaves the words before it applied and the
        faulting word counted as ``access`` would.
        """
        is_write = _is_write(kind)
        steps, _ = line_steps(runs, self._shift, self._space, (0,), _out_of_range,
                              False)
        self._lines(steps, is_write)

    def access_lines(self, steps: Iterable[tuple[int, int]], kind: str) -> None:
        """Exactly ``k`` accesses of ``kind`` to each ``(line, k)`` of
        ``steps`` in order, in one call: the steps of ``line_steps``.
        Only the kind is checked; the caller has checked every line, as
        a transaction's walk does against its declaration.  A
        PinViolationError leaves the steps before it applied and the
        faulting line's first word counted as ``access`` would."""
        self._lines(steps, _is_write(kind))

    def prefetch(self, spans: Iterable[range], kind: str) -> None:
        """Exactly ``access(line << shift, kind)`` for each line of each of
        ``spans`` in order, in one call: one ``_lines`` step per line.

        A span is a ``range`` of consecutive lines, as a declaration holds
        them; spans may be empty or overlap.  The spans are taken once, as
        a tuple, and the non-empty ones are checked together, by their
        least first line and greatest end; only a refusal looks for the
        span to name.  A bad ``kind``, or a
        line out of range (a ValueError naming the first such line's
        address), is refused before any line.  A PinViolationError leaves
        the lines before it applied and the faulting line counted as
        ``access`` would.
        """
        is_write = _is_write(kind)
        shift = self._shift
        past = self.config.address_space >> shift  # the first line past it
        spans = tuple(spans)
        full = tuple(filter(None, spans))
        if full and (min(map(_start, full)) < 0 or max(map(_stop, full)) > past):
            span = next(s for s in full if s.start < 0 or s.stop > past)
            bad = span.start if span.start < 0 else max(span.start, past)
            raise ValueError(f"address {bad << shift} out of range")
        self._lines(zip(chain.from_iterable(spans), repeat(1)), is_write)

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
        # the counts a step moves, kept here and added to the counters on
        # the way out, each only if it moved: an L1 hit's words, and a
        # miss step's first word, the words the LLC serves and an LLC miss
        hits = total = llc_hits = llc_misses = 0
        try:
            for line, k in steps:
                l1_set = l1[line & l1_mask]
                flags = l1_set.pop(line, None)
                if flags is not None:
                    # an L1 hit moves the line to the end of its L1 set only
                    l1_set[line] = flags & 1 | bits
                    # a line in L1 has one stamp at both levels, so a hit
                    # in the epoch of its last access leaves the LLC alone
                    if flags >> 1 != lstamp:
                        llc[line & llc_mask][line] = lstamp
                    hits += k
                    continue
                total += 1
                install_l1 = True
                # ``flags`` stays None unless an L1 victim is chosen, and
                # then holds the victim's entry
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
                        flags = None
                llc_set = llc[line & llc_mask]
                if llc_set is None:
                    llc_set = llc[line & llc_mask] = {}
                # an LLC hit moves the line to the end of its set: popped
                # here, reinserted below
                lflags = llc_set.pop(line, None)
                if lflags is not None:
                    # a hit evicts nothing from the LLC, so the L1 victim
                    # chosen above is still in its set
                    llc_hits += 1
                    if flags is not None:
                        del l1_set[l1_victim]
                        if flags & 1:
                            emit(trace, l1_victim << 1 | 1)
                else:
                    if len(llc_set) >= llc_ways:
                        for llc_victim, flags in llc_set.items():
                            if flags != live:
                                break
                        else:
                            raise PinViolationError(line, "llc")
                        del llc_set[llc_victim]
                        if l1[llc_victim & l1_mask].pop(llc_victim, 0) & 1:
                            emit(trace, llc_victim << 1 | 1)
                    # the inclusion eviction above may have freed this set
                    if install_l1 and len(l1_set) >= l1_ways:
                        if l1_set.pop(l1_victim, 0) & 1:
                            emit(trace, l1_victim << 1 | 1)
                    emit(trace, line << 1)
                    llc_misses += 1
                llc_set[line] = lstamp
                if install_l1:
                    l1_set[line] = bits
                    hits += k - 1
                else:
                    total += k - 1
                    llc_hits += k - 1
        finally:
            if hits:
                c.l1_hits += hits
                c.total += hits
            if total:
                c.total += total
            if llc_hits:
                c.llc_hits += llc_hits
            if llc_misses:
                c.llc_misses += llc_misses

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
        before = len(trace)
        for line in dirtied:
            s = l1[line & l1_mask]
            f = s.get(line, 0)
            if f & 1:
                s[line] = f ^ 1
                emit(trace, line << 1 | 1)
        return len(trace) - before

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

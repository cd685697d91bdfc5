"""Cache hierarchy tests.

The core oracle is a hand-simulated state table for a 1-set geometry,
worked out on paper before the simulator existed: every step lists the
expected lookup result and exactly which events it appends.
"""

import copy
import dataclasses
from array import array
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    check_invariants,
    in_epoch,
    line_state,
    lru_entries,
    memory_contents,
    per_line_commit,
    per_line_prefetch,
    per_line_unpin,
    peek_word,
    per_word_access,
    pinned_lines,
    poke_word,
    reset_trace,
    set_dicts,
)

from oblishuffle.cache import (
    KIND_MISS,
    KIND_WRITEBACK,
    MAX_ADDRESS_SPACE,
    MAX_SETS,
    PAGE_BYTES,
    PAGE_WORDS,
    AccessCounters,
    CacheConfig,
    CacheSim,
    PinViolationError,
    Trace,
    TraceEvent,
)

TINY = CacheConfig(line_size=64, l1_sets=1, l1_ways=2, llc_sets=1, llc_ways=4)


def miss(line):
    return TraceEvent(KIND_MISS, line)


def wb(line):
    return TraceEvent(KIND_WRITEBACK, line)


def test_cold_read_misses():
    sim = CacheSim(TINY)
    assert sim.access(0, "read") == "llc-miss"
    assert sim.trace == [miss(0)]


def test_second_access_hits_without_events():
    sim = CacheSim(TINY)
    sim.access(0, "read")
    assert sim.access(0, "read") == "l1-hit"
    assert sim.access(63, "write") == "l1-hit"  # same line, any byte
    assert sim.trace == [miss(0)]


# Hand-simulated on paper: L1 1 set x 2 ways, LLC 1 set x 4 ways, LRU.
# Columns: (line, kind, expected result, events appended by this access).
STATE_TABLE = [
    (0, "write", "llc-miss", [miss(0)]),
    (1, "write", "llc-miss", [miss(1)]),
    # L1 full; LRU victim line 0 is dirty: written through before the fill
    (2, "read", "llc-miss", [wb(0), miss(2)]),
    # LLC still holds line 0, so this is a hit, but installing in L1
    # demotes dirty line 1
    (0, "read", "llc-hit", [wb(1)]),
    # L1 victim line 2 is clean now: silent
    (3, "write", "llc-miss", [miss(3)]),
    # LLC full; LRU victim is line 1, already written through: silent.
    # L1 victim line 0 clean: silent.
    (4, "read", "llc-miss", [miss(4)]),
]


def test_hand_simulated_state_table():
    sim = CacheSim(TINY)
    for step, (line, kind, want, events) in enumerate(STATE_TABLE):
        before = len(sim.trace)
        got = sim.access(line * 64, kind)
        assert got == want, f"step {step}: {got} != {want}"
        assert sim.trace[before:] == events, f"step {step} events"
        check_invariants(sim)
    # line 3 is the only dirty line left
    sim.flush_all()
    assert sim.trace[-1] == wb(3)
    assert sim.trace == [
        miss(0), miss(1), wb(0), miss(2), wb(1), miss(3), miss(4), wb(3),
    ]
    assert line_state(sim, 3, "llc") is None  # flush empties the cache


def test_dirty_l1_eviction_on_llc_hit_writes_back():
    # seed line 2 into the LLC, fill L1 with two dirty lines, then re-read
    # line 2: an LLC hit that still emits write-back(0) and no miss
    sim = CacheSim(TINY)
    sim.access(2 * 64, "read")
    sim.access(0, "write")
    sim.access(1 * 64, "write")
    before = len(sim.trace)
    assert sim.access(2 * 64, "read") == "llc-hit"
    assert sim.trace[before:] == [wb(0)]


def test_combined_eviction_writes_back_once():
    # LLC eviction removes a line whose L1 copy is dirty: one write-back
    cfg = CacheConfig(line_size=64, l1_sets=1, l1_ways=2, llc_sets=1, llc_ways=2)
    sim = CacheSim(cfg)
    sim.access(0, "write")
    sim.access(64, "write")
    before = len(sim.trace)
    sim.access(128, "read")
    assert sim.trace[before:] == [wb(0), miss(2)]
    assert line_state(sim, 0, "l1") is None
    assert line_state(sim, 0, "llc") is None


def test_flush_orders_write_backs_ascending():
    cfg = CacheConfig(line_size=64, l1_sets=16, l1_ways=2, llc_sets=16, llc_ways=4)
    sim = CacheSim(cfg)
    for line in (9, 3, 7):
        sim.access(line * 64, "write")
    reset_trace(sim)
    sim.flush_all()
    assert sim.trace == [wb(3), wb(7), wb(9)]


def test_flush_empty_cache_is_silent():
    sim = CacheSim(TINY)
    sim.flush_all()
    assert sim.trace == []


def test_flush_single_dirty_line():
    sim = CacheSim(TINY)
    sim.access(5 * 64, "write")
    reset_trace(sim)
    sim.flush_all()
    assert sim.trace == [wb(5)]


def test_clean_lines_flush_silently():
    sim = CacheSim(TINY)
    sim.access(0, "read")
    sim.access(64, "read")
    reset_trace(sim)
    sim.flush_all()
    assert sim.trace == []


# -- pinning ----------------------------------------------------------------


def test_llc_set_of_pinned_lines_rejects_install():
    cfg = CacheConfig(line_size=64, l1_sets=1, l1_ways=1, llc_sets=1, llc_ways=2)
    sim = CacheSim(cfg)
    sim.open_txn()
    sim.access(0, "read")
    sim.access(64, "read")
    before = list(sim.trace)
    with pytest.raises(PinViolationError) as exc:
        sim.access(128, "read")
    assert exc.value.level == "llc"
    assert exc.value.line_address == 2
    # the rejected access changed nothing
    assert sim.trace == before
    assert line_state(sim, 0, "llc") == (False, True)
    assert line_state(sim, 1, "llc") == (False, True)
    check_invariants(sim)


def test_write_blocked_by_pinned_dirty_l1_set():
    sim = CacheSim(TINY)
    sim.open_txn()
    sim.access(0, "write")
    sim.access(64, "write")
    with pytest.raises(PinViolationError) as exc:
        sim.access(128, "write")
    assert exc.value.level == "l1"
    assert exc.value.line_address == 2


def test_read_falls_back_to_llc_when_l1_is_pinned_dirty():
    sim = CacheSim(TINY)
    sim.open_txn()
    sim.access(0, "write")
    sim.access(64, "write")
    before = len(sim.trace)
    assert sim.access(128, "read") == "llc-miss"
    assert sim.trace[before:] == [miss(2)]
    assert line_state(sim, 2, "l1") is None
    assert line_state(sim, 2, "llc") == (False, True)
    # next touch is served by the LLC, not L1
    assert sim.access(128, "read") == "llc-hit"
    check_invariants(sim)
    sim.close_txn()
    assert line_state(sim, 2, "llc") == (False, False)


def test_pinned_clean_line_demotes_silently_and_stays_pinned_in_llc():
    sim = CacheSim(TINY)
    sim.open_txn()
    sim.access(0, "read")
    sim.access(64, "read")
    before = len(sim.trace)
    sim.access(128, "read")  # evicts a pinned clean line from L1
    assert [e for e in sim.trace[before:] if e.kind == KIND_WRITEBACK] == []
    demoted = [l for l in (0, 1) if line_state(sim, l, "l1") is None]
    assert len(demoted) == 1
    assert line_state(sim, demoted[0], "llc") == (False, True)


@pytest.mark.parametrize("block", [False, True])
def test_rejected_pinned_write_is_counted_but_changes_nothing_else(block):
    # a third pinned dirty line has no home in the one 2-way L1 set: the
    # fault comes after the access was counted, so total reads 3 against
    # 2 misses, and before any entry, its LRU place or an event changed
    sim = CacheSim(TINY)
    sim.open_txn()
    sim.access(0, "write")
    sim.access(64, "write")
    before = [list(s.items()) for s in set_dicts(sim)]
    with pytest.raises(PinViolationError) as exc:
        if block:
            sim.prefetch([range(2, 3)], "write")
        else:
            sim.access(128, "write")
    assert exc.value.line_address == 2
    assert sim.counters == AccessCounters(total=3, l1_hits=0, llc_hits=0,
                                          llc_misses=2)
    assert sim.trace == [miss(0), miss(1)]
    assert [list(s.items()) for s in set_dicts(sim)] == before


def test_unpin_then_evictable():
    cfg = CacheConfig(line_size=64, l1_sets=1, l1_ways=1, llc_sets=1, llc_ways=2)
    sim = CacheSim(cfg)
    sim.open_txn()
    sim.access(0, "read")
    sim.access(64, "read")
    sim.unpin_lines([0, 1])
    sim.access(128, "read")  # now fine, though the epoch is still open
    check_invariants(sim)


def test_writeback_line_cleans_and_keeps_resident():
    sim = CacheSim(TINY)
    sim.access(0, "write")
    reset_trace(sim)
    assert sim.writeback_line(0) is True
    assert sim.trace == [wb(0)]
    assert line_state(sim, 0, "l1") == (False, False)
    assert sim.writeback_line(0) is False  # already clean
    assert sim.writeback_line(99) is False  # absent
    assert sim.trace == [wb(0)]


def test_invalidate_discards_dirty_data_silently():
    sim = CacheSim(TINY)
    sim.write_word(0, 7)
    reset_trace(sim)
    sim.invalidate_lines([0])
    assert sim.trace == []
    assert line_state(sim, 0, "llc") is None
    # memory keeps whatever was poked through write_word; the caller of
    # invalidate owns restoring it
    assert peek_word(sim, 0) == 7


# -- memory ------------------------------------------------------------------


def test_unwritten_words_read_zero():
    sim = CacheSim(TINY)
    assert sim.read_word(64) == 0
    assert peek_word(sim, 512) == 0


def test_read_write_word_roundtrip():
    sim = CacheSim(TINY)
    sim.write_word(8, 12345)
    assert sim.read_word(8) == 12345


def test_poke_peek_do_not_touch_the_trace():
    sim = CacheSim(TINY)
    sim.poke_words(0, [1, 2, 3])
    assert sim.peek_words(0, 3) == [1, 2, 3]
    assert sim.trace == []
    assert line_state(sim, 0, "llc") is None


def test_word_blocks_check_their_last_word_before_storing():
    cfg = CacheConfig(line_size=64, l1_sets=1, l1_ways=1, llc_sets=1,
                      llc_ways=1, address_space=64)
    sim = CacheSim(cfg)
    # words 7..10 of a space that ends after word 7
    with pytest.raises(ValueError, match="out of range"):
        sim.poke_words(56, [1, 2, 3, 4])
    assert memory_contents(sim) == {}
    with pytest.raises(ValueError, match="out of range"):
        sim.peek_words(48, 3)
    sim.poke_words(48, [1, 2])
    assert sim.peek_words(48, 2) == [1, 2]
    assert sim.peek_words(0, 8) == [0] * 6 + [1, 2]
    assert sim.peek_words(56, 0) == []


# four pages; a block from word PAGE_WORDS - 2 reaches into page 2
PAGED = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=2, llc_ways=4,
                    address_space=4 * PAGE_BYTES)


def test_reads_allocate_no_page():
    sim = CacheSim(PAGED)
    assert sim.read_word(PAGE_BYTES) == 0
    assert sim.peek_words(16, 4) == [0] * 4
    assert sim.peek_words(PAGE_BYTES - 16, PAGE_WORDS + 4) == [0] * (PAGE_WORDS + 4)
    assert peek_word(sim, 3 * PAGE_BYTES) == 0
    assert sim._pages == {}


def test_word_blocks_across_pages_match_single_words():
    sim = CacheSim(PAGED)
    last = PAGED.address_space - 8
    start = PAGE_BYTES - 16  # the last two words of page 0
    values = list(range(1, PAGE_WORDS + 5))  # ends two words into page 2
    sim.poke_words(start, values)
    sim.poke_words(last - 16, [7, 8, 9])  # ends on the last word of the space
    sim.write_word(2 * PAGE_BYTES + 16, 11)
    assert sorted(sim._pages) == [0, 1, 2, 3]
    assert sim.peek_words(start, len(values)) == values
    assert [peek_word(sim, start + 8 * i) for i in range(len(values))] == values
    assert sim.peek_words(start - 8, 3) == [0, 1, 2]
    assert sim.peek_words(last - 16, 3) == [7, 8, 9]
    assert sim.read_word(last) == 9
    assert sim.read_word(2 * PAGE_BYTES + 16) == 11
    want = dict(enumerate(values, start >> 3))
    want.update({(last >> 3) - 2: 7, (last >> 3) - 1: 8, last >> 3: 9,
                 (2 * PAGE_BYTES + 16) >> 3: 11})
    assert memory_contents(sim) == want
    # a block past the last word is refused before it stores anything
    with pytest.raises(ValueError, match="out of range"):
        sim.poke_words(last - 8, [1, 2, 3])
    assert memory_contents(sim) == want


def test_misaligned_word_rejected():
    sim = CacheSim(TINY)
    with pytest.raises(ValueError):
        sim.read_word(4)
    with pytest.raises(ValueError):
        poke_word(sim, 3, 1)


def test_out_of_range_address_rejected():
    sim = CacheSim(TINY)
    with pytest.raises(ValueError):
        sim.access(TINY.address_space, "read")
    with pytest.raises(ValueError):
        sim.access(-1, "read")


def test_bad_kind_rejected():
    sim = CacheSim(TINY)
    with pytest.raises(ValueError):
        sim.access(0, "fetch")


# -- set mapping ---------------------------------------------------------------


def test_set_index_is_line_mod_sets():
    cfg = CacheConfig(line_size=64, l1_sets=4, l1_ways=1, llc_sets=8, llc_ways=2)
    sim = CacheSim(cfg)
    for line in range(4):
        sim.access(line * 64, "read")
    for line in range(4):
        assert line_state(sim, line, "l1") is not None
    # line 4 maps to the set of line 0 and evicts it
    sim.access(4 * 64, "read")
    assert line_state(sim, 0, "l1") is None
    assert line_state(sim, 4, "l1") is not None
    check_invariants(sim)


# -- trace handling ------------------------------------------------------------


def test_snapshot_is_immutable_copy():
    sim = CacheSim(TINY)
    sim.access(0, "read")
    snap = sim.snapshot_trace()
    sim.access(64, "read")
    assert len(snap) == 1
    assert len(sim.snapshot_trace()) == 2


def test_snapshot_twice_no_accesses_equal():
    sim = CacheSim(TINY)
    sim.access(0, "write")
    assert sim.snapshot_trace() == sim.snapshot_trace()


def test_interleaved_snapshots_are_prefixes():
    sim = CacheSim(TINY)
    sim.access(0, "read")
    first = sim.snapshot_trace()
    sim.access(64, "read")
    second = sim.snapshot_trace()
    assert second.events[: len(first)] == first.events
    assert len(second) > len(first)


def test_reset_trace_keeps_cache_state():
    sim = CacheSim(TINY)
    sim.access(0, "write")
    reset_trace(sim)
    assert sim.snapshot_trace().events == ()
    assert sim.access(0, "read") == "l1-hit"


def test_trace_csv_export():
    sim = CacheSim(TINY)
    sim.access(0, "write")
    sim.access(64, "read")
    sim.flush_all()
    got = sim.snapshot_trace().export_csv()
    assert got == (
        "sequence,kind,line_address\n"
        "0,llc-miss-read,0\n"
        "1,llc-miss-read,1\n"
        "2,write-back,0\n"
    )


def traffic(sim):
    """Misses, an L1 write-back and a flush: both kinds of event."""
    sim.access(0, "write")
    sim.access(64, "read")
    sim.access(128, "write")  # the 2-way L1 set evicts dirty line 0
    sim.flush_all()
    return [miss(0), miss(1), wb(0), miss(2), wb(2)]


def test_trace_is_stored_packed_and_reads_as_a_list_of_events():
    sim = CacheSim(TINY)
    events = traffic(sim)
    trace = sim.trace
    assert type(trace) is Trace
    # one 8-byte code per event: line << 1 | is_writeback
    assert trace.itemsize == 8
    assert trace.tobytes() == array("q", [0, 2, 1, 4, 5]).tobytes()
    assert len(trace) == len(events)
    # decoded on read
    assert list(trace) == events
    assert [type(e) for e in trace] == [TraceEvent] * len(events)
    assert [trace[i] for i in range(-5, 5)] == events + events
    assert trace[1:4] == events[1:4]
    assert trace[::-2] == events[::-2]
    assert trace.events == tuple(events)
    with pytest.raises(IndexError):
        trace[5]
    # equal to a Trace, a list and a tuple of the same events, and to
    # nothing that differs in length or at a position
    for same in (Trace(events), sim.snapshot_trace(), events, tuple(events)):
        assert trace == same and same == trace
        assert not trace != same and not same != trace
    changed = events[:-1] + [miss(7)]
    for other in (Trace(events[:-1]), events[:-1], tuple(events[:-1]),
                  Trace(changed), changed, tuple(changed), [], ()):
        assert trace != other and other != trace
        assert not trace == other and not other == trace
    # mutable, so unhashable, like a list
    with pytest.raises(TypeError):
        hash(trace)
    with pytest.raises(TypeError):
        hash(sim.snapshot_trace())

    trace.append(TraceEvent(KIND_WRITEBACK, 9))
    assert trace[-1] == wb(9)
    assert trace == events + [wb(9)]
    with pytest.raises(ValueError):
        trace.append(TraceEvent("hit", 3))
    assert trace == events + [wb(9)]


def test_trace_copies_are_independent_event_logs():
    sim = CacheSim(TINY)
    traffic(sim)
    for dup in (copy.copy(sim.trace), copy.deepcopy(sim.trace)):
        assert type(dup) is type(sim.trace)
        assert dup == sim.trace
        dup.append(miss(5))
        assert dup != sim.trace


def test_trace_from_events_equals_the_snapshot_of_them():
    sim = CacheSim(TINY)
    events = traffic(sim)
    built = Trace(events)
    assert Trace(tuple(events)) == built and Trace(iter(events)) == built
    assert built.tobytes() == sim.trace.tobytes()
    assert built.export_csv() == sim.snapshot_trace().export_csv()
    assert Trace() == CacheSim(TINY).snapshot_trace() == []
    # a snapshot, a copy and a deep copy are each a Trace of the events so
    # far, which later appends to the simulator's trace do not change
    dups = [sim.snapshot_trace(), copy.copy(sim.trace), copy.deepcopy(sim.trace)]
    assert [type(d) for d in dups] == [Trace] * 3
    assert sim.access(3 * 64, "read") == "llc-miss"
    sim.trace.append(wb(9))
    assert sim.trace == events + [miss(3), wb(9)]
    for dup in dups:
        assert dup == built and dup != sim.trace
    reset_trace(sim)
    assert sim.trace == [] and dups == [built] * 3


def test_a_fresh_simulator_makes_no_llc_set():
    sim = CacheSim()
    assert sim._llc == [None] * sim.config.llc_sets
    assert line_state(sim, 5, "llc") is None
    assert line_state(sim, 5, "l1") is None
    sim.invalidate_lines([5, 6])
    sim.unpin_lines([5])
    assert not sim.writeback_line(5)
    check_invariants(sim)
    assert sim._llc == [None] * sim.config.llc_sets


@pytest.mark.parametrize("k", [0, 1, 7, 8, 9, 30])
def test_prefetch_makes_one_llc_set_per_set_filled(k):
    # LLC 8 sets x 4 ways: lines 0..k-1 fill min(k, 8) sets
    cfg = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=8, llc_ways=4)
    sim = CacheSim(cfg)
    sim.prefetch([range(k)], "read")
    made = [s is not None for s in sim._llc]
    assert sum(made) == min(k, cfg.llc_sets)
    assert made == [i < k for i in range(cfg.llc_sets)]
    check_invariants(sim)


def test_a_deep_copy_makes_its_own_llc_sets():
    cfg = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=8, llc_ways=4)
    sim = CacheSim(cfg)
    sim.open_txn()
    sim.prefetch([range(2)], "write")
    dup = copy.deepcopy(sim)
    dup.prefetch([range(2, 6)], "read")
    dup.access(0, "read")
    dup.invalidate_lines([1])
    check_invariants(dup)
    check_invariants(sim)
    assert [s is not None for s in sim._llc] == [True, True] + [False] * 6
    assert lru_entries(sim)[-8:-6] == [[(0, False, True)], [(1, False, True)]]
    assert sim.trace == [miss(0), miss(1)]
    assert dup.trace == [miss(i) for i in range(6)]
    assert len(sim.trace) == 2


def test_invariants_hold_after_invalidate_and_flush():
    cfg = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=8, llc_ways=4)
    sim = CacheSim(cfg)
    for line in range(20):
        sim.access(line * 64, "write" if line % 3 else "read")
    sim.prefetch([range(20, 22)], "read")
    check_invariants(sim)
    # lines resident, evicted, and in sets never made
    sim.invalidate_lines([19, 0, 21, 100, 4, 12])
    check_invariants(sim)
    assert all(line_state(sim, line, "llc") is None for line in (19, 21, 4, 12))
    sim.flush_all()
    check_invariants(sim)
    assert sim._llc == [None] * cfg.llc_sets
    assert all(not s for s in sim._l1)
    sim.access(3 * 64, "read")
    check_invariants(sim)
    assert sum(s is not None for s in sim._llc) == 1


# -- configuration ---------------------------------------------------------------


def test_default_geometry():
    cfg = CacheConfig()
    assert cfg.l1_capacity == 32 * 1024
    assert cfg.llc_capacity == 8 * 1024 * 1024
    assert cfg.line_size == 64


def test_config_from_text():
    cfg = CacheConfig.from_text(
        """
        # toy geometry
        line_size = 32
        l1_sets=2
        l1_ways = 1
        llc_sets = 4
        llc_ways = 2
        """
    )
    assert cfg.line_size == 32
    assert cfg.l1_capacity == 64
    assert cfg.llc_capacity == 256
    assert cfg.address_space == 1 << 30  # unset keys keep defaults


@pytest.mark.parametrize(
    "text",
    [
        "line_size = 48",  # not a power of two
        "bogus = 7",
        "l1_sets = 2\nl1_sets = 4",
        "l1_ways = -1",
        "line_size",
    ],
)
def test_config_rejects_bad_text(text):
    with pytest.raises(ValueError):
        CacheConfig.from_text(text)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CacheConfig)])
@pytest.mark.parametrize("kind", [float, str])
def test_config_refuses_a_non_integer_field_naming_it(name, kind):
    # before any other check: a float way count made a float capacity, and
    # a float line size or address space died in a bit test
    value = kind(getattr(CacheConfig(), name))
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        CacheConfig(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        CacheConfig(**{"l1_sets": 3, name: value})  # 3: no power of two


def test_config_takes_numpy_integers_as_ints():
    fields = {f.name: np.int64(getattr(CacheConfig(), f.name))
              for f in dataclasses.fields(CacheConfig)}
    cfg = CacheConfig(**fields)
    assert cfg == CacheConfig()
    assert {type(getattr(cfg, name)) for name in fields} == {int}
    assert type(cfg.llc_capacity) is int


def test_config_rejects_l1_larger_than_llc():
    with pytest.raises(ValueError):
        CacheConfig(l1_sets=64, l1_ways=8, llc_sets=1, llc_ways=1)


def test_config_bounds_set_counts_and_address_space():
    top = CacheConfig(l1_sets=MAX_SETS, l1_ways=1, llc_sets=MAX_SETS,
                      address_space=MAX_ADDRESS_SPACE)
    assert (top.l1_sets, top.llc_sets) == (1 << 20, 1 << 20)
    assert top.address_space == 1 << 48
    for key, most in (("l1_sets", MAX_SETS), ("llc_sets", MAX_SETS),
                      ("address_space", MAX_ADDRESS_SPACE)):
        with pytest.raises(ValueError, match=f"^{key} must be at most {most}, "
                                             f"got {2 * most}$"):
            CacheConfig.from_text(f"{key} = {2 * most}")


# -- properties -------------------------------------------------------------------


@st.composite
def access_sequences(draw):
    """(line, kind, made inside an open epoch) per access."""
    n = draw(st.integers(1, 60))
    return [
        (
            draw(st.integers(0, 15)),
            draw(st.sampled_from(["read", "write"])),
            draw(st.booleans()),
        )
        for _ in range(n)
    ]


@given(access_sequences())
@settings(max_examples=120, deadline=None)
def test_identical_sequences_give_identical_traces(seq):
    cfg = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=4, llc_ways=4)
    a, b = CacheSim(cfg), CacheSim(cfg)
    for sim in (a, b):
        for line, kind, inside in seq:
            in_epoch(sim, inside)
            try:
                sim.access(line * 64, kind)
            except PinViolationError:
                pass
    assert a.trace == b.trace
    assert a.counters == b.counters


@given(access_sequences())
@settings(max_examples=120, deadline=None)
def test_structure_holds_under_arbitrary_traffic(seq):
    cfg = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=2, llc_ways=6)
    sim = CacheSim(cfg)
    for line, kind, inside in seq + [(0, "read", False)]:
        closing = sim.txn_open and not inside
        in_epoch(sim, inside)
        if closing:
            # closing the epoch ends every pin
            assert pinned_lines(sim, range(16)) == []
        before = len(sim.trace)
        try:
            r = sim.access(line * 64, kind)
        except PinViolationError:
            assert inside  # with no epoch open, no access faults
            assert len(sim.trace) == before  # rejected accesses are silent
            continue
        if r in ("l1-hit", "llc-hit"):
            # hits never emit miss-read events (write-backs may still
            # happen when an L1 install demotes a dirty line)
            assert all(e.kind != KIND_MISS for e in sim.trace[before:])
        check_invariants(sim)


@given(access_sequences())
@settings(max_examples=80, deadline=None)
def test_miss_events_match_miss_results(seq):
    cfg = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=4, llc_ways=2)
    sim = CacheSim(cfg)
    misses = 0
    for line, kind, inside in seq:
        in_epoch(sim, inside)
        try:
            if sim.access(line * 64, kind) == "llc-miss":
                misses += 1
        except PinViolationError:
            pass
    assert sum(1 for e in sim.trace if e.kind == KIND_MISS) == misses


# -- block calls against the per-line reference --------------------------------


def sim_state(sim):
    return (
        sim.trace,
        sim.counters,
        [list(s.items()) for s in sim._l1],
        # an LLC set not yet made is empty
        [list((s or {}).items()) for s in sim._llc],
    )


def frozen_state(sim):
    """``sim_state`` as a copy that later calls cannot change."""
    return copy.deepcopy(sim_state(sim))


def first_out_of_range(addrs, space):
    """The first of ``addrs`` outside ``[0, space)``, or None."""
    return next((a for a in addrs if not 0 <= a < space), None)


def assert_refused(sim, call, bad):
    """``call`` raises the per-word path's ValueError for address ``bad``
    and changes nothing."""
    before = frozen_state(sim)
    assert outcome(call) == (ValueError, f"address {bad} out of range")
    assert sim_state(sim) == before


def outcome(call):
    """What ``call`` returned, or the exception it raised, comparably."""
    try:
        return ("ok", call())
    except PinViolationError as exc:
        return (PinViolationError, exc.line_address, exc.level)
    except ValueError as exc:
        return (ValueError, str(exc))


@st.composite
def block_programs(draw):
    config = CacheConfig(
        line_size=64,
        l1_sets=draw(st.sampled_from([1, 2])),
        l1_ways=2,
        llc_sets=draw(st.sampled_from([2, 4])),
        llc_ways=draw(st.integers(2, 4)),
        address_space=1 << 12,  # lines 0..63
    )
    # pinned, dirty and clean lines from ordinary accesses, each made
    # inside an open epoch or not
    pre = draw(st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from(["read", "write"]),
                  st.booleans()),
        max_size=16,
    ))
    # in some programs a block may name a line past the address space
    line = st.integers(0, 11)
    if draw(st.booleans()):
        line = st.one_of(line, st.just(64))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            spans = st.builds(lambda lo, n: range(lo, lo + n), line,
                              st.integers(0, 3))
            steps.append(("prefetch", draw(st.lists(spans, max_size=4)),
                          draw(st.sampled_from(["read", "write"])),
                          draw(st.booleans())))
        else:
            steps.append(("commit", draw(st.lists(line, max_size=6)),
                          draw(st.lists(line, max_size=8)), draw(st.booleans())))
    return config, pre, steps


@settings(max_examples=300, deadline=None)
@given(block_programs())
def test_block_calls_match_the_per_line_loops(program):
    config, pre, steps = program
    fast, ref = CacheSim(config), CacheSim(config)
    for sim in (fast, ref):
        for line, kind, inside in pre:
            in_epoch(sim, inside)
            outcome(lambda: sim.access(line * 64, kind))
    assert sim_state(fast) == sim_state(ref)
    for step, a, b, inside in steps:
        for sim in (fast, ref):
            in_epoch(sim, inside)
        lines = chain.from_iterable(a) if step == "prefetch" else a
        bad = first_out_of_range([line * 64 for line in lines],
                                 config.address_space)
        if step == "prefetch" and bad is not None:
            # invalid input changes nothing; the reference takes no step
            assert_refused(fast, lambda: fast.prefetch(a, b), bad)
        elif step == "prefetch":
            assert outcome(lambda: fast.prefetch(a, b)) == outcome(
                lambda: per_line_prefetch(ref, a, b))
        else:
            assert outcome(lambda: fast.commit_lines(a)) == outcome(
                lambda: per_line_commit(ref, a))
            fast.unpin_lines(b)
            per_line_unpin(ref, b)
        assert sim_state(fast) == sim_state(ref)
        check_invariants(fast)


@st.composite
def span_programs(draw):
    """A geometry, some fills each maybe followed by an invalidation, and
    a list of spans to prefetch, of either kind, inside an epoch or not:
    each span empty or up to past both capacities, the spans may overlap,
    and in some programs one starts below line 0 or reaches out of the
    address space."""
    l1_sets = draw(st.sampled_from([1, 2, 4, 8]))
    l1_ways = draw(st.sampled_from([1, 2, 3]))
    llc_sets = draw(st.sampled_from([1, 2, 4]))
    llc_ways = draw(st.sampled_from([1, 2, 4, 8]))
    assume(l1_sets * l1_ways <= llc_sets * llc_ways)
    config = CacheConfig(64, l1_sets, l1_ways, llc_sets, llc_ways, 1 << 12)
    start = st.integers(0, 40)
    pre = draw(st.lists(st.tuples(
        start, st.integers(1, 12), st.sampled_from(["read", "write"]),
        st.booleans(), st.none() | st.tuples(start, st.integers(0, 40))),
        max_size=3))
    lo = st.one_of(start, st.integers(-2, 2), st.integers(56, 64))
    n = st.integers(0, 2 * llc_sets * llc_ways + 2)
    spans = draw(st.lists(st.builds(lambda lo, n: range(lo, lo + n), lo, n),
                          min_size=1, max_size=4))
    return (config, pre, spans, draw(st.sampled_from(["read", "write"])),
            draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(span_programs())
def test_prefetch_of_a_span_matches_the_per_line_step(program):
    # the span-fed block against one ``access`` per line of each span, in
    # order: the outcome (a PinViolationError with its line and level),
    # the trace bytes, the counters and every set's items in order agree.
    # With a line out of range it raises the ValueError the per-line path
    # raises at the first such line, and changes nothing
    config, pre, spans, kind, inside = program
    fast = CacheSim(config)
    for lo, n, pre_kind, pre_inside, cut in pre:
        in_epoch(fast, pre_inside)
        outcome(lambda: fast.prefetch([range(lo, lo + n)], pre_kind))
        if cut is not None:
            # can leave an L1 set empty over a non-empty LLC set
            fast.invalidate_lines(range(cut[0], cut[0] + cut[1]))
    in_epoch(fast, inside)
    ref = copy.deepcopy(fast)
    lines = list(chain.from_iterable(spans))
    bad = first_out_of_range([line * 64 for line in lines], config.address_space)
    if bad is not None:
        assert_refused(fast, lambda: fast.prefetch(spans, kind), bad)
        return

    def per_line():
        for line in lines:
            ref.access(line * 64, kind)

    assert outcome(lambda: fast.prefetch(spans, kind)) == outcome(per_line)
    assert fast.trace.tobytes() == ref.trace.tobytes()
    assert fast.counters == ref.counters
    assert [list(s.items()) for s in set_dicts(fast)] == [
        list(s.items()) for s in set_dicts(ref)]
    check_invariants(fast)


@pytest.mark.parametrize("make", [iter, lambda spans: (x for x in spans)])
def test_prefetch_takes_an_iterator_once(make):
    # the spans are read twice, to check them and to step their lines
    config = CacheConfig(64, 1, 2, 2, 4, 1 << 12)
    fast, ref = CacheSim(config), CacheSim(config)
    fast.prefetch(make([range(1, 4), range(2, 3)]), "read")
    ref.prefetch([range(1, 4), range(2, 3)], "read")
    assert fast.counters == ref.counters == AccessCounters(4, 1, 0, 3)
    assert sim_state(fast) == sim_state(ref)
    assert outcome(lambda: fast.prefetch(
        make([range(4, 5), range(60, 66), range(5, 6)]), "read")) == (
        ValueError, "address 4096 out of range")
    assert sim_state(fast) == sim_state(ref)


def test_prefetch_rejects_a_bad_kind_before_any_line():
    sim = CacheSim(TINY)
    with pytest.raises(ValueError, match="bad access kind"):
        sim.prefetch([range(2)], "fetch")
    assert sim_state(sim) == sim_state(CacheSim(TINY))


def test_commit_lines_writes_back_in_order_then_unpins():
    sim = CacheSim(TINY)
    sim.open_txn()
    sim.prefetch([range(2)], "write")
    sim.prefetch([range(2, 3)], "read")
    assert sim.commit_lines([1, 0, 1]) == 2
    assert sim.trace[-2:] == [wb(1), wb(0)]
    for line in (0, 1, 2):
        assert line_state(sim, line, "llc") == (False, True)
    sim.close_txn()
    for line in (0, 1, 2):
        assert line_state(sim, line, "llc") == (False, False)


@st.composite
def run_programs(draw):
    line_size = draw(st.sampled_from([8, 16, 32, 64, 128]))
    space = 16 * line_size  # lines 0..15
    config = CacheConfig(
        line_size=line_size,
        l1_sets=draw(st.sampled_from([1, 2])),
        l1_ways=2,
        llc_sets=draw(st.sampled_from([2, 4])),
        llc_ways=draw(st.integers(2, 4)),
        address_space=space,
    )
    # pinned, dirty and clean lines from ordinary accesses, each made
    # inside an open epoch or not
    pre = draw(st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from(["read", "write"]),
                  st.booleans()),
        max_size=16,
    ))
    # each run made inside an open epoch or not
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        # mostly word-aligned; some runs reach past the address space or
        # start outside it
        addr = draw(st.one_of(st.integers(0, space // 8 - 1).map(lambda w: 8 * w),
                              st.integers(-16, space + 76)))
        runs.append((addr, draw(st.integers(0, 30)),
                     draw(st.sampled_from(["read", "write"])), draw(st.booleans())))
    return config, pre, runs


def per_word_run(sim, addr, count, kind):
    for i in range(count):
        per_word_access(sim, addr + 8 * i, kind)


@settings(max_examples=300, deadline=None)
@given(run_programs())
def test_access_run_matches_per_word_accesses(program):
    config, pre, runs = program
    fast, ref = CacheSim(config), CacheSim(config)
    for sim in (fast, ref):
        for line, kind, inside in pre:
            in_epoch(sim, inside)
            outcome(lambda: sim.access(line * config.line_size, kind))
    for addr, count, kind, inside in runs:
        for sim in (fast, ref):
            in_epoch(sim, inside)
        bad = first_out_of_range(range(addr, addr + 8 * count, 8), config.address_space)
        if bad is not None:
            # invalid input changes nothing; the reference takes no step
            assert_refused(
                fast, lambda: fast.access_runs(((addr, count),), kind), bad)
        else:
            assert outcome(
                lambda: fast.access_runs(((addr, count),), kind)) == outcome(
                lambda: per_word_run(ref, addr, count, kind))
        assert sim_state(fast) == sim_state(ref)
        check_invariants(fast)


@settings(max_examples=300, deadline=None)
@given(run_programs())
def test_access_runs_matches_per_word_accesses(program):
    # the drawn runs as one list, of the first run's kind, inside an
    # epoch iff the first run is
    config, pre, runs = program
    fast, ref = CacheSim(config), CacheSim(config)
    kind, inside = runs[0][2:]
    for sim in (fast, ref):
        for line, pre_kind, pre_inside in pre:
            in_epoch(sim, pre_inside)
            outcome(lambda: sim.access(line * config.line_size, pre_kind))
        in_epoch(sim, inside)
    pairs = [(addr, count) for addr, count, _, _ in runs]
    words = [a for addr, count in pairs for a in range(addr, addr + 8 * count, 8)]
    bad = first_out_of_range(words, config.address_space)
    if bad is not None:
        # a bad word in any run refuses the whole list
        assert_refused(fast, lambda: fast.access_runs(pairs, kind), bad)
    else:
        def per_word_runs():
            for addr, count in pairs:
                per_word_run(ref, addr, count, kind)

        assert outcome(lambda: fast.access_runs(pairs, kind)) == outcome(
            per_word_runs)
    assert sim_state(fast) == sim_state(ref)
    check_invariants(fast)


def test_access_run_stops_at_a_pin_fault_mid_run():
    # line 0 holds pinned dirty data in the one 2-way L1 set; the run's
    # three words on line 1 pin it dirty too, so its first word on line 2
    # faults
    sim, ref = CacheSim(TINY), CacheSim(TINY)
    for s in (sim, ref):
        s.open_txn()
        s.access(0, "write")
    with pytest.raises(PinViolationError) as info:
        sim.access_runs(((64 + 40, 6),), "write")
    with pytest.raises(PinViolationError):
        per_word_run(ref, 64 + 40, 6, "write")
    assert (info.value.line_address, info.value.level) == (2, "l1")
    assert sim_state(sim) == sim_state(ref)
    assert (sim.counters.total, sim.counters.l1_hits) == (1 + 3 + 1, 2)


def test_access_run_past_the_address_space_changes_nothing():
    sim = CacheSim(TINY)
    space = TINY.address_space
    # the message names the first word at or past the limit
    assert_refused(sim, lambda: sim.access_runs(((space - 16, 4),), "read"),
                   space)
    assert_refused(sim, lambda: sim.access_runs(((space - 23, 4),), "read"),
                   space + 1)
    assert_refused(sim, lambda: sim.access_runs(((-8, 2),), "write"), -8)
    assert sim_state(sim) == sim_state(CacheSim(TINY))
    # misaligned, the run's last word starts below the limit and is in
    # range even though the run's end is past it
    sim.access_runs(((space - 23, 3),), "read")
    assert sim.counters.total == 3


def test_invalid_line_after_a_pin_fault_refuses_the_whole_block():
    # line 2 would pin-fault in the one 2-way L1 set held by pinned dirty
    # lines 0 and 1, but the block also names a line past the address
    # space, so it raises the ValueError and changes nothing
    sim = CacheSim(TINY)
    sim.open_txn()
    sim.prefetch([range(2)], "write")
    past = TINY.address_space // 64
    assert_refused(sim, lambda: sim.prefetch([range(2, 3), range(past, past + 1)],
                                             "write"), past * 64)
    assert_refused(sim,
                   lambda: sim.access_runs(((past * 64 - 64, 9),), "write"),
                   past * 64)
    with pytest.raises(PinViolationError):
        sim.prefetch([range(2, 3)], "write")

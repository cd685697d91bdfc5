"""Cache hierarchy tests.

The core oracle is a hand-simulated state table for a 1-set geometry,
worked out on paper before the simulator existed: every step lists the
expected lookup result and exactly which events it appends.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import per_line_commit, per_line_prefetch, per_word_access

from oblishuffle.cache import (
    KIND_MISS,
    KIND_WRITEBACK,
    AccessCounters,
    CacheConfig,
    CacheSim,
    PinViolationError,
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
        sim.check_invariants()
    # line 3 is the only dirty line left
    sim.flush_all()
    assert sim.trace[-1] == wb(3)
    assert sim.trace == [
        miss(0), miss(1), wb(0), miss(2), wb(1), miss(3), miss(4), wb(3),
    ]
    assert sim.line_state(3, "llc") is None  # flush empties the cache


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
    assert sim.line_state(0, "l1") is None
    assert sim.line_state(0, "llc") is None


def test_flush_orders_write_backs_ascending():
    cfg = CacheConfig(line_size=64, l1_sets=16, l1_ways=2, llc_sets=16, llc_ways=4)
    sim = CacheSim(cfg)
    for line in (9, 3, 7):
        sim.access(line * 64, "write")
    sim.reset_trace()
    sim.flush_all()
    assert sim.trace == [wb(3), wb(7), wb(9)]


def test_flush_empty_cache_is_silent():
    sim = CacheSim(TINY)
    sim.flush_all()
    assert sim.trace == []


def test_flush_single_dirty_line():
    sim = CacheSim(TINY)
    sim.access(5 * 64, "write")
    sim.reset_trace()
    sim.flush_all()
    assert sim.trace == [wb(5)]


def test_clean_lines_flush_silently():
    sim = CacheSim(TINY)
    sim.access(0, "read")
    sim.access(64, "read")
    sim.reset_trace()
    sim.flush_all()
    assert sim.trace == []


# -- pinning ----------------------------------------------------------------


def test_llc_set_of_pinned_lines_rejects_install():
    cfg = CacheConfig(line_size=64, l1_sets=1, l1_ways=1, llc_sets=1, llc_ways=2)
    sim = CacheSim(cfg)
    sim.access(0, "read", pin=True)
    sim.access(64, "read", pin=True)
    before = list(sim.trace)
    with pytest.raises(PinViolationError) as exc:
        sim.access(128, "read")
    assert exc.value.level == "llc"
    assert exc.value.line_address == 2
    # the rejected access changed nothing
    assert sim.trace == before
    assert sim.line_state(0, "llc") == (False, True)
    assert sim.line_state(1, "llc") == (False, True)
    sim.check_invariants()


def test_write_blocked_by_pinned_dirty_l1_set():
    sim = CacheSim(TINY)
    sim.access(0, "write", pin=True)
    sim.access(64, "write", pin=True)
    with pytest.raises(PinViolationError) as exc:
        sim.access(128, "write")
    assert exc.value.level == "l1"
    assert exc.value.line_address == 2


def test_read_falls_back_to_llc_when_l1_is_pinned_dirty():
    sim = CacheSim(TINY)
    sim.access(0, "write", pin=True)
    sim.access(64, "write", pin=True)
    before = len(sim.trace)
    assert sim.access(128, "read") == "llc-miss"
    assert sim.trace[before:] == [miss(2)]
    assert sim.line_state(2, "l1") is None
    assert sim.line_state(2, "llc") == (False, False)
    # next touch is served by the LLC, not L1
    assert sim.access(128, "read") == "llc-hit"
    sim.check_invariants()


def test_pinned_clean_line_demotes_silently_and_stays_pinned_in_llc():
    sim = CacheSim(TINY)
    sim.access(0, "read", pin=True)
    sim.access(64, "read", pin=True)
    before = len(sim.trace)
    sim.access(128, "read")  # evicts a pinned clean line from L1
    assert [e for e in sim.trace[before:] if e.kind == KIND_WRITEBACK] == []
    demoted = [l for l in (0, 1) if sim.line_state(l, "l1") is None]
    assert len(demoted) == 1
    assert sim.line_state(demoted[0], "llc") == (False, True)


@pytest.mark.parametrize("block", [False, True])
def test_rejected_pinned_write_is_counted_but_changes_nothing_else(block):
    # a third pinned dirty line has no home in the one 2-way L1 set: the
    # fault comes after the access was counted, so total reads 3 against
    # 2 misses, and before any entry, its LRU place or an event changed
    sim = CacheSim(TINY)
    sim.access(0, "write", pin=True)
    sim.access(64, "write", pin=True)
    before = [list(s.items()) for s in sim._l1 + sim._llc]
    with pytest.raises(PinViolationError) as exc:
        if block:
            sim.prefetch([2], "write")
        else:
            sim.access(128, "write", pin=True)
    assert exc.value.line_address == 2
    assert sim.counters == AccessCounters(total=3, l1_hits=0, llc_hits=0,
                                          llc_misses=2)
    assert sim.trace == [miss(0), miss(1)]
    assert [list(s.items()) for s in sim._l1 + sim._llc] == before


def test_unpin_then_evictable():
    cfg = CacheConfig(line_size=64, l1_sets=1, l1_ways=1, llc_sets=1, llc_ways=2)
    sim = CacheSim(cfg)
    sim.access(0, "read", pin=True)
    sim.access(64, "read", pin=True)
    sim.unpin_lines([0, 1])
    sim.access(128, "read")  # now fine
    sim.check_invariants()


def test_writeback_line_cleans_and_keeps_resident():
    sim = CacheSim(TINY)
    sim.access(0, "write")
    sim.reset_trace()
    assert sim.writeback_line(0) is True
    assert sim.trace == [wb(0)]
    assert sim.line_state(0, "l1") == (False, False)
    assert sim.writeback_line(0) is False  # already clean
    assert sim.writeback_line(99) is False  # absent
    assert sim.trace == [wb(0)]


def test_invalidate_discards_dirty_data_silently():
    sim = CacheSim(TINY)
    sim.write_word(0, 7)
    sim.reset_trace()
    sim.invalidate_lines([0])
    assert sim.trace == []
    assert sim.line_state(0, "llc") is None
    # memory keeps whatever was poked through write_word; the caller of
    # invalidate owns restoring it
    assert sim.peek_word(0) == 7


# -- memory ------------------------------------------------------------------


def test_unwritten_words_read_zero():
    sim = CacheSim(TINY)
    assert sim.read_word(64) == 0
    assert sim.peek_word(512) == 0


def test_read_write_word_roundtrip():
    sim = CacheSim(TINY)
    sim.write_word(8, 12345)
    assert sim.read_word(8) == 12345


def test_poke_peek_do_not_touch_the_trace():
    sim = CacheSim(TINY)
    sim.poke_words(0, [1, 2, 3])
    assert sim.peek_words(0, 3) == [1, 2, 3]
    assert sim.trace == []
    assert sim.line_state(0, "llc") is None


def test_word_blocks_check_their_last_word_before_storing():
    cfg = CacheConfig(line_size=64, l1_sets=1, l1_ways=1, llc_sets=1,
                      llc_ways=1, address_space=64)
    sim = CacheSim(cfg)
    # words 7..10 of a space that ends after word 7
    with pytest.raises(ValueError, match="out of range"):
        sim.poke_words(56, [1, 2, 3, 4])
    assert sim.memory == {}
    with pytest.raises(ValueError, match="out of range"):
        sim.peek_words(48, 3)
    sim.poke_words(48, [1, 2])
    assert sim.peek_words(48, 2) == [1, 2]
    assert sim.peek_words(0, 8) == [0] * 6 + [1, 2]
    assert sim.peek_words(56, 0) == []


def test_misaligned_word_rejected():
    sim = CacheSim(TINY)
    with pytest.raises(ValueError):
        sim.read_word(4)
    with pytest.raises(ValueError):
        sim.poke_word(3, 1)


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
        assert sim.line_state(line, "l1") is not None
    # line 4 maps to the set of line 0 and evicts it
    sim.access(4 * 64, "read")
    assert sim.line_state(0, "l1") is None
    assert sim.line_state(4, "l1") is not None
    sim.check_invariants()


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
    sim.reset_trace()
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


def test_config_rejects_l1_larger_than_llc():
    with pytest.raises(ValueError):
        CacheConfig(l1_sets=64, l1_ways=8, llc_sets=1, llc_ways=1)


# -- properties -------------------------------------------------------------------


@st.composite
def access_sequences(draw):
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
        for line, kind, pin in seq:
            try:
                sim.access(line * 64, kind, pin)
            except PinViolationError:
                pass
    assert a.trace == b.trace
    assert a.counters == b.counters


@given(access_sequences())
@settings(max_examples=120, deadline=None)
def test_structure_holds_under_arbitrary_traffic(seq):
    cfg = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=2, llc_ways=6)
    sim = CacheSim(cfg)
    for line, kind, pin in seq:
        before = len(sim.trace)
        try:
            r = sim.access(line * 64, kind, pin)
        except PinViolationError:
            assert len(sim.trace) == before  # rejected accesses are silent
            continue
        if r in ("l1-hit", "llc-hit"):
            # hits never emit miss-read events (write-backs may still
            # happen when an L1 install demotes a dirty line)
            assert all(e.kind != KIND_MISS for e in sim.trace[before:])
        sim.check_invariants()


@given(access_sequences())
@settings(max_examples=80, deadline=None)
def test_miss_events_match_miss_results(seq):
    cfg = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=4, llc_ways=2)
    sim = CacheSim(cfg)
    misses = 0
    for line, kind, pin in seq:
        try:
            if sim.access(line * 64, kind, pin) == "llc-miss":
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
        [list(s.items()) for s in sim._llc],
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
    # pinned, dirty and clean lines from ordinary accesses
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
            steps.append(("prefetch", draw(st.lists(line, max_size=8)),
                          draw(st.sampled_from(["read", "write"]))))
        else:
            steps.append(("commit", draw(st.lists(line, max_size=6)),
                          draw(st.lists(line, max_size=8))))
    return config, pre, steps


@settings(max_examples=300, deadline=None)
@given(block_programs())
def test_block_calls_match_the_per_line_loops(program):
    config, pre, steps = program
    fast, ref = CacheSim(config), CacheSim(config)
    for sim in (fast, ref):
        for line, kind, pin in pre:
            outcome(lambda: sim.access(line * 64, kind, pin))
    assert sim_state(fast) == sim_state(ref)
    for step, a, b in steps:
        bad = first_out_of_range([line * 64 for line in a], config.address_space)
        if step == "prefetch" and bad is not None:
            # invalid input changes nothing; the reference takes no step
            assert_refused(fast, lambda: fast.prefetch(a, b), bad)
        elif step == "prefetch":
            assert outcome(lambda: fast.prefetch(a, b)) == outcome(
                lambda: per_line_prefetch(ref, a, b))
        else:
            assert outcome(lambda: fast.commit_lines(a, b)) == outcome(
                lambda: per_line_commit(ref, a, b))
        assert sim_state(fast) == sim_state(ref)
        fast.check_invariants()


def test_prefetch_rejects_a_bad_kind_before_any_line():
    sim = CacheSim(TINY)
    with pytest.raises(ValueError, match="bad access kind"):
        sim.prefetch([0, 1], "fetch")
    assert sim_state(sim) == sim_state(CacheSim(TINY))


def test_commit_lines_writes_back_in_order_then_unpins():
    sim = CacheSim(TINY)
    sim.prefetch([0, 1], "write")
    sim.prefetch([2], "read")
    assert sim.commit_lines([1, 0, 1], [0, 1, 2]) == 2
    assert sim.trace[-2:] == [wb(1), wb(0)]
    for line in (0, 1, 2):
        assert sim.line_state(line, "llc") == (False, False)


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
    # pinned, dirty and clean lines from ordinary accesses
    pre = draw(st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from(["read", "write"]),
                  st.booleans()),
        max_size=16,
    ))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        # mostly word-aligned; some runs reach past the address space or
        # start outside it
        addr = draw(st.one_of(st.integers(0, space // 8 - 1).map(lambda w: 8 * w),
                              st.integers(-16, space + 76)))
        runs.append((addr, draw(st.integers(0, 30)),
                     draw(st.sampled_from(["read", "write"])), draw(st.booleans())))
    return config, pre, runs


def per_word_run(sim, addr, count, kind, pin):
    for i in range(count):
        per_word_access(sim, addr + 8 * i, kind, pin)


@settings(max_examples=300, deadline=None)
@given(run_programs())
def test_access_run_matches_per_word_accesses(program):
    config, pre, runs = program
    fast, ref = CacheSim(config), CacheSim(config)
    for sim in (fast, ref):
        for line, kind, pin in pre:
            outcome(lambda: sim.access(line * config.line_size, kind, pin))
    for addr, count, kind, pin in runs:
        bad = first_out_of_range(range(addr, addr + 8 * count, 8), config.address_space)
        if bad is not None:
            # invalid input changes nothing; the reference takes no step
            assert_refused(fast, lambda: fast.access_run(addr, count, kind, pin), bad)
        else:
            assert outcome(lambda: fast.access_run(addr, count, kind, pin)) == outcome(
                lambda: per_word_run(ref, addr, count, kind, pin))
        assert sim_state(fast) == sim_state(ref)
        fast.check_invariants()


def test_access_run_stops_at_a_pin_fault_mid_run():
    # line 0 holds pinned dirty data in the one 2-way L1 set; the run's
    # three words on line 1 pin it dirty too, so its first word on line 2
    # faults
    sim, ref = CacheSim(TINY), CacheSim(TINY)
    for s in (sim, ref):
        s.access(0, "write", pin=True)
    with pytest.raises(PinViolationError) as info:
        sim.access_run(64 + 40, 6, "write", pin=True)
    with pytest.raises(PinViolationError):
        per_word_run(ref, 64 + 40, 6, "write", True)
    assert (info.value.line_address, info.value.level) == (2, "l1")
    assert sim_state(sim) == sim_state(ref)
    assert (sim.counters.total, sim.counters.l1_hits) == (1 + 3 + 1, 2)


def test_access_run_past_the_address_space_changes_nothing():
    sim = CacheSim(TINY)
    space = TINY.address_space
    # the message names the first word at or past the limit
    assert_refused(sim, lambda: sim.access_run(space - 16, 4, "read"), space)
    assert_refused(sim, lambda: sim.access_run(space - 23, 4, "read"), space + 1)
    assert_refused(sim, lambda: sim.access_run(-8, 2, "write"), -8)
    assert sim_state(sim) == sim_state(CacheSim(TINY))
    # misaligned, the run's last word starts below the limit and is in
    # range even though the run's end is past it
    sim.access_run(space - 23, 3, "read")
    assert sim.counters.total == 3


def test_invalid_line_after_a_pin_fault_refuses_the_whole_block():
    # line 2 would pin-fault in the one 2-way L1 set held by pinned dirty
    # lines 0 and 1, but the block also names a line past the address
    # space, so it raises the ValueError and changes nothing
    sim = CacheSim(TINY)
    sim.prefetch([0, 1], "write")
    past = TINY.address_space // 64
    assert_refused(sim, lambda: sim.prefetch([2, past], "write"), past * 64)
    assert_refused(sim, lambda: sim.access_run(past * 64 - 64, 9, "write", True),
                   past * 64)
    with pytest.raises(PinViolationError):
        sim.prefetch([2], "write")

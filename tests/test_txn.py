"""Transaction layer tests.

Exact traces are asserted against hand-worked expectations on small
geometries; the abort-transparency property compares a run with forced
interrupts against an undisturbed twin.
"""

import copy
import dataclasses
import gc
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    ScanAccessProbability,
    SetDeclaration,
    check_invariants,
    declared_lines,
    line_state,
    line_tuples,
    lru_entries,
    memory_contents,
    peek_word,
    per_line_commit,
    per_line_prefetch,
    per_word_first_fire,
    per_word_read,
    per_word_write,
    pinned_lines,
    poke_word,
    read_run,
    write_run,
    write_runs,
)

from oblishuffle.cache import (
    KIND_MISS,
    KIND_WRITEBACK,
    PAGE_BYTES,
    PAGE_WORDS,
    READ,
    WRITE,
    AccessCounters,
    CacheConfig,
    CacheSim,
    TraceEvent,
    line_steps,
)
from oblishuffle.txn import (
    AccessProbability,
    BodyAbortError,
    CapacityError,
    HitGuaranteeError,
    NestedTxnError,
    RetryCapExceededError,
    RunList,
    TxnContext,
    TxnDeclaration,
    UndeclaredAccessError,
    _Interrupted,
    _walk,
    run_txn,
)
from oblishuffle import txn as txn_module

# two-way L1 so three same-set dirty lines cannot coexist
SMALL = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=2, llc_ways=8)
ONE_SET = CacheConfig(line_size=64, l1_sets=1, l1_ways=4, llc_sets=1, llc_ways=8)


def miss(line):
    return TraceEvent(KIND_MISS, line)


def wb(line):
    return TraceEvent(KIND_WRITEBACK, line)


def addr_of(line, word=0):
    return line * 64 + word * 8


# -- declaration normalization ----------------------------------------------


def test_ranges_normalize_to_lines():
    decl = TxnDeclaration.of(reads=[(10, 4)])
    assert line_tuples(decl)[0] == (0,)
    assert line_tuples(TxnDeclaration.of(reads=[(60, 8)]))[0] == (0, 1)


def test_write_lines_absorb_overlapping_reads():
    decl = TxnDeclaration.of(reads=[(0, 128)], writes=[(64, 64)])
    assert line_tuples(decl) == ((0,), (1,))
    assert decl.footprint_bytes() == 128
    assert decl.write_bytes() == 64


@pytest.mark.parametrize("bad", [(0, 0), (0, -8), (-64, 64)])
def test_bad_ranges_rejected(bad):
    with pytest.raises(ValueError):
        TxnDeclaration.of(reads=[bad])


@st.composite
def byte_ranges(draw, line_size):
    """A range over the first few lines: its start and size either whole
    lines or any byte count, so ranges overlap, touch and straddle line
    edges; about one in twenty is invalid (a size of at most 0 or a
    negative start)."""
    def bytes_(lines):
        if draw(st.booleans()):
            return draw(st.integers(0, lines)) * line_size
        return draw(st.integers(0, lines * line_size))
    start, size = bytes_(6), bytes_(3) or 1
    bad = draw(st.integers(0, 19))
    if bad == 0:
        size = draw(st.integers(-2 * line_size, 0))
    elif bad == 1:
        start = draw(st.integers(-2 * line_size, -1))
    return start, size


@st.composite
def declarations(draw):
    line_size = draw(st.sampled_from([8, 16, 32, 64, 128]))
    side = st.lists(byte_ranges(line_size), max_size=6)
    return draw(side), draw(side), line_size


def outcome(make):
    """What ``make`` returned, or the ValueError message it raised."""
    try:
        return make()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=600, deadline=None)
@given(declarations())
def test_line_spans_match_the_set_rule(case):
    reads, writes, line_size = case
    ref = outcome(lambda: SetDeclaration(reads, writes, line_size))
    decl = outcome(lambda: TxnDeclaration.of(reads, writes, line_size))
    if isinstance(ref, str):
        assert decl == ref
        return
    assert line_tuples(decl) == (ref.read_lines, ref.write_lines)
    # every declared line, ascending, with no two neighbouring spans
    # touching
    assert list(chain(*decl.spans)) == sorted(ref.read_lines + ref.write_lines)
    assert all(a.stop < b.start for a, b in zip(decl.spans, decl.spans[1:]))
    assert decl.footprint_bytes() == ref.footprint_bytes()
    assert decl.write_bytes() == ref.write_bytes()
    for spans in (decl.read_spans, decl.write_spans):
        # ascending and disjoint, with a gap between neighbours
        assert all(a.stop < b.start for a, b in zip(spans, spans[1:]))
        assert all(len(span) for span in spans)

    # the address-space check reads only the spans: the first line the
    # prefetch would reach past the space, reads, then writes
    space = 4 * line_size
    config = CacheConfig(line_size, 1, 64, 1, 64, space)
    past = [line for line in ref.read_lines + ref.write_lines
            if line * line_size >= space]
    want = f"ValueError: address {past[0] * line_size} out of range" if past else 1
    got = outcome(lambda: run_txn(CacheSim(config), decl).attempts)
    assert got == want


@st.composite
def checked_runs(draw):
    """A valid declaration of ``declarations``, a kind, and a list of one
    to three runs over its lines and a little past them: a start at any
    byte from one line below zero, so some are misaligned or negative,
    and a count from -1 up."""
    reads, writes, line_size = draw(declarations())
    decl = outcome(lambda: TxnDeclaration.of(reads, writes, line_size))
    assume(not isinstance(decl, str))

    def run():
        addr = draw(st.integers(-line_size, 10 * line_size))
        if draw(st.booleans()):
            addr -= addr % 8
        return addr, draw(st.integers(-1, 3 * line_size // 8 + 2))
    runs = [run() for _ in range(draw(st.integers(1, 3)))]
    return decl, draw(st.sampled_from("rw")), runs


@settings(max_examples=500, deadline=None)
@given(checked_runs())
def test_span_check_matches_the_line_set_rule(case):
    # the body's check bisects the declared spans; the oracle checks
    # each word's line against the frozenset of declared lines
    decl, kind, runs = case
    line_size = decl.line_size
    config = CacheConfig(line_size, 1, 64, 1, 64, 1 << 16)
    ctx = TxnContext(CacheSim(config), decl, None, prefetched=True)
    want = next((e for e in (invalid_input(ctx, kind, a, c) for a, c in runs)
                 if e is not None), None)
    # a prebuilt list is refused as it is built, with the same error, and
    # so is a list checked again without building its steps
    access = READ if kind == "r" else WRITE
    for call in (lambda: ctx._run(runs, READ) if kind == "r"
                 else ctx._run(runs, WRITE, [[7] * max(c, 0) for _, c in runs]),
                 lambda: RunList.build(decl, runs, access),
                 lambda: _walk(decl, runs, access, False)):
        try:
            result = call()
            got = None
        except (UndeclaredAccessError, ValueError) as exc:
            got = exc
        assert type(got) is type(want)
        if isinstance(want, UndeclaredAccessError):
            assert (got.addr, got.kind) == (want.addr, want.kind)
        else:
            assert str(got) == str(want)
    if want is None:  # the check alone counts the words and builds no step
        assert result == ([], sum(max(c, 0) for _, c in runs))


# a list declared by WIDE, whose runs leave NARROW (line 1 unread, line
# 3 unwritten), and one misaligned on a declared line
WIDE = TxnDeclaration.of(reads=[(0, 128)], writes=[(128, 128)])
NARROW = TxnDeclaration.of(reads=[(0, 64)], writes=[(128, 64)])
BAD_LISTS = {
    "read-leaves": ([(addr_of(0, 4), 8)], READ, UndeclaredAccessError, addr_of(1)),
    "write-leaves": ([(addr_of(2, 7), 2)], WRITE, UndeclaredAccessError, addr_of(3)),
    "misaligned": ([(addr_of(0, 1) + 4, 2)], READ, ValueError, None),
}


@pytest.mark.parametrize("case", BAD_LISTS)
def test_a_bad_run_list_is_refused_as_it_is_built(case):
    # the error the body's per-call path raises, before any input exists
    runs, kind, error, addr = BAD_LISTS[case]
    ctx = TxnContext(CacheSim(SMALL), NARROW, None, prefetched=True)
    values = None if kind == READ else [[1] * count for _, count in runs]
    with pytest.raises(error) as by_call:
        ctx._run(runs, kind, values)
    with pytest.raises(error) as built:
        RunList.build(NARROW, runs, kind)
    assert str(built.value) == str(by_call.value)
    if addr is not None:
        assert (built.value.addr, built.value.kind) == (addr, kind)


@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("case", ["read-leaves", "write-leaves"])
def test_a_list_of_another_declaration_is_walked_before_any_access(case, prefetch):
    # built against WIDE, the list runs under WIDE; under NARROW it is
    # walked again and refused before the model is consulted or anything
    # changes
    runs, kind, error, addr = BAD_LISTS[case]
    rl = RunList.build(WIDE, runs, kind)
    for decl in (WIDE, NARROW):
        sim = CacheSim(SMALL)
        model = FireOnConsultation([])
        seen = []

        def body(ctx):
            before = context_state(ctx)
            try:
                if kind == READ:
                    ctx.read_list(rl)
                else:
                    ctx.write_list(rl, [[5, 6]])
            except UndeclaredAccessError as exc:
                seen.append(exc.addr)
                assert context_state(ctx) == before
                raise

        if decl is WIDE:
            assert run_txn(sim, decl, body, model, prefetch=prefetch).committed
            assert model.consultations == rl.total
            continue
        with pytest.raises(error):
            run_txn(sim, decl, body, model, prefetch=prefetch)
        assert seen == [addr] and model.consultations == 0


def test_values_that_do_not_fit_a_write_list_are_refused():
    rl = RunList.build(WIDE, [(addr_of(2), 3), (addr_of(3, 1), 2)], WRITE)
    for values in ([[1, 2, 3]], [[1, 2, 3], [4]], [[1, 2, 3], [4, 5, 6]]):
        sim = CacheSim(SMALL)
        ctx = TxnContext(sim, WIDE, None, prefetched=True)
        before = context_state(ctx)
        with pytest.raises(ValueError, match=r"runs of \[3, 2\]"):
            ctx.write_list(rl, values)
        assert context_state(ctx) == before


def test_lists_that_share_runs_share_their_steps():
    # the same runs walked against another declaration keep their steps;
    # at another line size they are walked afresh
    rl = RunList.build(WIDE, [(addr_of(0, 3), 10)], READ)
    assert rl.against(WIDE, READ) is rl
    other = rl.against(NARROW.with_reads([(0, 128)]), READ)
    assert list(other.steps) == list(rl.steps)
    assert other.words is rl.words and other.decl is not rl.decl
    small = rl.against(TxnDeclaration.of(reads=[(0, 128)], line_size=32), READ)
    assert list(small.steps) == [(0, 1), (1, 4), (2, 4), (3, 1)]


def test_a_read_on_into_a_write_line_is_declared():
    # the read spans leave out the write lines, so a read running on from
    # line 0 into the written line 1 is checked against every declared
    # line; into an undeclared line it is still refused at its first word
    decl = TxnDeclaration.of(reads=[(0, 64)], writes=[(64, 64)])
    rl = RunList.build(decl, [(addr_of(0, 6), 4)], READ)
    assert (list(rl.steps), rl.total) == ([(0, 2), (1, 2)], 4)
    with pytest.raises(UndeclaredAccessError) as info:
        RunList.build(NARROW, [(addr_of(0, 6), 4)], READ)
    assert info.value.addr == addr_of(1)


def test_a_write_list_is_walked_again_only_against_other_write_spans(monkeypatch):
    # equal write spans check a write list as its own did; other ones
    # walk it, and refuse a run that leaves them
    rl = RunList.build(WIDE, [(addr_of(2, 7), 2)], WRITE)
    walks = []
    monkeypatch.setattr(txn_module, "line_steps",
                        lambda *args: walks.append(args) or line_steps(*args))
    same = TxnDeclaration.of(reads=[(addr_of(5), 64)], writes=WIDE.write_ranges)
    assert rl.against(same, WRITE).words is rl.words and walks == []
    with pytest.raises(UndeclaredAccessError) as info:
        rl.against(NARROW, WRITE)
    assert info.value.addr == addr_of(3) and len(walks) == 1


def test_with_reads_is_the_declaration_of_those_reads():
    decl = NARROW.with_reads([(addr_of(4), 64), (0, 192)])
    want = TxnDeclaration.of([(addr_of(4), 64), (0, 192)], NARROW.write_ranges)
    assert decl == want and hash(decl) == hash(want)
    assert (decl.read_spans, decl.write_spans, decl.spans) == (
        want.read_spans, want.write_spans, want.spans)
    assert decl.write_spans is NARROW.write_spans
    with pytest.raises(ValueError):
        NARROW.with_reads([(0, 0)])


# what a declaration builds on first use
BUILT = {"spans"}


@pytest.mark.parametrize("side,level", [("reads", "llc"), ("writes", "l1")])
def test_refused_declaration_builds_no_line_list(side, level):
    # 2**34 lines: a set or tuple of them would not fit in memory
    decl = TxnDeclaration.of(**{side: [(0, 1 << 40)]})
    sim = CacheSim()
    before = (list(sim.trace), copy.copy(sim.counters))
    with pytest.raises(CapacityError) as exc_info:
        run_txn(sim, decl)
    assert exc_info.value.level == level
    assert exc_info.value.need == 1 << 40
    assert exc_info.value.stats.ac3 == 1
    assert (list(sim.trace), sim.counters) == before
    assert not sim.txn_open
    assert not BUILT & vars(decl).keys()


def test_committed_prefetched_declaration_builds_no_list_of_all_lines():
    # a side of one span is prefetched and committed as its range, and
    # the pins end with the epoch, so no line tuple is built
    decl = TxnDeclaration.of(reads=[(0, 128)], writes=[(128, 128)])
    assert run_txn(CacheSim(SMALL), decl).committed
    assert BUILT & vars(decl).keys() == set()


def test_a_side_of_two_spans_is_prefetched_as_its_lines():
    decl = TxnDeclaration.of(reads=[(0, 64), (192, 64)], writes=[(64, 64)])
    sim = CacheSim(SMALL)
    assert run_txn(sim, decl).committed
    assert BUILT & vars(decl).keys() == set()
    assert sim.trace == [miss(0), miss(3), miss(1), wb(1)]


def test_declaration_line_size_must_match_cache():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(writes=[(0, 32)], line_size=32)
    with pytest.raises(ValueError):
        run_txn(sim, decl)


# -- trivial commits ---------------------------------------------------------


def test_cold_four_line_txn_commits_first_try():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(reads=[(0, 128)], writes=[(128, 128)])
    stats = run_txn(sim, decl, interrupt_model=None)
    assert stats.attempts == 1
    assert (stats.ac2, stats.ac3, stats.ac4) == (0, 0, 0)
    assert stats.prefetch_events == 4
    assert stats.body_events == 0
    assert stats.committed
    # prefetch ascends reads then writes; commit writes back dirty lines
    assert sim.trace == [miss(0), miss(1), miss(2), miss(3), wb(2), wb(3)]


def test_warm_prefetch_emits_nothing():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(reads=[(0, 128)], writes=[(128, 128)])
    run_txn(sim, decl)
    before = len(sim.trace)
    stats = run_txn(sim, decl)
    assert stats.prefetch_events == 0
    assert sim.trace[before:] == [wb(2), wb(3)]


def test_empty_declaration_commits_silently():
    sim = CacheSim(SMALL)
    stats = run_txn(sim, TxnDeclaration.of())
    assert stats.committed and stats.attempts == 1
    assert sim.trace == []


def test_committed_lines_are_unpinned_and_clean():
    sim = CacheSim(SMALL)
    run_txn(sim, TxnDeclaration.of(reads=[(0, 64)], writes=[(64, 64)]))
    assert line_state(sim, 0, "l1") == (False, False)
    assert line_state(sim, 1, "l1") == (False, False)
    assert line_state(sim, 1, "llc") == (False, False)


def test_pins_of_a_committed_transaction_do_not_return_in_the_next():
    # one LLC set of two ways, which the first transaction fills: the
    # second one's line must evict one of the first's, whose pins ended
    # with its epoch
    config = CacheConfig(line_size=64, l1_sets=1, l1_ways=1, llc_sets=1, llc_ways=2)
    sim = CacheSim(config)
    run_txn(sim, TxnDeclaration.of(reads=[(0, 128)]))
    stats = run_txn(sim, TxnDeclaration.of(reads=[(addr_of(2), 64)]), retry_cap=2)
    assert (stats.committed, stats.ac2) == (True, 0)
    assert line_state(sim, 0, "llc") is None
    check_invariants(sim)


# how a pin-scope transaction ends: the consultations that fire, counted
# across attempts (an attempt makes five or six), the retry cap and
# whether the body aborts
PIN_SCOPE_ENDINGS = {
    "commit": ((), 4, False),
    "rollback-then-commit": ((4,), 4, False),
    "body-abort": ((), 4, True),
    "retry-cap": ((4, 8), 2, False),
}


@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("ending", sorted(PIN_SCOPE_ENDINGS))
def test_pins_end_with_their_transaction(ending, prefetch):
    fire_on, cap, abort = PIN_SCOPE_ENDINGS[ending]
    sim = CacheSim(SMALL)
    # with no transaction open nothing pins: line 6 by an access (L1 set
    # 0, dirty) and line 7 by a prefetch (L1 set 1), which the
    # transaction declares too
    sim.access(addr_of(6), "write")
    sim.prefetch([range(7, 8)], "read")
    assert pinned_lines(sim, (6, 7)) == []
    decl = TxnDeclaration.of(reads=[(0, 64), (addr_of(2), 64), (addr_of(7), 64)],
                             writes=[(addr_of(3), 64)])

    def body(ctx):
        ctx.read(addr_of(0))
        ctx.read(addr_of(2))
        read_run(ctx, addr_of(7), 2)
        ctx.write(addr_of(3), 1)
        ctx.tick()
        if abort:
            raise BodyAbortError()

    try:
        stats = run_txn(sim, decl, body, FireOnConsultation(fire_on),
                        prefetch=prefetch, retry_cap=cap)
    except (BodyAbortError, RetryCapExceededError) as exc:
        stats = exc.stats
    assert stats.committed == ending.endswith("commit")
    assert stats.attempts == (2 if fire_on else 1)
    assert not sim.txn_open
    assert pinned_lines(sim, (0, 2, 3, 6, 7)) == []
    check_invariants(sim)


# -- eviction aborts (pinned set conflict) -----------------------------------


def test_three_write_lines_in_one_set_storm_until_retry_cap():
    # lines 0, 2, 4 all map to L1 set 0; two ways cannot hold three
    # pinned dirty lines, so the third prefetch touch faults every attempt
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(writes=[(0, 64), (128, 64), (256, 64)])
    with pytest.raises(RetryCapExceededError) as exc_info:
        run_txn(sim, decl, retry_cap=6)
    stats = exc_info.value.stats
    assert stats.attempts == 6
    assert stats.ac2 == 6
    assert stats.last_fault_line == 4
    assert not stats.committed
    assert sim.trace == [miss(0), miss(2)] * 6
    assert stats.prefetch_events == 12
    # rollback left nothing resident or pinned
    for line in (0, 2, 4):
        assert line_state(sim, line, "llc") is None
    assert not sim.txn_open
    check_invariants(sim)
    # and the simulator still runs clean transactions afterwards
    assert run_txn(sim, TxnDeclaration.of(writes=[(0, 64)])).committed


@pytest.mark.parametrize(
    "reads, writes",
    [
        # lines 0, 2, 4 share L1 set 0 and overflow its two ways, though
        # three lines fit the four-line L1: the third write faults mid-block
        ([1, 3, 5], [0, 2, 4]),
        ([1, 6], [0, 2, 3, 4]),
        # and a footprint that commits, for the commit block
        ([0, 1, 5, 9], [2, 3]),
    ],
)
def test_block_prefetch_and_commit_match_per_line_reference(monkeypatch, reads, writes):
    decl = TxnDeclaration.of(
        reads=[(addr_of(line), 64) for line in reads],
        writes=[(addr_of(line), 64) for line in writes],
    )

    def run():
        sim = CacheSim(SMALL)
        sim.access(addr_of(7), "write")  # a dirty line the prefetch may evict
        sim.access(addr_of(2), "read")  # and a resident line it hits
        try:
            stats = run_txn(sim, decl, retry_cap=5)
        except RetryCapExceededError as exc:
            stats = exc.stats
        return stats, sim.trace, sim.counters, lru_entries(sim)

    fast = run()
    with monkeypatch.context() as m:
        m.setattr(CacheSim, "prefetch", per_line_prefetch)
        m.setattr(CacheSim, "commit_lines", per_line_commit)
        ref = run()
    assert fast == ref
    stats = fast[0]
    if stats.committed:
        assert (stats.attempts, stats.ac2) == (1, 0)
    else:
        assert (stats.attempts, stats.ac2, stats.last_fault_line) == (5, 5, 4)
        assert stats.prefetch_events > 0


def test_body_eviction_abort_restores_memory():
    sim = CacheSim(SMALL)
    poke_word(sim, addr_of(0), 5)
    poke_word(sim, addr_of(2), 6)
    poke_word(sim, addr_of(4), 7)
    decl = TxnDeclaration.of(writes=[(0, 64), (128, 64), (256, 64)])

    def body(ctx):
        ctx.write(addr_of(0), 99)
        ctx.write(addr_of(0, 1), 123)  # word that did not exist before
        ctx.write(addr_of(2), 88)
        ctx.write(addr_of(4), 77)  # third dirty pin in set 0: faults

    with pytest.raises(RetryCapExceededError) as exc_info:
        run_txn(sim, decl, body, prefetch=False, retry_cap=4)
    stats = exc_info.value.stats
    assert (stats.attempts, stats.ac2, stats.last_fault_line) == (4, 4, 4)
    assert peek_word(sim, addr_of(0)) == 5
    assert peek_word(sim, addr_of(0, 1)) == 0
    assert peek_word(sim, addr_of(2)) == 6
    assert peek_word(sim, addr_of(4)) == 7
    assert sim.trace == [miss(0), miss(2)] * 4


# -- interrupt aborts --------------------------------------------------------


class FireOnConsultation:
    """Fires on the listed consultations (1-based)."""

    def __init__(self, fire_on):
        self.fire_on = frozenset(fire_on)
        self.consultations = 0

    def first_fire(self, count):
        for i in range(count):
            self.consultations += 1
            if self.consultations in self.fire_on:
                return i
        return None


def tick(ctx):
    """A body that consults the interrupt model once and touches nothing."""
    ctx.tick()


def test_fixed_schedule_two_interrupts():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(reads=[(0, 128)], writes=[(128, 128)])
    stats = run_txn(sim, decl, tick, interrupt_model=FireOnConsultation([1, 2]))
    assert stats.attempts == 3
    assert stats.ac4 == 2
    assert stats.committed
    # each attempt re-prefetches from a cold state after rollback
    block = [miss(0), miss(1), miss(2), miss(3)]
    assert sim.trace == block * 3 + [wb(2), wb(3)]
    assert stats.prefetch_events == 12
    assert stats.trace_body_start == 12


def test_interrupt_storm_hits_retry_cap():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(writes=[(0, 64)])
    with pytest.raises(RetryCapExceededError) as exc_info:
        run_txn(
            sim, decl, tick, interrupt_model=FireOnConsultation(range(1, 100)),
            retry_cap=5,
        )
    stats = exc_info.value.stats
    assert (stats.attempts, stats.ac4) == (5, 5)


def test_access_probability_is_deterministic_per_seed():
    def round_trip():
        model = AccessProbability(0.02, seed=7)
        sim = CacheSim(SMALL)
        decl = TxnDeclaration.of(writes=[(0, 64)])

        def body(ctx):
            for _ in range(200):
                ctx.tick()

        counts = []
        for _ in range(10):
            counts.append(run_txn(sim, decl, body, model).attempts)
        return counts, model.consultations

    assert round_trip() == round_trip()


def test_access_probability_matches_binomial_oracle():
    # every consultation is an independent Bernoulli(rate) draw, so the
    # pooled interrupt count must sit inside 3 sigma of the binomial mean
    rate = 0.001
    model = AccessProbability(rate, seed=20260815)
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(writes=[(0, 64)])

    def body(ctx):
        for _ in range(1000):
            ctx.tick()

    fired = 0
    for _ in range(100):
        fired += run_txn(sim, decl, body, model, retry_cap=10_000).ac4
    n = model.consultations
    assert n >= 100_000
    mean = n * rate
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(fired - mean) <= 3 * sigma


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_access_probability_rejects_bad_rate(rate):
    with pytest.raises(ValueError):
        AccessProbability(rate, seed=0)


def test_access_probability_rate_is_read_only():
    # a buffer's fire positions are computed from the rate at refill time
    model = AccessProbability(0.25, seed=0)
    with pytest.raises(AttributeError):
        model.rate = 0.5
    assert model.rate == 0.25


# -- capacity rejection ------------------------------------------------------


def test_writeset_over_l1_rejected_before_any_event():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(writes=[(0, 320)])  # 5 lines > 4-line L1
    with pytest.raises(CapacityError) as exc_info:
        run_txn(sim, decl)
    exc = exc_info.value
    assert (exc.level, exc.need, exc.cap) == ("l1", 320, 256)
    assert exc.stats.ac3 == 1
    assert exc.stats.attempts == 0
    assert sim.trace == []
    assert not sim.txn_open


def test_footprint_over_llc_rejected_before_any_event():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(reads=[(1024, 960)], writes=[(0, 128)])
    assert decl.footprint_bytes() == 17 * 64
    with pytest.raises(CapacityError) as exc_info:
        run_txn(sim, decl)
    assert exc_info.value.level == "llc"
    assert exc_info.value.cap == 1024
    assert sim.trace == []


@pytest.mark.parametrize("prefetch", [True, False])
def test_declaration_past_the_address_space_rejected_before_any_event(prefetch):
    config = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=2,
                         llc_ways=8, address_space=1 << 10)  # lines 0..15
    sim = CacheSim(config)
    sim.access(0, "write")
    before = (list(sim.trace), sim.counters.total, lru_entries(sim))
    # read lines 0 and 17, write line 16: the prefetch would reach 17 first
    decl = TxnDeclaration.of(reads=[(0, 64), (addr_of(17), 64)],
                             writes=[(addr_of(16), 64)])
    ran = []
    with pytest.raises(ValueError, match=f"^address {addr_of(17)} out of range$"):
        run_txn(sim, decl, ran.append, prefetch=prefetch)
    assert ran == []
    assert (list(sim.trace), sim.counters.total, lru_entries(sim)) == before
    assert not sim.txn_open


def test_capacity_is_checked_before_the_address_space():
    # an address space of exactly the LLC's size, as the capacity probe
    # uses: a footprint one line over the LLC also reaches past the space
    config = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=2,
                         llc_ways=2, address_space=256)
    with pytest.raises(CapacityError) as exc_info:
        run_txn(CacheSim(config), TxnDeclaration.of(reads=[(0, 320)]))
    assert exc_info.value.level == "llc"
    with pytest.raises(CapacityError) as exc_info:
        run_txn(CacheSim(config), TxnDeclaration.of(writes=[(0, 320)]))
    assert exc_info.value.level == "l1"


@pytest.mark.parametrize("side, level", [("reads", "llc"), ("writes", "l1")])
@pytest.mark.parametrize("size", [2**69, 2**80])
def test_capacity_need_past_2_63_lines_is_exact(side, level, size):
    # a span of 2^63 lines or more has no len(); its need comes from its ends
    sim = CacheSim()
    with pytest.raises(CapacityError) as exc_info:
        run_txn(sim, TxnDeclaration.of(**{side: [(0, size)]}))
    cap = {"l1": sim.config.l1_capacity, "llc": sim.config.llc_capacity}[level]
    assert (exc_info.value.level, exc_info.value.need, exc_info.value.cap) == (
        level, size, cap)
    assert sim.trace == []


# -- undo log ----------------------------------------------------------------


def store_twice(ctx):
    # words 0 and 1 of line 0 are each stored twice, then the tick fires
    write_run(ctx, addr_of(0), [10, 11, 12])
    write_run(ctx, addr_of(0, 1), [20, 21])
    ctx.write(addr_of(0), 30)
    ctx.tick()


def store_cut_short(ctx):
    # one run over lines 1 and 2; the interrupt fires on its 11th word
    write_run(ctx, addr_of(1, 4), list(range(100, 112)))


def store_absent(ctx):
    # only words that were absent before the attempt
    write_run(ctx, addr_of(1, 2), [1, 2, 3])
    ctx.tick()


# body, the consultation that fires, the words stored before it
UNDO_CASES = {
    "twice": (store_twice, 7, 6),
    "cut-short": (store_cut_short, 11, 10),
    "absent": (store_absent, 4, 3),
}


@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("case", sorted(UNDO_CASES))
def test_aborted_attempt_leaves_memory_as_it_found_it(case, prefetch):
    store, fire_on, stored = UNDO_CASES[case]
    config = dataclasses.replace(SMALL, address_space=1 << 13)
    words = config.address_space // 8
    sim = CacheSim(config)
    poked = {addr_of(0): 5, addr_of(0, 2): 6, addr_of(2, 5): 7,
             addr_of(3): 8}  # the last outside the write lines
    for addr, value in poked.items():
        poke_word(sim, addr, value)
    before = sim.peek_words(0, words)
    contexts = []

    def body(ctx):
        contexts.append(ctx)
        store(ctx)

    decl = TxnDeclaration.of(writes=[(0, 3 * 64)])
    with pytest.raises(RetryCapExceededError) as exc_info:
        run_txn(sim, decl, body, FireOnConsultation([fire_on]),
                prefetch=prefetch, retry_cap=1)
    assert exc_info.value.stats.ac4 == 1
    # the attempt stored words before the interrupt, and logged them ...
    assert sum(len(old) for _, old in contexts[0]._undo) == stored
    # ... and its rollback left every word of memory as it found it, so
    # the words it stored that were never poked read zero again
    assert sim.peek_words(0, words) == before
    absent = {w + i for w, old in contexts[0]._undo
              for i in range(len(old))} - {addr >> 3 for addr in poked}
    assert absent and all(peek_word(sim, 8 * w) == 0 for w in absent)


# -- programming errors ------------------------------------------------------


def test_undeclared_read_raises_and_rolls_back():
    sim = CacheSim(SMALL)
    poke_word(sim, addr_of(0), 5)
    decl = TxnDeclaration.of(writes=[(0, 64)])

    def body(ctx):
        ctx.write(addr_of(0), 99)
        ctx.read(addr_of(1))

    with pytest.raises(UndeclaredAccessError) as exc_info:
        run_txn(sim, decl, body)
    assert exc_info.value.addr == 64
    assert exc_info.value.kind == "read"
    assert peek_word(sim, addr_of(0)) == 5
    assert line_state(sim, 0, "llc") is None
    assert not sim.txn_open


def test_write_to_read_only_line_rejected():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(reads=[(0, 64)])
    with pytest.raises(UndeclaredAccessError) as exc_info:
        run_txn(sim, decl, lambda ctx: ctx.write(0, 1))
    assert exc_info.value.kind == "write"


def test_nested_transactions_rejected():
    sim = CacheSim(SMALL)
    inner = TxnDeclaration.of(writes=[(64, 64)])

    def body(ctx):
        run_txn(sim, inner)

    with pytest.raises(NestedTxnError):
        run_txn(sim, TxnDeclaration.of(writes=[(0, 64)]), body)
    assert not sim.txn_open


def test_retry_cap_must_be_positive():
    with pytest.raises(ValueError):
        run_txn(CacheSim(SMALL), TxnDeclaration.of(), retry_cap=0)


def test_stray_body_event_violates_hit_guarantee():
    sim = CacheSim(SMALL)

    def body(ctx):
        # forge an event to prove the commit-time check is armed; a real
        # prefetched body can never produce one
        sim.trace.append(miss(99))

    with pytest.raises(HitGuaranteeError):
        run_txn(sim, TxnDeclaration.of(writes=[(0, 64)]), body)


# -- commit ordering ---------------------------------------------------------


def test_prefetched_commit_writes_back_ascending():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(writes=[(128, 64), (0, 64)])  # given out of order
    run_txn(sim, decl)
    assert sim.trace == [miss(0), miss(2), wb(0), wb(2)]


def test_unprefetched_commit_follows_first_write_order():
    sim = CacheSim(ONE_SET)
    decl = TxnDeclaration.of(writes=[(0, 192)])

    def body(ctx):
        ctx.write(addr_of(2), 7)
        ctx.write(addr_of(0), 8)
        ctx.write(addr_of(1), 9)
        ctx.write(addr_of(2, 3), 10)  # second write to line 2: no reorder

    stats = run_txn(sim, decl, body, prefetch=False)
    assert sim.trace == [miss(2), miss(0), miss(1), wb(2), wb(0), wb(1)]
    assert stats.body_events == 3
    assert stats.committed
    assert peek_word(sim, addr_of(2)) == 7
    assert peek_word(sim, addr_of(2, 3)) == 10


def test_prefetch_trace_ignores_data_values():
    decl = TxnDeclaration.of(reads=[(0, 128)], writes=[(256, 64)])

    def body(ctx):
        ctx.read(addr_of(0))
        ctx.read(addr_of(1, 5))
        ctx.write(addr_of(4), ctx.read(addr_of(0)) + 1)

    traces = []
    for fill in (0, 0xDEADBEEF):
        sim = CacheSim(SMALL)
        for line in (0, 1, 4):
            poke_word(sim, addr_of(line), fill)
        run_txn(sim, decl, body)
        traces.append(list(sim.trace))
    assert traces[0] == traces[1]


# -- abort transparency ------------------------------------------------------


@st.composite
def txn_programs(draw):
    # at most two write lines per L1 set: pinned dirty lines are immovable
    writes = sorted(
        draw(st.lists(st.sampled_from([0, 2, 4, 6]), unique=True, max_size=2))
        + draw(st.lists(st.sampled_from([1, 3, 5, 7]), unique=True, max_size=2))
    )
    reads = sorted(
        set(draw(st.lists(st.sampled_from(range(8)), unique=True, max_size=4)))
        - set(writes)
    )
    readable = reads + writes
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from("rwt"))
        if kind == "w" and writes:
            ops.append(
                ("w", draw(st.sampled_from(writes)), draw(st.integers(0, 7)),
                 draw(st.integers(0, 2**32 - 1)))
            )
        elif kind == "r" and readable:
            ops.append(("r", draw(st.sampled_from(readable)), draw(st.integers(0, 7)), 0))
        else:
            ops.append(("t", 0, 0, 0))
    init = {line: draw(st.integers(0, 2**32 - 1)) for line in readable}
    interrupts = draw(st.integers(min_value=0, max_value=3))
    return writes, reads, ops, init, interrupts


@settings(max_examples=60, deadline=None)
@given(txn_programs())
def test_interrupted_runs_converge_to_the_undisturbed_run(program):
    writes, reads, ops, init, interrupts = program
    decl = TxnDeclaration.of(
        reads=[(line * 64, 64) for line in reads],
        writes=[(line * 64, 64) for line in writes],
    )

    def body(ctx):
        # the interrupts fire on this first consultation of attempts
        # 1..interrupts, before the body touches anything
        ctx.tick()
        for kind, line, word, value in ops:
            if kind == "r":
                ctx.read(addr_of(line, word))
            elif kind == "w":
                ctx.write(addr_of(line, word), value)
            else:
                ctx.tick()

    def fresh_sim():
        sim = CacheSim(SMALL)
        for line, value in init.items():
            poke_word(sim, addr_of(line), value)
        return sim

    ref = {addr_of(line): value for line, value in init.items()}
    for kind, line, word, value in ops:
        if kind == "w":
            ref[addr_of(line, word)] = value

    calm_sim, noisy_sim = fresh_sim(), fresh_sim()
    calm = run_txn(calm_sim, decl, body)
    noisy = run_txn(
        noisy_sim, decl, body,
        interrupt_model=FireOnConsultation(range(1, interrupts + 1)),
    )

    assert calm.attempts == 1
    assert (noisy.attempts, noisy.ac4) == (interrupts + 1, interrupts)
    assert calm.committed and noisy.committed
    assert calm.body_events == 0 and noisy.body_events == 0
    for sim in (calm_sim, noisy_sim):
        check_invariants(sim)
        for line in reads + writes:
            for word in range(8):
                addr = addr_of(line, word)
                assert peek_word(sim, addr) == ref.get(addr, 0)
    # the noisy trace is the calm one with extra whole prefetch blocks
    assert calm_sim.trace[calm.trace_body_start:] == noisy_sim.trace[noisy.trace_body_start:]
    tail = len(calm_sim.trace)
    assert calm_sim.trace == (noisy_sim.trace[-tail:] if tail else [])


# -- line runs: the per-word reference path ----------------------------------


def invalid_input(ctx, kind, addr, count):
    """The error the per-word path raises for a run's invalid input, at
    its first bad word: an undeclared line, else a misaligned word; None
    for valid input.  Pins and interrupts play no part, and a declared
    word is in range, since ``run_txn`` refuses any other declaration."""
    kind = READ if kind == "r" else WRITE
    ok = declared_lines(ctx._decl, kind)
    for a in range(addr, addr + 8 * count, 8):
        if a >> ctx._shift not in ok:
            return UndeclaredAccessError(a, kind)
        if a % 8:
            return ValueError(f"address {a} not word aligned")
    return None


def context_state(ctx):
    """A copy of all a run may change: the simulator's trace, counters,
    LRU entries and memory, the context's lines and undo log, and the
    interrupt model's consultations."""
    sim, model = ctx._sim, ctx._model
    return copy.deepcopy((
        sim.trace, sim.counters, lru_entries(sim), memory_contents(sim),
        ctx._pinned, ctx._dirtied, ctx._undo,
        getattr(model, "consultations", None), getattr(model, "_pos", None),
    ))


def write_groups(ops):
    """``ops`` in groups: each read alone, and each stretch of
    consecutive writes together."""
    groups = []
    for op in ops:
        if op[0] == "w" and groups and groups[-1][0][0] == "w":
            groups[-1].append(op)
        else:
            groups.append([op])
    return groups


def group_call(ctx, group, lists=None):
    """One call for ``group``, its run list built at the call:
    ``read_run``, ``write_run`` for a lone write, ``write_runs`` for
    consecutive writes.  With ``lists``, a dict that outlives the
    attempt, the group's runs are built into a ``RunList`` against the
    context's declaration at the group's first call, kept in ``lists``
    for later attempts, and run with ``read_list``/``write_list``."""
    kind, addr, arg = group[0]
    if lists is not None:
        key = id(group)
        if key not in lists:
            runs = ([(addr, arg)] if kind == "r"
                    else [(a, len(values)) for _, a, values in group])
            lists[key] = RunList.build(ctx._decl, runs, READ if kind == "r" else WRITE)
        if kind == "r":
            (values,) = ctx.read_list(lists[key])
            return values
        return ctx.write_list(lists[key], [values for _, _, values in group])
    if kind == "r":
        return read_run(ctx, addr, arg)
    if len(group) == 1:
        return write_run(ctx, addr, arg)
    return write_runs(ctx, [(a, values) for _, a, values in group])


def run_body(ops, expand, log, prebuilt=False):
    """Body doing ``ops`` as runs, consecutive writes as one
    ``write_runs`` list (``write_groups``), with ``prebuilt`` each group
    as a run list built once (``group_call``), or with every run
    expanded into one reference per-word access per word; values read
    are appended to ``log``.

    A group with invalid input (``invalid_input`` of its first bad op)
    stops the body with that error on every side.  As a call, it must
    raise that error, type and message, and change nothing, and a
    prebuilt list raises it as it is built; expanded, the reference
    takes no step of the group.
    """
    groups = write_groups(ops)
    lists = {} if prebuilt else None

    def body(ctx):
        for group in groups:
            errors = (invalid_input(ctx, kind, addr, arg if kind == "r" else len(arg))
                      for kind, addr, arg in group)
            error = next((e for e in errors if e is not None), None)
            if error is not None:
                if not expand:
                    before = context_state(ctx)
                    with pytest.raises(type(error)) as info:
                        group_call(ctx, group, lists)
                    assert str(info.value) == str(error)
                    assert context_state(ctx) == before
                raise error
            kind, addr, arg = group[0]
            if kind == "r" and expand:
                log.append([per_word_read(ctx, addr + 8 * i) for i in range(arg)])
            elif kind == "r":
                log.append(group_call(ctx, group, lists))
            elif expand:
                for _, addr, values in group:
                    for i, value in enumerate(values):
                        per_word_write(ctx, addr + 8 * i, value)
            else:
                group_call(ctx, group, lists)

    return body


# each way a body can make its accesses: (expand, prebuilt) of ``run_body``
BODY_PATHS = {"runs": (False, False), "prebuilt": (False, True), "words": (True, False)}


def sim_state(sim):
    return (
        sim.trace,
        sim.counters,
        [list(s.items()) for s in sim._l1],
        # an LLC set not yet made is empty
        [list((s or {}).items()) for s in sim._llc],
        memory_contents(sim),
    )


def run_op(draw, kind, addr, count):
    """A read of ``count`` words from ``addr``, or a write of that many
    drawn values."""
    if kind == "r":
        return ("r", addr, count)
    values = draw(st.lists(st.integers(0, 2**64 - 1), min_size=count, max_size=count))
    return ("w", addr, values)


def cold_ops(draw, lines, writes, line_size):
    """Ops that pin lines with one-word touches and then run: every line
    outside one drawn stretch of consecutive ``lines`` is touched, in a
    drawn order, and one or two runs follow inside the stretch.  With
    three of ``lines`` in one set of a 2 x 2 L1 and LLC, a run then often
    faults where it crosses into a line, past its first word."""
    per_line = line_size // 8
    stretches = [[lines[0]]]
    for line in lines[1:]:
        if line == stretches[-1][-1] + 1:
            stretches[-1].append(line)
        else:
            stretches.append([line])
    target = draw(st.sampled_from(stretches))
    ops = []
    for line in draw(st.permutations([l for l in lines if l not in target])):
        kind = "w" if line in writes and draw(st.booleans()) else "r"
        word = draw(st.integers(0, per_line - 1))
        ops.append(run_op(draw, kind, line * line_size + 8 * word, 1))
    writable = set(target) <= set(writes)
    for _ in range(draw(st.integers(1, 2))):
        kind = "w" if writable and draw(st.booleans()) else "r"
        line = draw(st.sampled_from(target))
        word = draw(st.integers(0, per_line - 1))
        inside = (target[-1] + 1 - line) * per_line - word
        count = draw(st.one_of(st.just(inside), st.integers(1, inside)))
        ops.append(run_op(draw, kind, line * line_size + 8 * word, count))
    return ops


@st.composite
def run_programs(draw, cold=False):
    """Two transactions of runs at a drawn line size, in a space of four
    pages, from line zero or from a few lines before the start of page 1
    or 2.  With ``cold``, both run without prefetch, on a 2 x 2 L1 and
    LLC, with ``cold_ops``."""
    line_size = draw(st.sampled_from([8, 16, 32, 64, 128]))
    per_line = line_size // 8
    config = CacheConfig(
        line_size=line_size,
        l1_sets=2 if cold else draw(st.sampled_from([1, 2])),
        l1_ways=2,
        llc_sets=2 if cold else draw(st.sampled_from([2, 4])),
        llc_ways=2 if cold else draw(st.integers(2, 4)),
        address_space=4 * PAGE_BYTES,
    )
    # a multiple of 4 lines, so every line keeps its L1 and LLC set
    page_lines = PAGE_BYTES // line_size
    base = draw(st.sampled_from([0, page_lines - 4, 2 * page_lines - 8]))
    longest = max(20, 3 * per_line)
    txns = []
    for _ in range(2):
        w0 = base + draw(st.integers(0, 7))
        if cold:
            # three lines of one set and one of the other
            other = draw(st.sampled_from([w0 + 1, w0 + 3]))
            lines = sorted({w0, w0 + 2, w0 + 4, other})
            writes = [l for l in lines if draw(st.booleans())]
            reads = [l for l in lines if l not in writes]
            ops = cold_ops(draw, lines, writes, line_size)
            txns.append((reads, writes, ops, False))
            continue
        # a block of write lines, at stride 2 sometimes all in one L1 set,
        # and a block of read lines
        r0 = base + draw(st.integers(0, 7))
        stride = draw(st.sampled_from([1, 1, 2]))
        nw = draw(st.integers(0, 2 * config.l1_sets))
        writes = list(range(w0, w0 + stride * nw, stride))
        reads = [l for l in range(r0, r0 + draw(st.integers(0, 4)))
                 if l not in writes]
        ops = []
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from("rw"))
            ok = set(writes if kind == "w" else reads + writes)
            line = draw(st.sampled_from(sorted(ok) or range(base, base + 10)))
            word = draw(st.integers(0, per_line - 1))
            # mostly stay inside the declared lines, sometimes run past them
            end = line + 1
            while end in ok:
                end += 1
            if draw(st.integers(0, 7)):
                inside = (end - line) * per_line - word
                count = draw(st.integers(1, max(1, min(longest, inside))))
            else:
                count = draw(st.integers(1, longest))
            ops.append(run_op(draw, kind, line * line_size + word * 8, count))
        txns.append((reads, writes, ops, draw(st.booleans())))
    init = draw(st.dictionaries(
        st.integers(base * per_line, (base + 10) * per_line - 1),
        st.integers(1, 2**32)))
    # clean and dirty lines left resident before the transactions
    pre = draw(st.lists(st.tuples(st.integers(base, base + 11),
                                  st.sampled_from(["read", "write"])),
                        max_size=8))
    rate = draw(st.sampled_from([None, 0.02, 0.1] if cold else [None, 0.05, 0.3]))
    return config, txns, init, pre, rate, draw(st.integers(0, 2**16))


def check_runs_match_per_word_accesses(program):
    config, txns, init, pre, rate, seed = program
    size = config.line_size
    outcomes = []
    for expand, prebuilt in BODY_PATHS.values():
        sim = CacheSim(config)
        for word, value in init.items():
            poke_word(sim, word * 8, value)
        for line, kind in pre:
            sim.access(line * size, kind)
        # the per-word side draws one at a time from the scan's buffer
        model = (None if rate is None else
                 (ScanAccessProbability if expand else AccessProbability)(rate, seed))
        log, results = [], []
        for reads, writes, ops, prefetch in txns:
            decl = TxnDeclaration.of(
                reads=[(line * size, size) for line in reads],
                writes=[(line * size, size) for line in writes],
                line_size=size,
            )
            try:
                stats = run_txn(sim, decl, run_body(ops, expand, log, prebuilt), model,
                                prefetch=prefetch, retry_cap=8)
                results.append(("ok", stats))
            except (CapacityError, RetryCapExceededError) as exc:
                results.append((type(exc), exc.stats))
            except UndeclaredAccessError as exc:
                results.append((type(exc), exc.addr))
            except ValueError as exc:
                results.append((type(exc), str(exc)))
            check_invariants(sim)
        consults = None if model is None else (model.consultations, model._pos)
        outcomes.append((results, log, sim_state(sim), consults))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@settings(max_examples=200, deadline=None)
@given(run_programs())
def test_runs_match_per_word_accesses(program):
    check_runs_match_per_word_accesses(program)


@settings(max_examples=200, deadline=None)
@given(run_programs(cold=True))
def test_cold_runs_match_per_word_accesses(program):
    check_runs_match_per_word_accesses(program)


def test_no_context_outlives_run_txn():
    # an aborted attempt must leave no reference cycle that keeps its
    # context alive until the cyclic collector runs
    def contexts():
        return sum(isinstance(obj, TxnContext) for obj in gc.get_objects())

    decl = TxnDeclaration.of(reads=[(0, 128)], writes=[(128, 128)])

    def body(ctx):
        write_run(ctx, addr_of(2), read_run(ctx, addr_of(0), 16))

    gc.collect()
    gc.disable()
    try:
        before = contexts()
        model = AccessProbability(0.05, 3)
        interrupts = 0
        for prefetch in (True, False):
            interrupts += run_txn(CacheSim(SMALL), decl, body, model,
                                  prefetch=prefetch).ac4
        try:
            run_txn(CacheSim(SMALL), decl, lambda ctx: ctx.read(addr_of(4)))
        except UndeclaredAccessError:
            pass
        after = contexts()
    finally:
        gc.enable()
    assert interrupts > 0
    assert after == before


def test_read_run_served_from_llc_counts_llc_hits():
    # the two written lines fill the one L1 set with pinned dirty data, so
    # the read line is served from the LLC without L1 residency
    config = CacheConfig(line_size=64, l1_sets=1, l1_ways=2, llc_sets=2, llc_ways=4)
    sim = CacheSim(config)
    decl = TxnDeclaration.of(reads=[(addr_of(2), 128)], writes=[(0, 128)])
    seen = {}

    def body(ctx):
        before = (sim.counters.llc_hits, len(sim.trace))
        assert read_run(ctx, addr_of(2, 2), 12) == [0] * 12
        seen["llc_hits"] = sim.counters.llc_hits - before[0]
        seen["events"] = len(sim.trace) - before[1]
        seen["l1"] = [line_state(sim, line, "l1") for line in (2, 3)]

    stats = run_txn(sim, decl, body)
    assert stats.committed and stats.attempts == 1
    assert seen == {"llc_hits": 12, "events": 0, "l1": [None, None]}


def test_interrupt_inside_a_line_consults_per_word():
    decl = TxnDeclaration.of(reads=[(0, 64)], writes=[(64, 64)])
    per_run = []
    for expand in (False, True):
        sim = CacheSim(SMALL)
        model = FireOnConsultation([4, 13])  # word 3 of the read, word 0 of the write
        ops = [("r", addr_of(0), 8), ("w", addr_of(1, 1), [7] * 7)]
        stats = run_txn(sim, decl, run_body(ops, expand, []), model)
        per_run.append((stats, model.consultations, sim_state(sim)))
    assert per_run[0] == per_run[1]
    stats, consultations, _ = per_run[0]
    assert (stats.attempts, stats.ac4) == (3, 2)
    assert consultations == 4 + (8 + 1) + (8 + 7)


@pytest.mark.parametrize("prefetch", [True, False])
def test_run_into_undeclared_line_raises_before_any_access(prefetch):
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(reads=[(0, 64)])
    model = FireOnConsultation([])
    with pytest.raises(UndeclaredAccessError) as info:
        run_txn(sim, decl, lambda ctx: read_run(ctx, addr_of(0, 4), 8), model,
                prefetch=prefetch)
    assert info.value.addr == addr_of(1)
    assert model.consultations == 0
    # only the prefetch touched line 0, and the rollback dropped it
    if prefetch:
        assert sim.counters == AccessCounters(total=1, llc_misses=1)
        assert sim.trace == [miss(0)]
    else:
        assert sim.counters == AccessCounters()
        assert sim.trace == []
    assert line_state(sim, 0, "llc") is None


@pytest.mark.parametrize(
    "body",
    [lambda ctx: read_run(ctx, 4, 2), lambda ctx: write_run(ctx, 68, [1, 2])],
)
def test_misaligned_run_rejected(body):
    decl = TxnDeclaration.of(reads=[(0, 64)], writes=[(64, 64)])
    with pytest.raises(ValueError, match="not word aligned"):
        run_txn(CacheSim(SMALL), decl, body)


@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("bad", [0, 1, 2])
@pytest.mark.parametrize(
    "bad_run",
    [(addr_of(0, 3), [9, 9]),  # line 0 is only read: undeclared for a write
     (addr_of(2, 7), [9, 9]),  # runs on into line 3, undeclared
     (addr_of(2) + 4, [9])],  # misaligned
)
def test_invalid_run_anywhere_in_a_list_changes_nothing(bad_run, bad, prefetch):
    decl = TxnDeclaration.of(reads=[(0, 64)], writes=[(64, 128)])
    runs = [(addr_of(1, 2), [1, 2, 3]), (addr_of(2), [4] * 8),
            (addr_of(1, 6), [5, 6, 7, 8])]
    runs[bad] = bad_run
    model = FireOnConsultation([])
    seen = {}

    def body(ctx):
        write_run(ctx, addr_of(1), [42])  # a store the undo log already holds
        error = next(e for e in (invalid_input(ctx, "w", a, len(v)) for a, v in runs)
                     if e is not None)
        before = context_state(ctx)
        with pytest.raises(type(error)) as info:
            write_runs(ctx, runs)
        seen["message"] = (str(info.value), str(error))
        seen["unchanged"] = context_state(ctx) == before

    sim = CacheSim(SMALL)
    assert run_txn(sim, decl, body, model, prefetch=prefetch).committed
    assert seen["message"][0] == seen["message"][1]
    assert seen["unchanged"]
    assert model.consultations == 1
    assert sim.peek_words(addr_of(1), 3) == [42, 0, 0]


@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("fire_on", [[3], [6], [9], [13], [4, 14]])
def test_interrupt_inside_a_write_list_stores_the_words_before(fire_on, prefetch):
    # three runs of 3, 8 and 4 words: a fire in the first, on the second's
    # first word, inside the second, in the third and in two attempts
    decl = TxnDeclaration.of(reads=[(0, 64)], writes=[(64, 128)])
    ops = [("r", addr_of(0), 1), ("w", addr_of(1, 2), [1, 2, 3]),
           ("w", addr_of(2), [4] * 8), ("w", addr_of(1, 6), [5, 6, 7, 8])]
    per_run = []
    for expand in (False, True):
        sim = CacheSim(SMALL)
        sim.poke_words(addr_of(1), range(100, 116))
        model = FireOnConsultation(fire_on)
        stats = run_txn(sim, decl, run_body(ops, expand, []), model,
                        prefetch=prefetch)
        per_run.append((stats, model.consultations, sim_state(sim)))
    assert per_run[0] == per_run[1]
    stats, consultations, state = per_run[0]
    assert stats.committed and stats.ac4 == len(fire_on)
    assert state[4][addr_of(1, 6) >> 3] == 5


EDGE = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=2, llc_ways=8,
                   address_space=1 << 10)  # lines 0..15


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize(
    "ops, fire_on",
    [
        # runs into line 16, past the address space and so undeclared:
        # refused before any word is consulted or accessed
        ([("r", addr_of(15, 6), 5)], []),
        ([("w", addr_of(15, 7), [1, 2, 3])], []),
        ([("r", addr_of(15, 6), 5)], [3]),
        ([("r", addr_of(16), 2)], []),
        # misaligned: refused before the first word is consulted
        ([("w", addr_of(1) + 4, [1, 2])], []),
        ([("r", addr_of(0, 3) + 2, 3)], [1]),
        ([("r", addr_of(4) + 4, 3)], []),
        # an interrupt due before, on and after an undeclared line
        ([("w", addr_of(1, 6), [5] * 12)], [2]),
        ([("w", addr_of(1, 6), [5] * 12)], [3]),
        ([("r", addr_of(0, 5), 4), ("w", addr_of(1, 2), [9] * 20)], [6]),
    ],
)
def test_edge_runs_match_per_word_accesses(ops, fire_on, prefetch):
    # line 1 is written, lines 0 and 15, the last in the space, are read
    decl = TxnDeclaration.of(reads=[(0, 64), (addr_of(15), 64)],
                             writes=[(64, 64)])
    outcomes = []
    for expand, prebuilt in BODY_PATHS.values():
        sim = CacheSim(EDGE)
        sim.poke_words(0, range(1, 17))
        model = FireOnConsultation(fire_on)
        log = []
        try:
            result = run_txn(sim, decl, run_body(ops, expand, log, prebuilt), model,
                             prefetch=prefetch, retry_cap=1)
        except (ValueError, UndeclaredAccessError, RetryCapExceededError) as exc:
            result = (type(exc), str(exc))
        outcomes.append((result, log, sim_state(sim), model.consultations))
    assert outcomes[0] == outcomes[1] == outcomes[2]


# -- one walk per run list, against the per-word path -------------------------

# lines 0 and 1 are read, 2 to 5 written: two pinned dirty lines fill each
# L1 set, so the read lines are served from the LLC without L1 residency
WALK_DECL = TxnDeclaration.of(reads=[(0, 128)], writes=[(addr_of(2), 256)])
# read, write list, read: heads and tails mid-line, a run of no words,
# a run back into an earlier line; 30 words in all
WALK_OPS = [
    ("r", addr_of(0, 5), 9),
    ("w", addr_of(2, 6), [11, 12, 13, 14, 15]),
    ("w", addr_of(3, 1), []),
    ("w", addr_of(4, 3), list(range(20, 32))),
    ("w", addr_of(2, 0), [41, 42]),
    ("r", addr_of(5, 6), 2),
]
WALK_CASES = {
    "lists": (WALK_DECL, WALK_OPS),
    # the same write list ending in a run on line 6, which is undeclared
    "undeclared-last-run": (WALK_DECL, WALK_OPS[:3] + [("w", addr_of(6, 1), [7, 8])]),
    # three write lines in one two-way L1 set: the prefetch faults on its
    # third write line, after misses counted before it, on every attempt
    "prefetch-fault": (
        TxnDeclaration.of(reads=[(0, 64)],
                          writes=[(addr_of(2), 64), (addr_of(4), 64), (addr_of(6), 64)]),
        [("r", addr_of(0, 1), 3)]),
}


def walk_outcome(decl, ops, fire_on, expand):
    """Run ``ops`` as the body of one prefetched transaction on a fresh
    simulator, as lists or, with ``expand``, as the per-word reference
    (``run_body``) on a simulator whose prefetch and commit are the
    per-line reference's, so no step of this side goes through the
    kernel's line steps.  Returns the outcome, the values read, memory at
    each body start and at each interrupt, the consultations, counters,
    trace, LRU entries and memory at the end."""
    sim = CacheSim(SMALL)
    sim.poke_words(0, range(100, 148))
    model = FireOnConsultation(fire_on)
    log = []
    body = run_body(ops, expand, log)

    def snapshotting(ctx):
        log.append(("start", memory_contents(sim)))
        try:
            body(ctx)
        except _Interrupted:
            log.append(("fired", memory_contents(sim)))
            raise

    with pytest.MonkeyPatch.context() as m:
        if expand:
            m.setattr(CacheSim, "prefetch", per_line_prefetch)
            m.setattr(CacheSim, "commit_lines", per_line_commit)
        try:
            result = run_txn(sim, decl, snapshotting, model, retry_cap=2)
        except (UndeclaredAccessError, RetryCapExceededError) as exc:
            result = (type(exc), str(exc))
    check_invariants(sim)
    return (result, log, model.consultations, sim.counters, sim.trace,
            lru_entries(sim), memory_contents(sim))


@pytest.mark.parametrize("case", WALK_CASES)
def test_walk_matches_the_per_word_path_at_every_fire(case):
    decl, ops = WALK_CASES[case]
    words = sum(arg if kind == "r" else len(arg) for kind, _, arg in ops)
    # a fire at each word of the body's lists, and one past them
    for fire in range(1, words + 2):
        got = walk_outcome(decl, ops, [fire], False)
        want = walk_outcome(decl, ops, [fire], True)
        assert got == want, fire
        if case == "lists" and fire <= words:
            fired = [e for e in want[1] if isinstance(e, tuple) and e[0] == "fired"]
            assert len(fired) == want[0].ac4 == 1


# -- page boundaries ---------------------------------------------------------

# four pages of 64 lines: line 64 starts page 1, line 255 ends the space
PAGED = CacheConfig(line_size=64, l1_sets=2, l1_ways=4, llc_sets=4, llc_ways=8,
                    address_space=4 * PAGE_BYTES)
LAST = PAGED.address_space // 64 - 1
# lines 62 and 65 are read; 63, 64 and the last line are written
PAGED_DECL = TxnDeclaration.of(reads=[(addr_of(62), 64), (addr_of(65), 64)],
                               writes=[(addr_of(63), 128), (addr_of(LAST), 64)])


@pytest.mark.parametrize("prefetch", [False, True])
@pytest.mark.parametrize(
    "ops, fire_on",
    [
        # a read run, and a write list with a read back, across page 1's start
        ([("r", addr_of(62, 5), 20)], []),
        ([("w", addr_of(63, 6), [1, 2, 3, 4, 5]), ("w", addr_of(64, 3), [6, 7]),
          ("r", addr_of(63), 16)], []),
        # a write and a read that end on the last word of the address space
        ([("w", addr_of(LAST, 5), [8, 9, 10]), ("r", addr_of(LAST), 8)], []),
        # a write list interrupted past the page start, and before it
        ([("w", addr_of(63, 5), [9] * 6), ("w", addr_of(64, 6), [3, 4])], [5]),
        ([("w", addr_of(63, 5), [9] * 6), ("r", addr_of(62, 7), 12)], [2, 9]),
    ],
)
def test_page_crossing_runs_match_per_word_accesses(ops, fire_on, prefetch):
    outcomes = []
    for expand in (False, True):
        sim = CacheSim(PAGED)
        sim.poke_words(addr_of(62), range(1, 33))
        sim.poke_words(addr_of(LAST), range(40, 48))
        model = FireOnConsultation(fire_on)
        log = []
        stats = run_txn(sim, PAGED_DECL, run_body(ops, expand, log), model,
                        prefetch=prefetch)
        outcomes.append((stats, log, sim_state(sim), model.consultations))
    assert outcomes[0] == outcomes[1]
    stats, _, state, _ = outcomes[0]
    assert stats.committed and stats.ac4 == len(fire_on)
    want = dict(enumerate(range(1, 33), addr_of(62) >> 3))
    want.update(enumerate(range(40, 48), addr_of(LAST) >> 3))
    for kind, addr, arg in ops:
        if kind == "w":
            want.update(enumerate(arg, addr >> 3))
    assert state[4] == want


@pytest.mark.parametrize("prefetch", [True, False])
def test_rollback_across_a_page_boundary_restores_both_pages(prefetch):
    sim = CacheSim(PAGED)
    sim.poke_words(addr_of(63, 4), [5, 6, 7, 8, 9, 10])  # up to word 1 of line 64
    words = PAGED.address_space // 8
    before = sim.peek_words(0, words)
    contexts = []

    def body(ctx):
        contexts.append(ctx)
        # 14 words over both pages, the second run inside the first
        write_runs(ctx, [(addr_of(63, 2), list(range(100, 112))),
                        (addr_of(64, 1), [1, 2])])
        ctx.tick()

    with pytest.raises(RetryCapExceededError):
        run_txn(sim, PAGED_DECL, body, FireOnConsultation([15]),
                prefetch=prefetch, retry_cap=1)
    stored = {w + i for w, old in contexts[0]._undo for i in range(len(old))}
    assert len(stored) == 12
    assert {w // PAGE_WORDS for w in stored} == {0, 1}
    assert sim.peek_words(0, words) == before


def test_tick_consults_count_times_in_one_call():
    sim = CacheSim(SMALL)
    decl = TxnDeclaration.of(writes=[(0, 64)])
    model = FireOnConsultation([3, 9])
    stats = run_txn(sim, decl, lambda ctx: ctx.tick(5), model)
    # attempt 1 stops at consultation 3, attempt 2 makes 4..8 and commits
    assert (stats.attempts, stats.ac4) == (2, 1)
    assert model.consultations == 3 + 5
    stats = run_txn(sim, decl, lambda ctx: ctx.tick(0), model)
    assert (stats.attempts, model.consultations) == (1, 8)


@st.composite
def draw_programs(draw):
    rate = draw(st.sampled_from([0.0, 0.001, 0.05, 0.5, 1.0]))
    # start anywhere in the buffer, often just before or at its end
    pos = draw(st.one_of(st.integers(0, 4096), st.integers(4080, 4096)))
    counts = draw(st.lists(
        st.one_of(st.integers(0, 24), st.integers(0, 9000)), min_size=1,
        max_size=6,
    ))
    return rate, draw(st.integers(0, 2**16)), pos, counts


def check_first_fire_matches_the_scan(rate, seed, pos, counts):
    """Hold ``AccessProbability.first_fire`` to the old scan and to one
    draw per consultation, each model from ``pos`` of its first buffer,
    over ``counts``: the result, ``consultations`` and ``_pos`` after
    every call.  Returns the results and the last (consultations, _pos)."""
    fast = AccessProbability(rate, seed)
    scan, ref = ScanAccessProbability(rate, seed), ScanAccessProbability(rate, seed)
    fast._pos = scan._pos = ref._pos = pos
    results = []
    for count in counts:
        got = fast.first_fire(count)
        assert got == scan.first_fire(count) == per_word_first_fire(ref, count)
        assert ((fast.consultations, fast._pos) == (scan.consultations, scan._pos)
                == (ref.consultations, ref._pos))
        results.append(got)
    return results, (fast.consultations, fast._pos)


@settings(max_examples=200, deadline=None)
@given(draw_programs())
def test_first_fire_matches_per_word_draws(program):
    check_first_fire_matches_the_scan(*program)


def test_first_fire_across_the_buffer_refill():
    # 6 draws left in the buffer, then 14 from a fresh one
    assert check_first_fire_matches_the_scan(0.0, 3, 4090, [20]) == ([None], (20, 14))


def seed_firing_first_in(rate, pos, fires):
    """The first seed whose stream, from draw ``pos`` of its first buffer
    on (draws numbered across buffers), fires first at a draw in the
    range ``fires``."""
    for seed in range(10_000):
        model = ScanAccessProbability(rate, seed)
        model._pos = pos
        if per_word_first_fire(model, fires.stop - pos) in range(
                fires.start - pos, fires.stop - pos):
            return seed
    raise AssertionError("no such seed")


def test_first_fire_on_the_last_draw_of_a_buffer():
    seed = seed_firing_first_in(0.05, 4090, range(4095, 4096))
    check = check_first_fire_matches_the_scan
    assert check(0.05, seed, 4090, [5, 1]) == ([None, 0], (6, 4096))
    assert check(0.05, seed, 4090, [20]) == ([5], (6, 4096))


def test_first_fire_on_the_first_draw_of_the_next_buffer():
    seed = seed_firing_first_in(0.05, 4090, range(4096, 4097))
    check = check_first_fire_matches_the_scan
    assert check(0.05, seed, 4090, [6, 1]) == ([None, 0], (7, 1))
    assert check(0.05, seed, 4090, [20]) == ([6], (7, 1))


def test_first_fire_of_nothing_on_a_spent_buffer_draws_nothing():
    fast, scan = AccessProbability(0.05, 3), ScanAccessProbability(0.05, 3)
    fast._pos = scan._pos = 4096
    fires = fast._fires
    assert fast.first_fire(0) is None
    assert (fast.consultations, fast._pos) == (0, 4096) and fast._fires is fires
    # a refill would have shifted the stream by one buffer
    for count in (0, 9000, 9000):
        assert fast.first_fire(count) == scan.first_fire(count)
        assert (fast.consultations, fast._pos) == (scan.consultations, scan._pos)


@pytest.mark.parametrize("rate", [0.0, 0.0002])
def test_first_fire_of_one_count_over_three_buffers(rate):
    # from draw 4000: 96 draws of the first buffer, all 4096 of the
    # second and 500 of the third; at 0.0002 the first fire among them
    # is in the third
    count = 96 + 4096 + 500
    if rate:
        seed = seed_firing_first_in(rate, 4000, range(8192, 8692))
        (fired,), _ = check_first_fire_matches_the_scan(rate, seed, 4000, [count])
        assert 96 + 4096 <= fired < count
    else:
        assert check_first_fire_matches_the_scan(rate, 0, 4000, [count]) == (
            [None], (count, 500))


def test_cold_run_consults_no_word_past_a_pin_fault():
    # lines 0, 2 and 4 share a 2-way LLC set; once 0 and 2 are pinned,
    # the first word on line 4 faults and the second is never consulted
    config = CacheConfig(line_size=64, l1_sets=1, l1_ways=2, llc_sets=2, llc_ways=2)
    decl = TxnDeclaration.of(reads=[(0, 64), (128, 64), (256, 64)])
    ops = [("r", addr_of(0), 1), ("r", addr_of(2), 1), ("r", addr_of(4), 2)]
    per_run = []
    for expand in (False, True):
        sim = CacheSim(config)
        model = FireOnConsultation([])
        with pytest.raises(RetryCapExceededError) as info:
            run_txn(sim, decl, run_body(ops, expand, []), model,
                    prefetch=False, retry_cap=2)
        per_run.append((info.value.stats, model.consultations, sim_state(sim)))
    assert per_run[0] == per_run[1]
    stats, consultations, _ = per_run[0]
    assert (stats.ac2, stats.last_fault_line, consultations) == (2, 4, 2 * 3)


def test_faulted_prefetch_drops_every_declared_line(monkeypatch):
    # lines 0 and 2 fill L1 set 0 with pinned dirty data, so the prefetch
    # faults at line 4 and never reaches line 5.  The rollback still drops
    # every declared line, line 5 among them though it was resident before
    # the transaction, as the per-line prefetch does: hardware would keep
    # a line the aborted transaction never touched (ROADMAP item 5)
    config = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=4, llc_ways=4)
    decl = TxnDeclaration.of(writes=[(addr_of(line), 64) for line in (0, 2, 4, 5)])
    per_run = []
    for prefetch in (CacheSim.prefetch, per_line_prefetch):
        monkeypatch.setattr(CacheSim, "prefetch", prefetch)
        sim = CacheSim(config)
        run_txn(sim, TxnDeclaration.of(reads=[(addr_of(5), 64)]),
                lambda ctx: ctx.read(addr_of(5)))
        assert line_state(sim, 5, "l1") == (False, False)
        with pytest.raises(RetryCapExceededError) as info:
            run_txn(sim, decl, retry_cap=1)
        assert info.value.stats.last_fault_line == 4
        assert line_state(sim, 5, "l1") is line_state(sim, 5, "llc") is None
        per_run.append(sim_state(sim))
    assert per_run[0] == per_run[1]


def test_cold_run_touches_no_line_past_a_pin_fault():
    # lines 0 and 2 fill L1 set 0 with pinned dirty data, so the run's
    # first word on line 4 faults; line 5, resident from the first
    # transaction, is never reached and must survive the rollback
    config = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=4, llc_ways=4)
    decl = TxnDeclaration.of(writes=[(0, 64), (128, 64), (256, 128)])
    ops = [("w", addr_of(0), [1]), ("w", addr_of(2), [2]),
           ("w", addr_of(4, 6), [3] * 4)]
    per_run = []
    for expand in (False, True):
        sim = CacheSim(config)
        run_txn(sim, TxnDeclaration.of(reads=[(addr_of(5), 64)]),
                lambda ctx: ctx.read(addr_of(5)))
        with pytest.raises(RetryCapExceededError):
            run_txn(sim, decl, run_body(ops, expand, []), prefetch=False,
                    retry_cap=1)
        per_run.append(sim_state(sim))
    assert per_run[0] == per_run[1]
    assert per_run[0][3][1] and 5 in dict(per_run[0][3][1])  # LLC set 1


# -- consultations -----------------------------------------------------------


def _two_runs(ctx):
    """A write list of two runs, nine words over lines 1 and 2."""
    write_runs(ctx, [(addr_of(1, 3), [1] * 5), (addr_of(2, 2), [2] * 4)])


@pytest.mark.parametrize("prefetch", [True, False])
def test_a_list_counts_one_consultation_per_word_without_a_model(prefetch):
    decl = TxnDeclaration.of(writes=[(addr_of(1), 128)])
    stats = run_txn(CacheSim(SMALL), decl, _two_runs, prefetch=prefetch)
    assert (stats.attempts, stats.consultations) == (1, 9)


@pytest.mark.parametrize("prefetch", [True, False])
@pytest.mark.parametrize("fire", [0, 4, 5, 8])
def test_an_interrupt_at_word_f_counts_f_plus_one(prefetch, fire):
    # the attempt that fires counts through its word f, the retry all nine
    decl = TxnDeclaration.of(writes=[(addr_of(1), 128)])
    model = FireOnConsultation([fire + 1])
    stats = run_txn(CacheSim(SMALL), decl, _two_runs, model, prefetch=prefetch)
    assert (stats.attempts, stats.ac4) == (2, 1)
    assert stats.consultations == (fire + 1) + 9 == model.consultations


@pytest.mark.parametrize("k", [1, 3, 64])
def test_tick_counts_its_units(k):
    decl = TxnDeclaration.of(reads=[(0, 64)])
    stats = run_txn(CacheSim(SMALL), decl, lambda ctx: ctx.tick(k))
    assert stats.consultations == k
    # fired at its last unit, then retried
    model = FireOnConsultation([k])
    stats = run_txn(CacheSim(SMALL), decl, lambda ctx: ctx.tick(k), model)
    assert (stats.attempts, stats.consultations) == (2, 2 * k)

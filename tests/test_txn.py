"""Transaction layer tests.

Exact traces are asserted against hand-worked expectations on small
geometries; the abort-transparency property compares a run with forced
interrupts against an undisturbed twin.
"""

import copy
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    lru_entries,
    per_line_commit,
    per_line_prefetch,
    per_word_first_fire,
    per_word_read,
    per_word_write,
)

from oblishuffle.cache import (
    KIND_MISS,
    KIND_WRITEBACK,
    READ,
    WRITE,
    AccessCounters,
    CacheConfig,
    CacheSim,
    TraceEvent,
)
from oblishuffle.txn import (
    AccessProbability,
    CapacityError,
    HitGuaranteeError,
    NestedTxnError,
    RetryCapExceededError,
    TxnContext,
    TxnDeclaration,
    UndeclaredAccessError,
    run_txn,
)

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
    assert decl.read_lines == (0,)
    assert TxnDeclaration.of(reads=[(60, 8)]).read_lines == (0, 1)


def test_write_lines_absorb_overlapping_reads():
    decl = TxnDeclaration.of(reads=[(0, 128)], writes=[(64, 64)])
    assert decl.read_lines == (0,)
    assert decl.write_lines == (1,)
    assert decl.all_lines == (0, 1)
    assert decl.footprint_bytes() == 128
    assert decl.write_bytes() == 64


@pytest.mark.parametrize("bad", [(0, 0), (0, -8), (-64, 64)])
def test_bad_ranges_rejected(bad):
    with pytest.raises(ValueError):
        TxnDeclaration.of(reads=[bad])


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
    assert sim.line_state(0, "l1") == (False, False)
    assert sim.line_state(1, "l1") == (False, False)
    assert sim.line_state(1, "llc") == (False, False)


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
        assert not sim.line_resident(line, "llc")
    assert not sim.txn_open
    sim.check_invariants()
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
    sim.poke_word(addr_of(0), 5)
    sim.poke_word(addr_of(2), 6)
    sim.poke_word(addr_of(4), 7)
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
    assert sim.peek_word(addr_of(0)) == 5
    assert sim.peek_word(addr_of(0, 1)) == 0
    assert sim.peek_word(addr_of(2)) == 6
    assert sim.peek_word(addr_of(4)) == 7
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


# -- undo log ----------------------------------------------------------------


def store_twice(ctx):
    # words 0 and 1 of line 0 are each stored twice, then the tick fires
    ctx.write_run(addr_of(0), [10, 11, 12])
    ctx.write_run(addr_of(0, 1), [20, 21])
    ctx.write(addr_of(0), 30)
    ctx.tick()


def store_cut_short(ctx):
    # one run over lines 1 and 2; the interrupt fires on its 11th word
    ctx.write_run(addr_of(1, 4), list(range(100, 112)))


def store_absent(ctx):
    # only words that were absent before the attempt
    ctx.write_run(addr_of(1, 2), [1, 2, 3])
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
    sim = CacheSim(SMALL)
    sim.poke_word(addr_of(0), 5)
    sim.poke_word(addr_of(0, 2), 6)
    sim.poke_word(addr_of(2, 5), 7)
    sim.poke_word(addr_of(3), 8)  # outside the write lines
    before = dict(sim.memory)
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
    # ... and its rollback left memory, its key set too, as it found it
    assert sim.memory == before
    assert sim.memory.keys() == before.keys()


# -- programming errors ------------------------------------------------------


def test_undeclared_read_raises_and_rolls_back():
    sim = CacheSim(SMALL)
    sim.poke_word(addr_of(0), 5)
    decl = TxnDeclaration.of(writes=[(0, 64)])

    def body(ctx):
        ctx.write(addr_of(0), 99)
        ctx.read(addr_of(1))

    with pytest.raises(UndeclaredAccessError) as exc_info:
        run_txn(sim, decl, body)
    assert exc_info.value.addr == 64
    assert exc_info.value.kind == "read"
    assert sim.peek_word(addr_of(0)) == 5
    assert not sim.line_resident(0, "llc")
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
    assert sim.peek_word(addr_of(2)) == 7
    assert sim.peek_word(addr_of(2, 3)) == 10


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
            sim.poke_word(addr_of(line), fill)
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
            sim.poke_word(addr_of(line), value)
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
        sim.check_invariants()
        for line in reads + writes:
            for word in range(8):
                addr = addr_of(line, word)
                assert sim.peek_word(addr) == ref.get(addr, 0)
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
    ok = ctx._decl.read_ok if kind == READ else ctx._decl.write_ok
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
        sim.trace, sim.counters, lru_entries(sim), sim.memory,
        ctx._pinned, ctx._dirtied, ctx._undo,
        getattr(model, "consultations", None), getattr(model, "_pos", None),
    ))


def run_body(ops, expand, log):
    """Body doing ``ops`` as runs, or with every run expanded into one
    reference per-word access per word; values read are appended to
    ``log``.

    An op with invalid input (``invalid_input``) stops the body with that
    error on both sides.  As a run, it must raise that error, type and
    message, and change nothing; expanded, the reference takes no step.
    """

    def body(ctx):
        for kind, addr, arg in ops:
            error = invalid_input(ctx, kind, addr, arg if kind == "r" else len(arg))
            if error is not None:
                if not expand:
                    before = context_state(ctx)
                    with pytest.raises(type(error)) as info:
                        if kind == "r":
                            ctx.read_run(addr, arg)
                        else:
                            ctx.write_run(addr, arg)
                    assert str(info.value) == str(error)
                    assert context_state(ctx) == before
                raise error
            if kind == "r" and expand:
                log.append([per_word_read(ctx, addr + 8 * i) for i in range(arg)])
            elif kind == "r":
                log.append(ctx.read_run(addr, arg))
            elif expand:
                for i, value in enumerate(arg):
                    per_word_write(ctx, addr + 8 * i, value)
            else:
                ctx.write_run(addr, arg)

    return body


def sim_state(sim):
    return (
        sim.trace,
        sim.counters,
        [list(s.items()) for s in sim._l1],
        [list(s.items()) for s in sim._llc],
        sim.memory,
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
    """Two transactions of runs at a drawn line size.  With ``cold``, both
    run without prefetch, on a 2 x 2 L1 and LLC, with ``cold_ops``."""
    line_size = draw(st.sampled_from([8, 16, 32, 64, 128]))
    per_line = line_size // 8
    config = CacheConfig(
        line_size=line_size,
        l1_sets=2 if cold else draw(st.sampled_from([1, 2])),
        l1_ways=2,
        llc_sets=2 if cold else draw(st.sampled_from([2, 4])),
        llc_ways=2 if cold else draw(st.integers(2, 4)),
    )
    longest = max(20, 3 * per_line)
    txns = []
    for _ in range(2):
        w0 = draw(st.integers(0, 7))
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
        r0 = draw(st.integers(0, 7))
        stride = draw(st.sampled_from([1, 1, 2]))
        nw = draw(st.integers(0, 2 * config.l1_sets))
        writes = list(range(w0, w0 + stride * nw, stride))
        reads = [l for l in range(r0, r0 + draw(st.integers(0, 4)))
                 if l not in writes]
        ops = []
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from("rw"))
            ok = set(writes if kind == "w" else reads + writes)
            line = draw(st.sampled_from(sorted(ok) or range(10)))
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
    init = draw(st.dictionaries(st.integers(0, 10 * per_line - 1),
                                st.integers(1, 2**32)))
    # clean and dirty lines left resident before the transactions
    pre = draw(st.lists(st.tuples(st.integers(0, 11), st.sampled_from(["read", "write"])),
                        max_size=8))
    rate = draw(st.sampled_from([0.02, 0.1] if cold else [None, 0.05, 0.3]))
    return config, txns, init, pre, rate, draw(st.integers(0, 2**16))


def check_runs_match_per_word_accesses(program):
    config, txns, init, pre, rate, seed = program
    size = config.line_size
    outcomes = []
    for expand in (False, True):
        sim = CacheSim(config)
        for word, value in init.items():
            sim.poke_word(word * 8, value)
        for line, kind in pre:
            sim.access(line * size, kind)
        model = None if rate is None else AccessProbability(rate, seed)
        log, results = [], []
        for reads, writes, ops, prefetch in txns:
            decl = TxnDeclaration.of(
                reads=[(line * size, size) for line in reads],
                writes=[(line * size, size) for line in writes],
                line_size=size,
            )
            try:
                stats = run_txn(sim, decl, run_body(ops, expand, log), model,
                                prefetch=prefetch, retry_cap=8)
                results.append(("ok", stats))
            except (CapacityError, RetryCapExceededError) as exc:
                results.append((type(exc), exc.stats))
            except UndeclaredAccessError as exc:
                results.append((type(exc), exc.addr))
            except ValueError as exc:
                results.append((type(exc), str(exc)))
            sim.check_invariants()
        consults = None if model is None else (model.consultations, model._pos)
        outcomes.append((results, log, sim_state(sim), consults))
    assert outcomes[0] == outcomes[1]


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
        ctx.write_run(addr_of(2), ctx.read_run(addr_of(0), 16))

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
        assert ctx.read_run(addr_of(2, 2), 12) == [0] * 12
        seen["llc_hits"] = sim.counters.llc_hits - before[0]
        seen["events"] = len(sim.trace) - before[1]
        seen["l1"] = [sim.line_resident(line, "l1") for line in (2, 3)]

    stats = run_txn(sim, decl, body)
    assert stats.committed and stats.attempts == 1
    assert seen == {"llc_hits": 12, "events": 0, "l1": [False, False]}


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
        run_txn(sim, decl, lambda ctx: ctx.read_run(addr_of(0, 4), 8), model,
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
    assert not sim.line_resident(0)


@pytest.mark.parametrize(
    "body",
    [lambda ctx: ctx.read_run(4, 2), lambda ctx: ctx.write_run(68, [1, 2])],
)
def test_misaligned_run_rejected(body):
    decl = TxnDeclaration.of(reads=[(0, 64)], writes=[(64, 64)])
    with pytest.raises(ValueError, match="not word aligned"):
        run_txn(CacheSim(SMALL), decl, body)


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
    for expand in (False, True):
        sim = CacheSim(EDGE)
        sim.poke_words(0, range(1, 17))
        model = FireOnConsultation(fire_on)
        log = []
        try:
            result = run_txn(sim, decl, run_body(ops, expand, log), model,
                             prefetch=prefetch, retry_cap=1)
        except (ValueError, UndeclaredAccessError, RetryCapExceededError) as exc:
            result = (type(exc), str(exc))
        outcomes.append((result, log, sim_state(sim), model.consultations))
    assert outcomes[0] == outcomes[1]


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


@settings(max_examples=200, deadline=None)
@given(draw_programs())
def test_first_fire_matches_per_word_draws(program):
    rate, seed, pos, counts = program
    fast, ref = AccessProbability(rate, seed), AccessProbability(rate, seed)
    fast._pos = ref._pos = pos
    for count in counts:
        got = fast.first_fire(count)
        assert got == per_word_first_fire(ref, count)
        assert (fast.consultations, fast._pos) == (ref.consultations, ref._pos)
        assert fast._buf == ref._buf


def test_first_fire_across_the_buffer_refill():
    # 6 draws left in the buffer, then 14 from a fresh one
    fast, ref = AccessProbability(0.0, 3), AccessProbability(0.0, 3)
    fast._pos = ref._pos = 4090
    assert fast.first_fire(20) is per_word_first_fire(ref, 20) is None
    assert (fast.consultations, fast._pos) == (ref.consultations, ref._pos) == (20, 14)
    assert fast._buf == ref._buf
    # a spent buffer is refilled only when a draw is needed
    fast._pos = 4096
    fast.first_fire(0)
    assert fast._pos == 4096


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

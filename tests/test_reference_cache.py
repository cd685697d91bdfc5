"""The stamp-free cache and the undo-log rollback against the references.

``CacheSim`` keeps each set in LRU order as a dict of flag entries, and
``run_txn`` rolls an aborted attempt back by replaying its undo log.
``reference.ReferenceCacheSim`` is the simulator that kept LRU stamps, and
``reference.snapshot_run_txn`` the transaction loop that restored a
snapshot of the declared write lines.  Random traffic on tight
geometries, with pins, write-backs, faults, invalidations, flushes and
transactions that abort, goes through both pairs.  Each step other than
a transaction is made inside an open epoch or not: ``CacheSim`` pins
with epoch stamps, and the reference pins line by line and unpins every
line it pinned when the epoch closes.  After every step the
outcome, the trace, the counters, each set's (line, dirty, pinned)
entries in LRU order and memory contents (``reference.memory_contents``,
each nonzero word and its value) must agree.  So must the values each
transaction's body reads, in every attempt: on the reference side they
are taken from the reference simulator's memory, not from ``read_run``.

The reference applies the valid words or lines of an ``access_run`` or a
``prefetch`` before one out of range, where ``CacheSim`` refuses the whole
call.  So for such a step the reference takes no step, and ``CacheSim``
must raise the reference's ValueError and change nothing.
"""

import copy
from itertools import chain

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    AllLinesDeclaration,
    ReferenceCacheSim,
    check_invariants,
    in_epoch,
    lru_entries,
    memory_contents,
    reference_lru_entries,
    snapshot_run_txn,
)

from oblishuffle.cache import CacheConfig, CacheSim
from oblishuffle.txn import AccessProbability, run_txn

SPACE = 1 << 11  # 32 lines of 64 bytes
PAST = SPACE // 64  # the first line past the address space

kinds = st.sampled_from(["read", "write"])
# mostly lines 0..11, sometimes the line past the address space
lines = st.sampled_from(list(range(12)) + [PAST])
word_addrs = st.integers(0, 12 * 8 - 1).map(lambda w: 8 * w)
# some addresses are misaligned, negative or past the address space
addrs = st.one_of(word_addrs, st.integers(-16, SPACE + 16))


@st.composite
def geometries(draw):
    l1_sets = draw(st.sampled_from([1, 2]))
    l1_ways = draw(st.integers(1, 3))
    llc_sets = draw(st.sampled_from([1, 2, 4]))
    llc_ways = draw(st.integers(2, 5))
    assume(l1_sets * l1_ways <= llc_sets * llc_ways)
    return CacheConfig(64, l1_sets, l1_ways, llc_sets, llc_ways, SPACE)


@st.composite
def transactions(draw):
    writes = draw(st.lists(st.integers(0, 11), max_size=4, unique=True))
    reads = draw(st.lists(st.integers(0, 11), max_size=4, unique=True))
    # ``snapshot_run_txn`` reads ``all_lines``, which ``run_txn`` does not
    decl = AllLinesDeclaration.of(
        reads=[(line * 64, 64) for line in reads],
        writes=[(line * 64, 64) for line in writes],
    )
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from("wwrt"))
        if op == "t":
            ops.append(("t", 0, draw(st.integers(1, 4))))
            continue
        # mostly inside the declared lines, writes mostly in the write
        # lines, so that runs overlap and some words are stored twice in
        # one attempt
        ok = writes if op == "w" and writes else writes + reads
        line = draw(st.sampled_from(ok) if ok else lines)
        if draw(st.integers(0, 9)) == 0:
            line = draw(lines)
        addr = 64 * line + 8 * draw(st.integers(0, 7))
        if op == "w":
            ops.append(("w", addr, draw(st.lists(st.integers(1, 99), min_size=1,
                                                 max_size=10))))
        else:
            ops.append(("r", addr, draw(st.integers(1, 10))))
    rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    return (decl, ops, rate, draw(st.integers(0, 3)), draw(st.booleans()),
            draw(st.integers(1, 4)))


STEP_ARGS = {
    "access": st.tuples(addrs, kinds),
    "access_run": st.tuples(addrs, st.integers(0, 20), kinds),
    # spans of up to three lines, some empty, some reaching past the space
    "prefetch": st.tuples(st.lists(st.builds(lambda lo, n: range(lo, lo + n),
                                             lines, st.integers(0, 3)),
                                   max_size=4), kinds),
    "txn": st.tuples(transactions()),
    "write_word": st.tuples(word_addrs, st.integers(1, 99)),
    # the lines to write back, then the lines to unpin
    "commit": st.tuples(st.lists(lines, max_size=4), st.lists(lines, max_size=6)),
    "invalidate": st.tuples(st.lists(lines, max_size=3)),
    "flush": st.tuples(),
}
# accesses and transactions come more often than the steps that drop lines
STEP_NAMES = ["access", "access_run", "prefetch", "txn"] * 3 + [
    "write_word", "commit", "invalidate", "flush"]


def step_of(name):
    """A step as (name, made inside an open epoch, *args); a transaction
    opens its own epoch, so none is open when it starts."""
    inside = st.just(False) if name == "txn" else st.booleans()
    return st.tuples(inside, STEP_ARGS[name]).map(
        lambda drawn: (name, drawn[0], *drawn[1]))


steps = st.sampled_from(STEP_NAMES).flatmap(step_of)


def make_body(ops, reads, reference):
    """A body doing ``ops``.  The values of each run read, in aborted
    attempts too, are appended to ``reads``: what ``read_run`` returned,
    or, on the ``reference`` side, what the simulator's memory holds at
    those words once it has returned."""
    def body(ctx):
        for op, addr, arg in ops:
            if op == "w":
                ctx.write_run(addr, arg)
            elif op == "r":
                values = ctx.read_run(addr, arg)
                reads.append(ctx._sim.load_words(addr >> 3, arg)
                             if reference else values)
            else:
                ctx.tick(arg)

    return body


def apply(sim, step, txn, reads):
    name, _, *args = step
    if name == "access":
        return sim.access(*args)
    if name == "write_word":
        return sim.write_word(*args)
    if name == "access_run":
        addr, count, kind = args
        return sim.access_runs(((addr, count),), kind)
    if name == "prefetch":
        return sim.prefetch(*args)
    if name == "commit":
        emitted = sim.commit_lines(args[0])
        sim.unpin_lines(args[1])
        return emitted
    if name == "invalidate":
        return sim.invalidate_lines(*args)
    if name == "flush":
        return sim.flush_all()
    decl, ops, rate, seed, prefetch, cap = args[0]
    model = AccessProbability(rate, seed) if rate else None
    body = make_body(ops, reads, txn is snapshot_run_txn)
    return txn(sim, decl, body, model, prefetch=prefetch, retry_cap=cap)


def first_out_of_range(step):
    """The first address an ``access_run`` or ``prefetch`` step names
    outside the address space, or None."""
    name, _, *args = step
    if name == "access_run":
        addr, count = args[:2]
        addrs = range(addr, addr + 8 * count, 8)
    elif name == "prefetch":
        addrs = [line * 64 for line in chain.from_iterable(args[0])]
    else:
        return None
    return next((a for a in addrs if not 0 <= a < SPACE), None)


def state(sim):
    """A copy of the state ``assert_same_state`` compares."""
    return copy.deepcopy((sim.trace, sim.counters, lru_entries(sim),
                          memory_contents(sim), sim.txn_open))


def outcome(call):
    """What ``call`` returned, or the exception it raised, comparably."""
    try:
        return ("ok", call())
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "stats", None))


def assert_same_state(fast, ref):
    assert fast.trace == ref.trace
    assert fast.counters == ref.counters
    assert lru_entries(fast) == reference_lru_entries(ref)
    assert memory_contents(fast) == memory_contents(ref)
    assert fast.txn_open == ref.txn_open


@settings(max_examples=400, deadline=None)
@given(geometries(), st.lists(steps, min_size=5, max_size=40))
def test_cache_and_rollback_match_the_stamp_reference(config, program):
    fast, ref = CacheSim(config), ReferenceCacheSim(config)
    for sim in (fast, ref):
        # words present before any traffic, on lines 0..4; the rest absent
        sim.poke_words(0, list(range(1, 40)))
    for step in program:
        for sim in (fast, ref):
            in_epoch(sim, step[1])
        assert_same_state(fast, ref)  # a closed epoch leaves no pin
        bad = first_out_of_range(step)
        if bad is not None:
            before = state(fast)
            assert outcome(lambda: apply(fast, step, run_txn, [])) == (
                "ValueError", f"address {bad} out of range", None), step
            assert state(fast) == before
            continue
        fast_reads, ref_reads = [], []
        got = outcome(lambda: apply(fast, step, run_txn, fast_reads))
        want = outcome(lambda: apply(ref, step, snapshot_run_txn, ref_reads))
        assert got == want, step
        assert fast_reads == ref_reads, step
        assert_same_state(fast, ref)
        check_invariants(fast)


def test_lru_order_is_insertion_order_with_moves_on_hits():
    # L1 1 set x 3 ways, LLC 1 set x 4 ways
    config = CacheConfig(64, 1, 3, 1, 4, SPACE)
    fast, ref = CacheSim(config), ReferenceCacheSim(config)
    for sim in (fast, ref):
        for line in (0, 1, 2):
            sim.access(line * 64, "read")
        sim.open_txn()  # from here on every access pins
        sim.access(0, "write")  # L1 hit: line 0 moves to the end
        sim.access(3 * 64, "read")  # evicts line 1, the first entry
        # an LLC hit moves line 1 to the end of the LLC set; L1 evicts 2
        sim.access(64, "read")
    assert lru_entries(fast) == reference_lru_entries(ref)
    assert lru_entries(fast) == [
        [(0, True, True), (3, False, True), (1, False, True)],
        [(0, False, True), (2, False, False), (3, False, True), (1, False, True)],
    ]
    for sim in (fast, ref):
        sim.close_txn()
    assert lru_entries(fast) == reference_lru_entries(ref)
    assert not any(pin for s in lru_entries(fast) for _, _, pin in s)

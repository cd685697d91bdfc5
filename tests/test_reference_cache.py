"""The stamp-free cache and the undo-log rollback against the references.

``CacheSim`` keeps each set in LRU order as a dict of flag entries, and
``run_txn`` rolls an aborted attempt back by replaying its undo log.
``reference.ReferenceCacheSim`` is the simulator that kept LRU stamps, and
``reference.snapshot_run_txn`` the transaction loop that restored a
snapshot of the declared write lines.  Random traffic on tight
geometries, with pins, write-backs, faults, invalidations, flushes and
transactions that abort, goes through both pairs; after every step the
outcome, the trace, the counters, each set's (line, dirty, pinned)
entries in LRU order and memory must agree.

The reference applies the valid words or lines of an ``access_run`` or a
``prefetch`` before one out of range, where ``CacheSim`` refuses the whole
call.  So for such a step the reference takes no step, and ``CacheSim``
must raise the reference's ValueError and change nothing.
"""

import copy

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    ReferenceCacheSim,
    lru_entries,
    reference_lru_entries,
    snapshot_run_txn,
)

from oblishuffle.cache import CacheConfig, CacheSim
from oblishuffle.txn import AccessProbability, TxnDeclaration, run_txn

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
    decl = TxnDeclaration.of(
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
    "access": st.tuples(addrs, kinds, st.booleans()),
    "access_run": st.tuples(addrs, st.integers(0, 20), kinds, st.booleans()),
    "prefetch": st.tuples(st.lists(lines, max_size=6), kinds),
    "txn": st.tuples(transactions()),
    "write_word": st.tuples(word_addrs, st.integers(1, 99), st.booleans()),
    "commit": st.tuples(st.lists(lines, max_size=4), st.lists(lines, max_size=6)),
    "invalidate": st.tuples(st.lists(lines, max_size=3)),
    "flush": st.tuples(),
}
# accesses and transactions come more often than the steps that drop lines
STEP_NAMES = ["access", "access_run", "prefetch", "txn"] * 3 + [
    "write_word", "commit", "invalidate", "flush"]
steps = st.sampled_from(STEP_NAMES).flatmap(
    lambda name: STEP_ARGS[name].map(lambda args: (name, *args)))


def make_body(ops):
    def body(ctx):
        for op, addr, arg in ops:
            if op == "w":
                ctx.write_run(addr, arg)
            elif op == "r":
                ctx.read_run(addr, arg)
            else:
                ctx.tick(arg)

    return body


def apply(sim, step, txn):
    name, *args = step
    if name == "access":
        return sim.access(*args)
    if name == "write_word":
        return sim.write_word(*args)
    if name == "access_run":
        return sim.access_run(*args)
    if name == "prefetch":
        return sim.prefetch(*args)
    if name == "commit":
        return sim.commit_lines(*args)
    if name == "invalidate":
        return sim.invalidate_lines(*args)
    if name == "flush":
        return sim.flush_all()
    decl, ops, rate, seed, prefetch, cap = args[0]
    model = AccessProbability(rate, seed) if rate else None
    return txn(sim, decl, make_body(ops), model, prefetch=prefetch, retry_cap=cap)


def first_out_of_range(step):
    """The first address an ``access_run`` or ``prefetch`` step names
    outside the address space, or None."""
    name, *args = step
    if name == "access_run":
        addr, count = args[:2]
        addrs = range(addr, addr + 8 * count, 8)
    elif name == "prefetch":
        addrs = [line * 64 for line in args[0]]
    else:
        return None
    return next((a for a in addrs if not 0 <= a < SPACE), None)


def state(sim):
    """A copy of the state ``assert_same_state`` compares."""
    return copy.deepcopy((sim.trace, sim.counters, lru_entries(sim), sim.memory,
                          sim.txn_open))


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
    assert fast.memory == ref.memory
    assert fast.txn_open == ref.txn_open


@settings(max_examples=400, deadline=None)
@given(geometries(), st.lists(steps, min_size=5, max_size=40))
def test_cache_and_rollback_match_the_stamp_reference(config, program):
    fast, ref = CacheSim(config), ReferenceCacheSim(config)
    for sim in (fast, ref):
        # words present before any traffic, on lines 0..4; the rest absent
        sim.poke_words(0, list(range(1, 40)))
    for step in program:
        bad = first_out_of_range(step)
        if bad is not None:
            before = state(fast)
            assert outcome(lambda: apply(fast, step, run_txn)) == (
                "ValueError", f"address {bad} out of range", None), step
            assert state(fast) == before
            continue
        got = outcome(lambda: apply(fast, step, run_txn))
        want = outcome(lambda: apply(ref, step, snapshot_run_txn))
        assert got == want, step
        assert_same_state(fast, ref)
        fast.check_invariants()


def test_lru_order_is_insertion_order_with_moves_on_hits():
    # L1 1 set x 3 ways, LLC 1 set x 4 ways
    config = CacheConfig(64, 1, 3, 1, 4, SPACE)
    fast, ref = CacheSim(config), ReferenceCacheSim(config)
    for sim in (fast, ref):
        for line in (0, 1, 2):
            sim.access(line * 64, "read")
        sim.access(0, "write", pin=True)  # L1 hit: line 0 moves to the end
        sim.access(3 * 64, "read")  # evicts line 1, the first entry
        # an LLC hit moves line 1 to the end of the LLC set; L1 evicts 2
        sim.access(64, "read")
    assert lru_entries(fast) == reference_lru_entries(ref)
    assert lru_entries(fast) == [
        [(0, True, True), (3, False, False), (1, False, False)],
        [(0, False, True), (2, False, False), (3, False, False), (1, False, False)],
    ]

"""Interrupts placed by the OS.

An enclave's OS decides when interrupts arrive, and TSX aborts a
transaction on any of them.  Two facts make such interrupts harmless to
melbourne's obliviousness and bound the livelock they can cause:

- every transaction makes the same number of interrupt consultations on
  every input of one size, so a schedule driven by what the adversary
  observes sees the same consultations whatever the data;
- under a periodic timer that fires on every T-th consultation of the
  run, a prefetched transaction making c consultations per attempt
  commits if and only if T > c: with T <= c every retry meets the timer
  at the same point and aborts until the retry cap.

A closed-loop adversary, which decides each interrupt from the trace it
has seen, therefore sees one trace on every input: melbourne's trace is
the same, while naive's, which follows the permutation, differs.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import PeriodicTimer, TraceAdversary
from test_verify import tight_runs

from oblishuffle.cache import CacheSim
from oblishuffle.cli import _consultations_per_txn
from oblishuffle.layout import LayoutInfeasibleError
from oblishuffle.shuffle import ShuffleEngine, ShuffleParams, gen_perm
from oblishuffle.txn import CapacityError, RetryCapExceededError
from oblishuffle.verify import PROGRAMS, capture_trace, oracle_apply_perm

# n: (transactions, the largest per-transaction consultation count)
COUNTS = {64: (48, 112), 256: (96, 288)}


def inputs(n):
    """The identity, then gen_perm 3 and gen_perm 8 of reversed data."""
    reverse = list(range(n))[::-1]
    return [(list(range(n)), list(range(n))),
            (reverse, gen_perm(n, 3)),
            (reverse, gen_perm(n, 8))]


def test_periodic_timer_fires_every_period_th_consultation():
    # it fires on consultations 3, 6 and 9, and each call stops at a fire
    timer = PeriodicTimer(3)
    assert [timer.first_fire(c) for c in (2, 1, 0, 5, 4, 1)] == [
        None, 0, None, 2, 2, None]
    assert timer.consultations == 10


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_consultation_counts_are_equal_across_inputs(n):
    counts = [_consultations_per_txn(data, perm, n, 2, 0) for data, perm in inputs(n)]
    assert counts[1] == counts[0] and counts[2] == counts[0]
    assert (len(counts[0]), max(counts[0])) == COUNTS[n]


def run_melbourne(sim, data, perm, period, stats):
    """melbourne at pad 2, seed 0 under a ``period`` timer with a retry
    cap of 8, its transactions' stats appended to ``stats``."""
    engine = ShuffleEngine(sim, ShuffleParams(len(data), 2, 0),
                           interrupt_model=PeriodicTimer(period), retry_cap=8)
    try:
        return engine.melbourne(data, perm)
    finally:
        stats.extend(engine.stats)


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_a_timer_no_longer_than_a_transaction_livelocks_it(n):
    _, largest = COUNTS[n]
    for data, perm in inputs(n):
        stats = []
        with pytest.raises(RetryCapExceededError):
            run_melbourne(CacheSim(), data, perm, largest, stats)
        # the first transaction is a scatter with the largest count
        assert len(stats) == 1
        assert (stats[0].attempts, stats[0].ac4, stats[0].committed) == (8, 8, False)


@pytest.mark.parametrize("n, attempts", [(64, 95), (256, 191)])
def test_a_timer_longer_than_every_transaction_lets_each_commit(n, attempts):
    txns, largest = COUNTS[n]
    traces = []
    for data, perm in inputs(n):
        stats = []
        trace, out = capture_trace(
            lambda sim, data, perm, *_: run_melbourne(sim, data, perm, largest + 1, stats),
            data, perm)
        assert out == oracle_apply_perm(data, perm)
        assert len(stats) == txns and all(s.committed for s in stats)
        assert sum(s.attempts for s in stats) == attempts
        assert max(s.attempts for s in stats) == 2
        traces.append(trace)
    assert traces[1] == traces[0] and traces[2] == traces[0]


def adversary_traces(program, config, n, seed, salt, bits):
    """``program``'s trace on each of ``inputs(n)`` under a
    ``TraceAdversary`` that watches that run's simulator, each output
    checked against the oracle, and the adversaries' fire counts.  Only
    the first input may be refused."""
    fired = []

    def run(sim, data, perm, seed, pad_factor, _):
        model = TraceAdversary(sim, salt, bits)
        try:
            return PROGRAMS[program](sim, data, perm, seed, pad_factor, model)[0]
        finally:
            fired.append(model.fired)

    traces = []
    for data, perm in inputs(n):
        try:
            trace, out = capture_trace(run, data, perm, seed=seed, config=config)
        except (LayoutInfeasibleError, CapacityError, RetryCapExceededError):
            if traces:
                raise
            assume(False)  # a geometry the program cannot run on
        assert out == oracle_apply_perm(data, perm)
        traces.append(trace)
    return traces, fired


def test_melbourne_commits_through_the_adversary_with_one_trace():
    # a fire on one call in 4 aborts 53 attempts of the 48 transactions
    # at n = 64, at the same points on every input
    traces, fired = adversary_traces("melbourne", None, 64, 0, 0, 2)
    assert traces[1] == traces[0] and traces[2] == traces[0]
    assert fired == [53] * 3


@settings(max_examples=60, deadline=None)
@given(tight_runs(), st.integers(0, 2**64 - 1), st.integers(2, 5), st.data())
def test_a_trace_watching_adversary_sees_one_melbourne_trace(run, salt, bits, data):
    # melbourne makes a few calls per attempt, so it commits under a fire
    # on one call in 4 to 32; naive makes 3n, each of one consultation,
    # so it gets a width near log2(3n) to commit within the retry cap
    config, n, _, seed = run
    traces, _ = adversary_traces("melbourne", config, n, seed, salt, bits)
    assert traces[1] == traces[0] and traces[2] == traces[0]
    wide = (3 * n).bit_length()
    bits = data.draw(st.integers(wide, wide + 2), label="naive bits")
    traces, _ = adversary_traces("naive", config, n, seed, salt, bits)
    assert traces[1] != traces[0] or traces[2] != traces[0]

"""Verifier tests: the brute-force oracle, trace capture and comparison,
and geometry recovery through the transaction interface."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oblishuffle.cache import (
    KIND_MISS,
    KIND_WRITEBACK,
    AccessCounters,
    CacheConfig,
    CacheSim,
    Trace,
    TraceEvent,
)
from oblishuffle.layout import LayoutInfeasibleError
from test_acceptance import PROBE_CASES, probe_geometry
from test_shuffle import perm_against_seed

from oblishuffle.shuffle import ShuffleParams, gen_perm
from oblishuffle.txn import (
    CapacityError,
    RetryCapExceededError,
    TxnDeclaration,
    run_txn,
)
from oblishuffle.verify import (
    capture_trace,
    first_divergence,
    oracle_apply_perm,
    probe_cache_sizes,
    verify_obliviousness,
)

FIG_PERM = [3, 1, 6, 5, 7, 2, 0, 8, 4]


def some_data(n, seed):
    return [(k * 2654435761 + seed * 97) & 0xFFFFFFFF for k in range(n)]


def invert(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


# -- oracle ------------------------------------------------------------------


def test_oracle_identity():
    assert oracle_apply_perm([5, 6, 7], [0, 1, 2]) == [5, 6, 7]


def test_oracle_nine_element_instance():
    data = [100 + k for k in range(9)]
    assert oracle_apply_perm(data, FIG_PERM) == [
        106, 101, 105, 100, 108, 103, 102, 104, 107,
    ]
    assert oracle_apply_perm(oracle_apply_perm(data, FIG_PERM), invert(FIG_PERM)) == data


def test_oracle_rejects_non_bijections():
    with pytest.raises(ValueError):
        oracle_apply_perm([1, 2, 3], [0, 0, 1])
    with pytest.raises(ValueError):
        oracle_apply_perm([1, 2, 3], [0, 1, 3])
    with pytest.raises(ValueError):
        oracle_apply_perm([1, 2, 3], [0, 1])


@pytest.mark.parametrize("perm, want", [
    ([1, 0.0, 3, 2], "perm value 0.0 is not an integer"),
    ([1, 0, 3, 2.5], "perm value 2.5 is not an integer"),
    ([1, None, 3, 2], "perm value None is not an integer"),
    ([9, 0.5, 3, 2], "perm value 9 out of range"),  # the first bad value
    ([1, 1, 0.5, 2], "perm repeats value 1"),
])
def test_oracle_refuses_a_non_integer_perm_value_naming_it(perm, want):
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        oracle_apply_perm([5, 6, 7, 8], perm)


def test_oracle_takes_numpy_integers():
    assert oracle_apply_perm([5, 6, 7, 8], np.array([1, 0, 3, 2])) == [6, 5, 8, 7]
    assert oracle_apply_perm(np.arange(4), [np.int32(2), 0, 3, 1]) == [1, 3, 0, 2]


@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_oracle_inverse_roundtrip(n, seed):
    perm = gen_perm(n, seed)
    data = some_data(n, seed & 0xFFFF)
    assert oracle_apply_perm(oracle_apply_perm(data, perm), invert(perm)) == data


# -- trace capture -----------------------------------------------------------


def test_unknown_program_name_is_refused_naming_the_known_ones():
    data = list(range(16))
    want = "^unknown algorithm 'nope'; one of bubble, melbourne, naive$"
    with pytest.raises(ValueError, match=want):
        capture_trace("nope", data, data)
    with pytest.raises(ValueError, match=want):
        verify_obliviousness("nope", [(data, data), (data, data)])


def test_capture_is_deterministic():
    data, perm = some_data(16, 1), gen_perm(16, 2)
    t1, out1 = capture_trace("melbourne", data, perm, seed=5)
    t2, out2 = capture_trace("melbourne", data, perm, seed=5)
    assert t1 == t2
    assert out1 == out2 == oracle_apply_perm(data, perm)


def test_planned_shuffle_trace_ignores_data_and_perm():
    trials = [
        (some_data(16, 1), gen_perm(16, 10)),
        (some_data(16, 2), gen_perm(16, 20)),
        (some_data(16, 3), [15 - k for k in range(16)]),
    ]
    traces = [capture_trace("melbourne", d, p, seed=7)[0] for d, p in trials]
    assert traces[0] == traces[1] == traces[2]
    assert len(traces[0]) > 0


def test_naive_trace_leaks_once_arrays_exceed_one_line():
    fwd = list(range(16))
    rev = fwd[::-1]
    data = some_data(16, 4)
    t_fwd, _ = capture_trace("naive", data, fwd)
    t_rev, _ = capture_trace("naive", data, rev)
    assert t_fwd != t_rev
    # inside one line there is nothing to leak
    short_fwd, _ = capture_trace("naive", some_data(8, 5), list(range(8)))
    short_rev, _ = capture_trace("naive", some_data(8, 5), list(range(7, -1, -1)))
    assert short_fwd == short_rev


def test_word_level_baseline_trace_is_fixed():
    t1, _ = capture_trace("bubble", some_data(16, 6), gen_perm(16, 1))
    t2, _ = capture_trace("bubble", some_data(16, 7), gen_perm(16, 2))
    assert t1 == t2
    kinds = {ev.kind for ev in t1}
    assert kinds == {KIND_MISS, KIND_WRITEBACK}  # flush epilogue included


# -- divergence location -----------------------------------------------------


def ev(kind, line):
    return TraceEvent(kind, line)


def test_first_divergence_none_for_equal_traces():
    t = Trace((ev(KIND_MISS, 0), ev(KIND_WRITEBACK, 0)))
    assert first_divergence(t, t) is None


def test_first_divergence_locates_mismatch():
    a = Trace((ev(KIND_MISS, 0), ev(KIND_MISS, 1), ev(KIND_MISS, 2)))
    b = Trace((ev(KIND_MISS, 0), ev(KIND_MISS, 9), ev(KIND_MISS, 2)))
    assert first_divergence(a, b) == (1, ev(KIND_MISS, 1), ev(KIND_MISS, 9))


def test_first_divergence_reports_missing_tail():
    a = Trace((ev(KIND_MISS, 0),))
    b = Trace((ev(KIND_MISS, 0), ev(KIND_WRITEBACK, 0)))
    assert first_divergence(a, b) == (1, None, ev(KIND_WRITEBACK, 0))
    assert first_divergence(b, a) == (1, ev(KIND_WRITEBACK, 0), None)


# -- verification ------------------------------------------------------------


def test_verify_needs_two_inputs_of_equal_size():
    with pytest.raises(ValueError):
        verify_obliviousness("melbourne", [(some_data(16, 0), gen_perm(16, 0))])
    with pytest.raises(ValueError):
        verify_obliviousness(
            "melbourne",
            [(some_data(16, 0), gen_perm(16, 0)), (some_data(64, 0), gen_perm(64, 0))],
        )


def test_verify_planned_shuffle_over_twenty_inputs():
    inputs = [(some_data(16, s), gen_perm(16, 100 + s)) for s in range(20)]
    report = verify_obliviousness("melbourne", inputs, seed=3)
    assert report.all_equal
    assert report.first_divergence is None
    assert report.trials == 20
    assert report.trace_length > 0
    assert "traces identical" in report.summary()


def test_verify_locates_naive_leak():
    inputs = [
        (some_data(16, 1), list(range(16))),
        (some_data(16, 1), list(range(15, -1, -1))),
    ]
    report = verify_obliviousness("naive", inputs)
    assert not report.all_equal
    d = report.first_divergence
    assert d is not None and d.trial_a == 0 and d.trial_b == 1
    assert d.event_a != d.event_b
    assert "diverge" in report.summary()
    flipped = verify_obliviousness("naive", inputs[::-1])
    assert not flipped.all_equal  # order of inputs cannot change the verdict


def test_verify_checks_outputs_against_oracle():
    def broken(sim, data, perm, seed, pad_factor, interrupt_model):
        return list(data)  # never permutes anything

    inputs = [(some_data(4, 1), [1, 0, 3, 2]), (some_data(4, 2), [1, 0, 3, 2])]
    with pytest.raises(RuntimeError):
        verify_obliviousness(broken, inputs)


# -- LRU state under LLC pressure ---------------------------------------------


@pytest.mark.parametrize("l1_ways", [4, 8])
def test_routing_leaves_no_lru_trace_under_llc_pressure(l1_ways):
    # L1 8 sets over a 4-set, 16-way LLC: body hits leave an LRU order that
    # survives the commit, so if the scatter wrote elements in routing
    # order, later victim choices would follow the permutation (such
    # writes diverged from the identity at events 935 and 937)
    config = CacheConfig(64, 8, l1_ways, 4, 16, 1 << 20)
    data = list(range(64))
    inputs = [(data, list(range(64))), (data, gen_perm(64, 3))]
    report = verify_obliviousness("melbourne", inputs, seed=3, pad_factor=2,
                                  config=config)
    assert report.all_equal, report.summary()


@st.composite
def tight_runs(draw):
    try:
        config = CacheConfig(
            64,
            draw(st.sampled_from([2, 4, 8, 16])),
            draw(st.sampled_from([2, 4, 8])),
            draw(st.sampled_from([4, 8, 16, 32])),
            draw(st.sampled_from([4, 8, 16])),
            1 << 20,
        )
    except ValueError:  # L1 larger than the LLC
        assume(False)
    n = draw(st.sampled_from([16, 64, 256]))
    return config, n, draw(st.permutations(range(n))), draw(st.integers(0, 99))


@settings(max_examples=40, deadline=None)
@given(tight_runs())
def test_traces_ignore_the_permutation_on_tight_geometries(run):
    # at pad 2 and n <= 256 a slice holds a whole bucket, so no overflow
    # restart can make the trace depend on the input
    config, n, perm, seed = run
    data = list(range(n))
    try:
        report = verify_obliviousness(
            "melbourne", [(data, list(range(n))), (data, perm)], seed=seed,
            config=config,
        )
    except (LayoutInfeasibleError, CapacityError, RetryCapExceededError):
        assume(False)  # a geometry the shuffle cannot run on
    assert report.all_equal, report.summary()


# -- precondition: the permutation is independent of the seed ----------------


def test_a_perm_chosen_against_the_seed_diverges_and_independent_ones_do_not():
    # with the seed known, a permutation can be crafted so that pass 3
    # overflows and the shuffle restarts; drawn independently of the
    # seed, permutations leave the trace as the identity's
    n, seed = 49, 5
    data = some_data(n, 1)
    identity = list(range(n))
    crafted = perm_against_seed(ShuffleParams(n, pad_factor=1, seed=seed))
    report = verify_obliviousness(
        "melbourne", [(data, identity), (data, crafted)], seed=seed, pad_factor=1
    )
    assert not report.all_equal
    assert report.first_divergence.index == 257
    independent = [(data, gen_perm(n, s)) for s in range(100, 110)]
    report = verify_obliviousness(
        "melbourne", [(data, identity)] + independent, seed=seed, pad_factor=1
    )
    assert report.all_equal, report.summary()


# -- geometry probing --------------------------------------------------------


def geometry(l1_kib, llc_kib, line=64):
    l1_lines = l1_kib * 1024 // line
    llc_lines = llc_kib * 1024 // line
    return CacheConfig(
        line_size=line,
        l1_sets=max(1, l1_lines // 8),
        l1_ways=min(8, l1_lines),
        llc_sets=max(1, llc_lines // 16),
        llc_ways=min(16, llc_lines),
    )


@pytest.mark.parametrize("l1_kib,llc_kib", [(1, 4), (1, 64), (4, 64)])
def test_probe_recovers_toy_geometries(l1_kib, llc_kib):
    cfg = geometry(l1_kib, llc_kib)
    assert (cfg.l1_capacity, cfg.llc_capacity) == (l1_kib * 1024, llc_kib * 1024)
    got = probe_cache_sizes(CacheSim(cfg))
    assert got == (l1_kib * 1024, llc_kib * 1024)


def test_probe_degenerate_equal_levels():
    cfg = CacheConfig(line_size=64, l1_sets=8, l1_ways=8, llc_sets=8, llc_ways=8)
    assert probe_cache_sizes(CacheSim(cfg)) == (4096, 4096)


def test_probe_with_other_line_size():
    cfg = CacheConfig(line_size=32, l1_sets=8, l1_ways=4, llc_sets=32, llc_ways=8)
    got = probe_cache_sizes(CacheSim(cfg))
    assert got == (1024, 8192)


# criterion 7's geometries and the default
PROBE_GEOMETRIES = [probe_geometry(*case) for case in PROBE_CASES] + [CacheConfig()]


@pytest.mark.parametrize("cfg", PROBE_GEOMETRIES)
def test_probe_makes_no_cache_access(cfg):
    # the capacity check alone answers each probe, all on the one simulator
    sim = CacheSim(cfg)
    assert probe_cache_sizes(sim) == (cfg.l1_capacity, cfg.llc_capacity)
    assert (sim.trace, sim.counters) == ([], AccessCounters())


@pytest.mark.parametrize("cfg", PROBE_GEOMETRIES)
@pytest.mark.parametrize("side", ["writes", "reads"])
def test_a_probed_capacity_commits_with_prefetch(cfg, side):
    # what the probe finds fits can be prefetched: one span from address
    # zero puts at most ``ways`` lines in a set
    size = cfg.l1_capacity if side == "writes" else cfg.llc_capacity
    decl = TxnDeclaration.of(**{side: [(0, size)]}, line_size=cfg.line_size)
    stats = run_txn(CacheSim(cfg), decl)
    assert (stats.committed, stats.attempts, stats.ac2) == (True, 1, 0)

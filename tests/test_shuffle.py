"""Shuffle pipeline tests.

The 9-element instance is fully hand-traced: the intermediate grid after
one scatter phase and the final three-pass output are both frozen here
and must match the routing rule exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import peek_word, unpack

from oblishuffle.cache import CacheConfig, CacheSim
from oblishuffle.layout import LayoutInfeasibleError, check_conflicts
from oblishuffle.shuffle import (
    BucketOverflowError,
    MalformedIntermediateError,
    OverflowRetriesExceededError,
    ShuffleEngine,
    ShuffleParams,
    arena_bytes,
    bubble_shuffle,
    gen_perm,
    melbourne_shuffle,
    naive_shuffle,
    pack,
)
from oblishuffle import shuffle
from oblishuffle.txn import CapacityError, RetryCapExceededError, run_txn

FIG_PERM = [3, 1, 6, 5, 7, 2, 0, 8, 4]
FIG_DATA = [100 + k for k in range(9)]


def apply_perm(data, perm):
    out = [None] * len(data)
    for k, dest in enumerate(perm):
        out[dest] = data[k]
    return out


def some_data(n, seed):
    return [(k * 2654435761 + seed * 97) & 0xFFFFFFFF for k in range(n)]


def intermediate_rows(engine):
    p = engine.params
    return [
        engine.sim.peek_words(engine.inter + j * engine.stride_bytes, p.bucket_capacity)
        for j in range(p.bucket_count)
    ]


def apply_pass(engine, src_vals, pi_vals):
    """One pass as a standalone call: returns out with out[pi[k]] = src[k]."""
    engine.sim.poke_words(engine.data_src, src_vals)
    engine.sim.poke_words(engine.perm_r, pi_vals)
    engine.run_pass(engine.data_src, engine.perm_r, engine.out)
    return engine.sim.peek_words(engine.out, engine.params.n)


# -- parameters and packing --------------------------------------------------


def test_params_derivations():
    p = ShuffleParams(16)
    assert (p.bucket_count, p.slice_len, p.bucket_capacity, p.dummy_tag) == (
        4, 8, 32, 16,
    )
    assert ShuffleParams(9).slice_len == 8  # 2 * ceil(log2 9)
    assert ShuffleParams(9).bucket_capacity == 24
    one = ShuffleParams(1)
    assert (one.bucket_count, one.slice_len, one.bucket_capacity) == (1, 1, 1)


@pytest.mark.parametrize("n", [0, -4, 8, 12])
def test_params_reject_non_square_sizes(n):
    with pytest.raises(ValueError):
        ShuffleParams(n)


def test_params_reject_bad_pad_and_huge_n():
    with pytest.raises(ValueError):
        ShuffleParams(16, pad_factor=0)
    with pytest.raises(ValueError):
        ShuffleParams(65537 * 65537)


@given(st.integers(0, 2**31), st.integers(0, 2**32 - 1))
def test_pack_roundtrip(tag, value):
    assert unpack(pack(tag, value)) == (tag, value)


# -- permutation generator ---------------------------------------------------


def test_gen_perm_trivial_sizes():
    assert gen_perm(0, 1) == []
    assert gen_perm(1, 1) == [0]


def test_gen_perm_deterministic_in_seed():
    assert gen_perm(100, 7) == gen_perm(100, 7)
    assert gen_perm(100, 7) != gen_perm(100, 8)


@given(st.integers(0, 200), st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_gen_perm_is_a_bijection(n, seed):
    assert sorted(gen_perm(n, seed)) == list(range(n))


def test_gen_perm_uniform_over_small_group():
    # 60000 draws over the 6 permutations of 3 elements; each count must
    # land within 3 sigma of the multinomial mean 10000
    counts = {}
    for seed in range(60000):
        key = tuple(gen_perm(3, seed))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    sigma = (60000 * (1 / 6) * (5 / 6)) ** 0.5
    for count in counts.values():
        assert abs(count - 10000) <= 3 * sigma


# -- distribute: the hand-traced grid ----------------------------------------


def dummy_word(params):
    return pack(params.dummy_tag, 0)


def test_distribute_smallest_square_identity():
    engine = ShuffleEngine(CacheSim(), ShuffleParams(4))
    engine.sim.poke_words(engine.data_src, [10, 11, 12, 13])
    engine.sim.poke_words(engine.perm_r, [0, 1, 2, 3])
    engine.distribute(engine.data_src, engine.perm_r)
    d = dummy_word(engine.params)
    assert intermediate_rows(engine) == [
        [pack(0, 10), pack(1, 11), d, d, d, d, d, d],
        [d, d, d, d, pack(2, 12), pack(3, 13), d, d],
    ]


def test_distribute_nine_element_grid():
    # routing rule traced by hand: element k goes to row dest//3, into the
    # slice owned by its source bucket, in source order
    engine = ShuffleEngine(CacheSim(), ShuffleParams(9))
    engine.sim.poke_words(engine.data_src, FIG_DATA)
    engine.sim.poke_words(engine.perm_r, FIG_PERM)
    engine.distribute(engine.data_src, engine.perm_r)
    d = dummy_word(engine.params)
    pad = [d] * 7
    assert intermediate_rows(engine) == [
        [pack(1, 101)] + pad + [pack(2, 105)] + pad + [pack(0, 106)] + pad,
        [pack(3, 100)] + pad + [pack(5, 103)] + pad + [pack(4, 108)] + pad,
        [pack(6, 102)] + pad + [pack(7, 104)] + pad + [pack(8, 107)] + pad,
    ]
    # finishing the pass applies the permutation in one hop
    engine.cleanup(engine.out)
    assert engine.sim.peek_words(engine.out, 9) == apply_perm(FIG_DATA, FIG_PERM)


def test_single_pass_matches_direct_application():
    engine = ShuffleEngine(CacheSim(), ShuffleParams(16))
    data = some_data(16, 3)
    pi = gen_perm(16, 11)
    assert apply_pass(engine, data, pi) == apply_perm(data, pi)


# -- cleanup -----------------------------------------------------------------


def test_gather_sorted_row_unchanged():
    engine = ShuffleEngine(CacheSim(), ShuffleParams(1))
    engine.sim.poke_words(engine.inter, [pack(0, 42)])
    engine.gather_txn(0, engine.out)
    assert peek_word(engine.sim, engine.out) == 42


def test_gather_drops_dummies_and_sorts_by_tag():
    engine = ShuffleEngine(CacheSim(), ShuffleParams(4))
    d = dummy_word(engine.params)
    engine.sim.poke_words(engine.inter, [d, pack(1, 7), d, pack(0, 9), d, d, d, d])
    engine.gather_txn(0, engine.out)
    assert engine.sim.peek_words(engine.out, 2) == [9, 7]


def test_gather_rejects_wrong_element_count():
    engine = ShuffleEngine(CacheSim(), ShuffleParams(4))
    d = dummy_word(engine.params)
    engine.sim.poke_words(engine.inter, [pack(0, 9)] + [d] * 7)
    with pytest.raises(MalformedIntermediateError):
        engine.gather_txn(0, engine.out)


def test_gather_rejects_foreign_tag():
    engine = ShuffleEngine(CacheSim(), ShuffleParams(4))
    d = dummy_word(engine.params)
    engine.sim.poke_words(engine.inter, [pack(0, 9), pack(3, 8)] + [d] * 6)
    with pytest.raises(MalformedIntermediateError):
        engine.gather_txn(0, engine.out)


def test_gather_rejects_a_repeated_tag():
    # two elements, both tagged 0: the count and the tag range are right,
    # but one destination would be written twice and the other never
    engine = ShuffleEngine(CacheSim(), ShuffleParams(4))
    d = dummy_word(engine.params)
    engine.sim.poke_words(engine.inter, [pack(0, 9), d, pack(0, 8)] + [d] * 5)
    with pytest.raises(MalformedIntermediateError, match="repeats a tag"):
        engine.gather_txn(0, engine.out)
    assert engine.sim.peek_words(engine.out, 2) == [0, 0]


def test_scatter_writes_its_slices_in_ascending_order():
    # the body's writes go slice by slice, whatever the routing, in one
    # run list per attempt
    engine = ShuffleEngine(CacheSim(), ShuffleParams(16, seed=1))
    engine.sim.poke_words(engine.data_src, some_data(16, 0))
    engine.sim.poke_words(engine.perm_r, gen_perm(16, 4))
    write_calls = []
    access_runs = engine.sim.access_runs

    def logged(runs, kind):
        if kind == "write":
            write_calls.append([addr for addr, _ in runs])
        access_runs(runs, kind)

    engine.sim.access_runs = logged
    engine.scatter_txn(0, engine.data_src, engine.perm_r)
    assert len(write_calls) == engine.stats[-1].attempts == 1
    assert write_calls[0] == [engine._slice_addr(0, j) for j in range(4)]


# -- overflow and restart ----------------------------------------------------


def test_skewed_routing_overflows_a_slice():
    # pad 1 at n=64 gives 6-element slices; identity routing sends all 8
    # elements of bucket 0 to destination 0
    engine = ShuffleEngine(CacheSim(), ShuffleParams(64, pad_factor=1))
    engine.sim.poke_words(engine.data_src, some_data(64, 0))
    engine.sim.poke_words(engine.perm_r, list(range(64)))
    with pytest.raises(BucketOverflowError) as exc_info:
        engine.distribute(engine.data_src, engine.perm_r)
    assert (exc_info.value.src_bucket, exc_info.value.dst_bucket) == (0, 0)


def perm_against_seed(params):
    """An input permutation crafted against the seed's first random draw,
    so that the third pass overflows on attempt zero."""
    n = params.n
    pi_r = gen_perm(n, params.seed)
    inv = [0] * n
    for k, v in enumerate(pi_r):
        inv[v] = k
    perm = [None] * n
    for j in range(params.bucket_count):
        perm[inv[j]] = j
    rest = iter(range(params.bucket_count, n))
    for k in range(n):
        if perm[k] is None:
            perm[k] = next(rest)
    return perm


def test_overflow_restarts_with_fresh_randomness_and_recovers():
    n, seed = 49, 5
    params = ShuffleParams(n, pad_factor=1, seed=seed)
    assert params.slice_len < params.bucket_count
    perm = perm_against_seed(params)
    data = some_data(n, 1)
    engine = ShuffleEngine(CacheSim(), params)
    assert engine.melbourne(data, perm) == apply_perm(data, perm)
    assert engine.overflow_retries >= 1


def test_an_overflowed_transaction_keeps_its_stats(monkeypatch):
    # the crafted permutation overflows a scatter of pass 3 on attempt
    # zero: that transaction's stats stay in the engine's, uncommitted,
    # so the restarted work is counted
    n, seed = 49, 5
    params = ShuffleParams(n, pad_factor=1, seed=seed)
    engine = ShuffleEngine(CacheSim(), params)
    calls = []

    def counted_run_txn(*args, **kwargs):
        calls.append(args[1])
        return run_txn(*args, **kwargs)

    monkeypatch.setattr(shuffle, "run_txn", counted_run_txn)
    data = some_data(n, 1)
    perm = perm_against_seed(params)
    assert engine.melbourne(data, perm) == apply_perm(data, perm)
    assert engine.overflow_retries == 1
    assert len(engine.stats) == len(calls)
    # the completed restart's 6 bc transactions all committed, and the
    # one just before them is the overflowed scatter, the only one that
    # did not
    done = 6 * params.bucket_count
    overflowed = engine.stats[-done - 1]
    assert (overflowed.committed, overflowed.attempts) == (False, 1)
    assert [s.committed for s in engine.stats].count(False) == 1
    assert sum(s.attempts for s in engine.stats) == len(calls)


def test_restart_cap_surfaces_as_error():
    engine = ShuffleEngine(CacheSim(), ShuffleParams(4))

    def always_overflow(src, pi, dst):
        raise BucketOverflowError(0, 0, engine.params.slice_len)

    engine.run_pass = always_overflow
    with pytest.raises(OverflowRetriesExceededError):
        engine.melbourne([1, 2, 3, 4], [0, 1, 2, 3])
    assert engine.overflow_retries == engine.OVERFLOW_CAP


# -- whole-shuffle correctness -----------------------------------------------


def test_nine_element_shuffle_matches_hand_derivation():
    expected = [106, 101, 105, 100, 108, 103, 102, 104, 107]
    assert apply_perm(FIG_DATA, FIG_PERM) == expected
    for seed in (0, 1, 12345):
        assert melbourne_shuffle(FIG_DATA, FIG_PERM, seed=seed) == expected


def test_identity_permutation_leaves_data_alone():
    data = some_data(16, 4)
    assert melbourne_shuffle(data, list(range(16)), seed=9) == data


def test_single_element_shuffle():
    assert melbourne_shuffle([7], [0]) == [7]


def test_matches_oracle_across_many_seeds():
    for seed in range(100):
        data = some_data(16, seed)
        perm = gen_perm(16, seed * 31 + 1)
        got = melbourne_shuffle(data, perm, seed=seed)
        assert got == apply_perm(data, perm), f"seed {seed}"


def test_input_validation():
    with pytest.raises(ValueError):
        melbourne_shuffle([1, 2, 3, 4], [0, 1, 1, 2])  # not a bijection
    with pytest.raises(ValueError):
        melbourne_shuffle([1, 2, 3, 2**32], [0, 1, 2, 3])  # value too wide
    with pytest.raises(ValueError):
        melbourne_shuffle([1, 2, 3, 4], [0, 1, 2])  # length mismatch


def test_engine_transactions_commit_clean():
    engine = ShuffleEngine(CacheSim(), ShuffleParams(256, seed=2), record_plans=True)
    data = some_data(256, 8)
    perm = gen_perm(256, 77)
    assert engine.melbourne(data, perm) == apply_perm(data, perm)
    # 3 passes x (16 scatter + 16 gather)
    assert len(engine.stats) == 96
    assert all(s.committed for s in engine.stats)
    assert sum(s.ac2 for s in engine.stats) == 0
    assert all(s.body_events == 0 for s in engine.stats)
    assert len(engine.plans) == 96
    cfg = engine.sim.config
    assert all(check_conflicts(p, cfg).valid for p in engine.plans)


def test_arena_must_fit_address_space():
    tight = CacheConfig(
        line_size=64, l1_sets=64, l1_ways=8, llc_sets=64, llc_ways=16,
        address_space=1024,
    )
    with pytest.raises(ValueError):
        ShuffleEngine(CacheSim(tight), ShuffleParams(16))


def test_arena_bytes_is_the_engine_arena_with_its_stagger_pad():
    # every declared line lies in the arena; the last row's slices end at
    # its whole lines, and only its stagger pad follows.  At n = 4096, the
    # least that takes a pad on the default geometry
    engine = ShuffleEngine(CacheSim(), ShuffleParams(4096), record_plans=True)
    engine.melbourne(some_data(4096, 8), gen_perm(4096, 77))
    line = engine.sim.config.line_size
    pad = (engine.stride_bytes - engine.row_bytes) // line
    assert pad > 0
    top = max(base + region.size
              for plan in engine.plans for region, base in plan.placements)
    need = arena_bytes(engine.params, line, pad)
    assert need == top + pad * line
    # the stagger search reads no address space, so on a smaller one the
    # engine finds the same pad, then refuses the arena that includes it
    small = CacheConfig(address_space=1 << 19)
    with pytest.raises(ValueError, match=f"^arena needs {need} bytes, "):
        ShuffleEngine(CacheSim(small), ShuffleParams(4096))


PAD_SIZES = (16, 64, 256, 1024, 4096, 16384)


@pytest.mark.parametrize(
    "config, pads",
    [
        (CacheConfig(), (0, 0, 0, 0, 1, 1)),
        (CacheConfig(llc_sets=64), (0, 0, 0, 0, 1, 1)),
        (
            CacheConfig(l1_sets=4, l1_ways=2, llc_sets=16, llc_ways=4),
            (1, 0, 0, 0, 0, 0),
        ),
        (
            CacheConfig(l1_sets=16, l1_ways=4, llc_sets=64, llc_ways=8),
            (0, 0, 1, 0, 0, 0),
        ),
        # LLC as small as L1: here the source buckets decide the pad
        (CacheConfig(llc_sets=64, llc_ways=8), (0, 0, 1, 1, 1, None)),
    ],
    ids=[
        "default", "llc-64-sets", "l1-4x2-llc-16x4", "l1-16x4-llc-64x8",
        "llc-64x8",
    ],
)
def test_stagger_search_picks_the_recorded_pads(config, pads):
    # pad in lines between intermediate rows (None: no pad fits); a row
    # wider than L1 gets 0
    got = []
    for n in PAD_SIZES:
        try:
            engine = ShuffleEngine(CacheSim(config), ShuffleParams(n))
        except LayoutInfeasibleError:
            got.append(None)
            continue
        got.append((engine.stride_bytes - engine.row_bytes) // config.line_size)
    assert tuple(got) == pads


def test_stagger_search_fails_at_once_when_a_scatter_outgrows_the_llc(monkeypatch):
    # 128 slices of at least 4 lines and two 16-line buckets: 544 lines,
    # against a 512-line LLC, so no pad is tried
    def no_search(self, stride_lines):
        raise AssertionError("the pad search ran")

    monkeypatch.setattr(ShuffleEngine, "_stagger_refusal", no_search)
    with pytest.raises(LayoutInfeasibleError) as info:
        ShuffleEngine(CacheSim(CacheConfig(llc_sets=64, llc_ways=8)),
                      ShuffleParams(16384))
    assert (info.value.kind, info.value.level) == ("capacity", "llc")


def test_stagger_search_names_the_level_that_refused():
    # every pad fits L1 but overfills an LLC set
    config = CacheConfig(l1_sets=16, l1_ways=4, llc_sets=16, llc_ways=4)
    with pytest.raises(LayoutInfeasibleError) as info:
        ShuffleEngine(CacheSim(config), ShuffleParams(256))
    assert (info.value.kind, info.value.level) == ("arrangement", "llc")
    assert "129 by the llc, 0 by l1" in str(info.value)


def test_unstaggered_rows_storm_the_l1_sets():
    # at n=4096 the natural row stride is a multiple of the L1 set count,
    # so every destination slice lands on the same three sets
    engine = ShuffleEngine(
        CacheSim(), ShuffleParams(4096, seed=1), staggered=False, retry_cap=8
    )
    engine.sim.poke_words(engine.data_src, some_data(4096, 2))
    engine.sim.poke_words(engine.perm_r, gen_perm(4096, 3))
    with pytest.raises(RetryCapExceededError) as exc_info:
        engine.distribute(engine.data_src, engine.perm_r)
    assert exc_info.value.stats.ac2 == 8
    assert engine.stats[-1] is exc_info.value.stats


# -- baselines ---------------------------------------------------------------


def test_naive_shuffle_small_sizes():
    out, stats = naive_shuffle([5, 6, 7, 8], [0, 1, 2, 3])
    assert out == [5, 6, 7, 8]
    assert stats.committed and stats.attempts == 1
    assert not stats.prefetch_enabled and stats.prefetch_events == 0
    data = some_data(256, 5)
    perm = gen_perm(256, 6)
    out, stats = naive_shuffle(data, perm)
    assert out == apply_perm(data, perm)
    assert stats.ac2 == 0


def test_naive_shuffle_hits_capacity_wall():
    n = 16384  # write set 128 KiB > 32 KiB L1
    with pytest.raises(CapacityError) as exc_info:
        naive_shuffle(some_data(n, 0), gen_perm(n, 1))
    assert exc_info.value.level == "l1"


def test_bubble_shuffle_identity_and_swap_count():
    data = some_data(16, 9)
    out, swaps = bubble_shuffle(data, list(range(16)))
    assert out == data
    assert swaps == 16 * 15 // 2  # full schedule runs regardless of order


def test_bubble_shuffle_matches_oracle():
    data = some_data(16, 10)
    perm = gen_perm(16, 11)
    out, swaps = bubble_shuffle(data, perm)
    assert out == apply_perm(data, perm)
    assert swaps == 120

"""Acceptance gate: one test per criterion, one summary line each.

The heavyweight sweeps run once per module and feed several criteria.
Every tolerance is written out literally next to its assertion.
"""

import math
import random

import pytest

from conftest import record_criterion
from oblishuffle.cache import CacheConfig, CacheSim
from oblishuffle.cli import make_inputs, run_aborts_variant, run_bench_cell
from oblishuffle.layout import Region, LayoutInfeasibleError, check_conflicts, plan_layout
from oblishuffle.layout import READ_ONLY, READ_WRITE
from oblishuffle.shuffle import ShuffleEngine, ShuffleParams, melbourne_shuffle
from oblishuffle.txn import AccessProbability
from oblishuffle.verify import (
    oracle_apply_perm,
    probe_cache_sizes,
    verify_obliviousness,
)

SWEEP_N = [16, 64, 256, 1024, 4096, 16384]
BUBBLE_N = [16, 64, 256, 1024]  # quadratic baseline, capped for runtime


def criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    record_criterion(num, label, ok, detail)
    assert ok, f"criterion {num}: {label} ({detail})"


@pytest.fixture(scope="module")
def melbourne_sweep():
    """One recorded engine per size, its output checked against the
    oracle."""
    engines = {}
    for n in SWEEP_N:
        data, perm = make_inputs(n, 0)
        engine = ShuffleEngine(CacheSim(), ShuffleParams(n, 2, 0), record_plans=True)
        assert engine.melbourne(data, perm) == oracle_apply_perm(data, perm)
        engine.sim.flush_all()
        engines[n] = engine
    return engines


@pytest.fixture(scope="module")
def naive_sweep():
    return {n: run_bench_cell("naive", n) for n in SWEEP_N}


@pytest.fixture(scope="module")
def bubble_cells():
    return {n: run_bench_cell("bubble", n) for n in BUBBLE_N}


def test_criterion_1_output_matches_oracle():
    mismatches = 0
    for n in [4, 16, 64, 256, 1024]:
        for seed in range(100):
            data, perm = make_inputs(n, seed)
            out = melbourne_shuffle(data, perm, seed=seed)
            if out != oracle_apply_perm(data, perm):
                mismatches += 1
    criterion(
        1, "shuffle output equals the reference permutation",
        mismatches == 0,
        "5 sizes x 100 seeds, 0 mismatches" if mismatches == 0
        else f"{mismatches} mismatches",
    )


def test_criterion_2_trace_equality_across_inputs():
    bad = []
    for n in [16, 64, 256, 1024]:
        inputs = [make_inputs(n, 1000 + t) for t in range(20)]
        report = verify_obliviousness("melbourne", inputs, seed=0)
        if not report.all_equal:
            bad.append(n)
    criterion(
        2, "identical traces over 20 random inputs per size",
        not bad,
        "sizes 16..1024, exact positional equality" if not bad
        else f"divergence at {bad}",
    )


def test_criterion_3_no_dirty_eviction_aborts(melbourne_sweep):
    planned_ac2 = sum(
        s.ac2 for engine in melbourne_sweep.values() for s in engine.stats
    )
    bare = run_aborts_variant("no-prefetch", 4096, rate=0.0)
    ok = planned_ac2 == 0 and bare["ac2"] > 0
    criterion(
        3, "planned run eliminates dirty-eviction aborts",
        ok,
        f"planned ac2={planned_ac2} over full sweep, "
        f"unplanned ac2={bare['ac2']} at n=4096",
    )


def test_criterion_4_committed_bodies_run_from_cache(melbourne_sweep, naive_sweep):
    # every stats record from every experiment in this module, no sampling
    pools = [s for engine in melbourne_sweep.values() for s in engine.stats]
    pools += [s for cell in naive_sweep.values() for s in cell.stats]
    noisy = ShuffleEngine(
        CacheSim(), ShuffleParams(256),
        interrupt_model=AccessProbability(0.002, 7),
    )
    data, perm = make_inputs(256, 7)
    noisy.melbourne(data, perm)
    pools += noisy.stats

    checked = 0
    leaked = 0
    for s in pools:
        if s.committed and s.prefetch_enabled:
            checked += 1
            if s.body_events != 0:
                leaked += 1
    criterion(
        4, "committed prefetched bodies emit zero events",
        checked > 0 and leaked == 0,
        f"{checked} transactions checked, {leaked} with body events",
    )


def test_criterion_5_layout_plans_are_conflict_free(melbourne_sweep):
    replayed = 0
    invalid = 0
    for engine in melbourne_sweep.values():
        for plan in engine.plans:
            replayed += 1
            if not check_conflicts(plan).valid:
                invalid += 1

    # random multisets against a deliberately small geometry so both
    # feasible and infeasible inputs occur
    tight = CacheConfig(64, 2, 2, 8, 8)
    rng = random.Random(20260815)
    planned = 0
    infeasible = 0
    for _ in range(1000):
        regions = [
            Region(
                f"r{i}",
                rng.randint(1, 640),
                rng.choice([READ_ONLY, READ_WRITE]),
            )
            for i in range(rng.randint(1, 6))
        ]
        try:
            plan = plan_layout(regions, tight)
        except LayoutInfeasibleError:
            infeasible += 1
            continue
        planned += 1
        if not check_conflicts(plan, tight).valid:
            invalid += 1
    ok = invalid == 0 and replayed > 0 and planned > 0 and infeasible > 0
    criterion(
        5, "every emitted layout plan passes the conflict audit",
        ok,
        f"{replayed} shuffle plans + {planned} random plans valid, "
        f"{infeasible} correctly refused",
    )


def test_criterion_6_capacity_wall_and_growth_shape(
    melbourne_sweep, naive_sweep, bubble_cells
):
    wall = [n for n in SWEEP_N if naive_sweep[n].capacity_abort]
    walled_right = wall == [16384]
    oblivious_completes = all(s.committed for s in melbourne_sweep[16384].stats)
    quadratic_completes = all(
        not c.capacity_abort and c.events > 0 for c in bubble_cells.values()
    )
    bubble_events = {n: c.events for n, c in bubble_cells.items()}
    mel_events = {n: len(e.sim.trace) for n, e in melbourne_sweep.items()}

    def doubling_ratio(events, a, b):
        # sizes step by 4x, so per-doubling growth is the square root
        return math.sqrt(events[b] / events[a])

    bubble_ratios = [
        doubling_ratio(bubble_events, 64, 256),
        doubling_ratio(bubble_events, 256, 1024),
    ]
    mel_ratios = [
        doubling_ratio(mel_events, 1024, 4096),
        doubling_ratio(mel_events, 4096, 16384),
    ]
    bubble_ok = all(3.6 <= r <= 4.4 for r in bubble_ratios)  # 4 +-10%
    mel_ok = all(1.7 <= r <= 2.3 for r in mel_ratios)  # 2 +-15%

    lam = 50.0

    def mel_cost(n):
        attempts = sum(s.attempts for s in melbourne_sweep[n].stats)
        return mel_events[n] + lam * attempts

    crossover = [
        n for n in BUBBLE_N if mel_cost(n) < bubble_cells[n].cost(lam)
    ]
    n_star = crossover[0] if crossover else None

    ok = (
        walled_right and oblivious_completes and quadratic_completes
        and bubble_ok and mel_ok
        and n_star is not None and n_star <= 2 ** 16
    )
    criterion(
        6, "capacity wall, growth rates and cost crossover",
        ok,
        f"single-txn wall at {wall}, quadratic doubling ratios "
        f"{[round(r, 2) for r in bubble_ratios]}, oblivious "
        f"{[round(r, 2) for r in mel_ratios]}, crossover at n={n_star}",
    )


# criterion 7's geometries, as (L1 KiB, LLC KiB): a 4-way L1, an 8-way LLC
PROBE_CASES = [(1, 4), (1, 64), (4, 64), (4, 8192), (32, 8192)]


def probe_geometry(l1_kib: int, llc_kib: int) -> CacheConfig:
    return CacheConfig(
        64, l1_kib * 1024 // (64 * 4), 4, llc_kib * 1024 // (64 * 8), 8
    )


def test_criterion_7_probe_recovers_geometry():
    wrong = []
    for l1_kib, llc_kib in PROBE_CASES:
        cfg = probe_geometry(l1_kib, llc_kib)
        got = probe_cache_sizes(CacheSim(cfg))
        if got != (l1_kib * 1024, llc_kib * 1024):
            wrong.append((l1_kib, llc_kib, got))
    default_got = probe_cache_sizes()
    ok = not wrong and default_got == (32768, 8388608)
    criterion(
        7, "capacity probe is byte-exact across geometries",
        ok,
        f"{len(PROBE_CASES)} geometries + default {default_got}" if ok
        else f"wrong: {wrong} default={default_got}",
    )


def test_criterion_8_interrupt_rate_calibration():
    rate = 0.002
    runs = [
        run_aborts_variant("melbourne", 256, seed=s, rate=rate)
        for s in range(10)
    ]
    fired = sum(r["ac4"] for r in runs)
    draws = sum(r["consultations"] for r in runs)
    mean = draws * rate
    sigma = math.sqrt(draws * rate * (1 - rate))
    within = abs(fired - mean) <= 3 * sigma

    # same schedule, stripped driver: abort pattern must match exactly
    twin = run_aborts_variant("interrupt-only", 256, seed=0, rate=rate)
    full = runs[0]
    twins_agree = all(
        twin[k] == full[k] for k in ("ac2", "ac4", "attempts")
    )
    criterion(
        8, "interrupt aborts match the binomial oracle",
        within and twins_agree,
        f"{fired} fired / {draws} draws, expected {mean:.1f} +- {3 * sigma:.1f}",
    )


def test_criterion_9_retries_leave_output_intact():
    bad = []
    for n in [16, 64, 256, 1024]:
        data, perm = make_inputs(n, 3)
        calm = melbourne_shuffle(data, perm, seed=11)
        noisy = melbourne_shuffle(
            data, perm, seed=11,
            interrupt_model=AccessProbability(0.001, 99),
        )
        if not (calm == noisy == oracle_apply_perm(data, perm)):
            bad.append(n)
    criterion(
        9, "outputs identical with and without interrupts",
        not bad,
        "rates 0 and 0.001, same seed, sizes 16..1024" if not bad
        else f"mismatch at {bad}",
    )

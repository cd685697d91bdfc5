"""Layout planner tests.

check_conflicts recounts placements from scratch, so it doubles as the
oracle for plan_layout; the pigeonhole cases additionally get an
exhaustive-placement proof on a one-set toy cache.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import assignments, base_of, export_csv, two_phase_plan

from oblishuffle.cache import CacheConfig, CacheSim
from oblishuffle.layout import (
    READ_ONLY,
    READ_WRITE,
    LayoutInfeasibleError,
    LayoutPlan,
    Region,
    SetLoads,
    check_conflicts,
    decl_from_plan,
    plan_layout,
)
from oblishuffle.txn import run_txn

TOY = CacheConfig(line_size=64, l1_sets=1, l1_ways=2, llc_sets=1, llc_ways=4)
STRIPE = CacheConfig(line_size=64, l1_sets=2, l1_ways=2, llc_sets=8, llc_ways=8)


def lines_of(size, line=64):
    return -(-size // line)


# -- planning ----------------------------------------------------------------


def test_small_read_region_lands_contiguously():
    plan = plan_layout([Region("in", 256, READ_ONLY)], CacheConfig())
    assert assignments(plan) == {"in": 0}
    report = check_conflicts(plan, CacheConfig())
    assert report.valid
    assert all(v == 1 for v in report.llc_load.values())
    assert report.l1_load == {}  # read-only regions never load L1


def test_three_region_working_set_packs_in_order():
    regions = [
        Region("src", 256, READ_ONLY),
        Region("dst", 128, READ_WRITE),
        Region("scratch", 64, READ_WRITE),
    ]
    plan = plan_layout(regions, STRIPE)
    assert assignments(plan) == {"src": 0, "dst": 256, "scratch": 384}
    assert check_conflicts(plan, STRIPE).valid


def test_interleaved_writes_fall_back_to_sliding():
    # contiguous packing puts all three write lines in L1 set 1; the
    # planner must shift the last one by a line
    regions = []
    for i in range(3):
        regions.append(Region(f"r{i}", 64, READ_ONLY))
        regions.append(Region(f"w{i}", 64, READ_WRITE))
    plan = plan_layout(regions, STRIPE)
    assert assignments(plan) == {
        "r0": 0, "w0": 64, "r1": 128, "w1": 192, "r2": 256, "w2": 384,
    }
    assert check_conflicts(plan, STRIPE).valid


def test_planning_is_deterministic():
    regions = [
        Region("a", 100, READ_WRITE),
        Region("b", 64, READ_ONLY),
        Region("c", 120, READ_WRITE),
    ]
    assert plan_layout(regions, STRIPE) == plan_layout(regions, STRIPE)


def test_empty_region_list_plans_trivially():
    plan = plan_layout([], STRIPE)
    assert plan.placements == ()
    report = check_conflicts(plan, STRIPE)
    assert report.valid and report.l1_load == {} and report.llc_load == {}


# -- infeasibility -----------------------------------------------------------


def test_three_one_way_write_regions_infeasible_at_l1():
    way_bytes = TOY.l1_sets * TOY.line_size
    regions = [Region(f"w{i}", way_bytes, READ_WRITE) for i in range(3)]
    with pytest.raises(LayoutInfeasibleError) as exc_info:
        plan_layout(regions, TOY)
    assert exc_info.value.level == "l1"
    assert exc_info.value.kind == "capacity"  # 3 ways of write lines > 2 ways
    # exhaustive proof: no assignment of three distinct lines can work when
    # every line maps to the single two-way L1 set
    for bases in itertools.permutations(range(6), 3):
        plan = LayoutPlan(
            tuple((r, b * 64) for r, b in zip(regions, bases))
        )
        report = check_conflicts(plan, TOY)
        assert not report.valid
        assert ("l1", 0, 3) in report.offenders


def test_read_footprint_over_llc_is_capacity_infeasible():
    regions = [Region("big", STRIPE.llc_capacity + 64, READ_ONLY)]
    with pytest.raises(LayoutInfeasibleError) as exc_info:
        plan_layout(regions, STRIPE)
    assert (exc_info.value.kind, exc_info.value.level) == ("capacity", "llc")


def test_address_space_exhaustion_is_arrangement_infeasible():
    cramped = CacheConfig(
        line_size=64, l1_sets=1, l1_ways=2, llc_sets=1, llc_ways=4,
        address_space=128,
    )
    regions = [Region(f"r{i}", 64, READ_ONLY) for i in range(3)]
    with pytest.raises(LayoutInfeasibleError) as exc_info:
        plan_layout(regions, cramped)
    assert (exc_info.value.kind, exc_info.value.level) == (
        "arrangement", "address-space",
    )


# -- conflict checking -------------------------------------------------------


def test_region_spanning_every_set_loads_each_once():
    plan = LayoutPlan(((Region("r", 512, READ_ONLY), 0),))
    report = check_conflicts(plan, STRIPE)
    assert report.valid
    assert report.llc_load == {s: 1 for s in range(8)}


def test_aliased_write_regions_reported_with_set_indices():
    narrow = CacheConfig(line_size=64, l1_sets=2, l1_ways=1, llc_sets=8, llc_ways=8)
    plan = LayoutPlan((
        (Region("w1", 128, READ_WRITE), 0),
        (Region("w2", 128, READ_WRITE), 256),  # lines 4,5 alias sets 0,1
    ))
    report = check_conflicts(plan, narrow)
    assert not report.valid
    assert ("l1", 0, 2) in report.offenders
    assert ("l1", 1, 2) in report.offenders


def test_overlapping_regions_detected():
    plan = LayoutPlan((
        (Region("a", 128, READ_ONLY), 0),
        (Region("b", 64, READ_ONLY), 64),
    ))
    report = check_conflicts(plan, STRIPE)
    assert not report.valid
    assert ("overlap", 1, 2) in report.offenders


def test_misaligned_or_out_of_range_bases_rejected():
    with pytest.raises(ValueError):
        check_conflicts(LayoutPlan(((Region("a", 64, READ_ONLY), 32),)), STRIPE)
    top = CacheConfig().address_space
    with pytest.raises(ValueError):
        check_conflicts(
            LayoutPlan(((Region("a", 128, READ_ONLY), top - 64),)), CacheConfig()
        )


# -- validation and export ---------------------------------------------------


def test_region_field_validation():
    with pytest.raises(ValueError):
        Region("a", 0, READ_ONLY)
    with pytest.raises(ValueError):
        Region("a", 64, "execute")
    with pytest.raises(ValueError):
        Region("", 64, READ_ONLY)


def test_duplicate_region_names_rejected():
    regions = [Region("x", 64, READ_ONLY), Region("x", 64, READ_WRITE)]
    with pytest.raises(ValueError):
        plan_layout(regions, STRIPE)


def test_plan_export_csv():
    plan = plan_layout(
        [Region("src", 100, READ_ONLY), Region("dst", 64, READ_WRITE)], STRIPE
    )
    assert export_csv(plan) == (
        "region_name,base_address,size_bytes\nsrc,0,100\ndst,128,64\n"
    )
    assert base_of(plan, "dst") == 128
    with pytest.raises(KeyError):
        base_of(plan, "nope")


def test_decl_from_plan_splits_sides():
    plan = plan_layout(
        [Region("src", 128, READ_ONLY), Region("dst", 128, READ_WRITE)], STRIPE
    )
    decl = decl_from_plan(plan)
    assert decl.read_ranges == ((0, 128),)
    assert decl.write_ranges == ((128, 128),)
    assert decl.read_lines == (0, 1)
    assert decl.write_lines == (2, 3)


# -- soundness and the bridge to transactions --------------------------------


@st.composite
def region_lists(draw):
    count = draw(st.integers(min_value=0, max_value=8))
    return [
        Region(
            f"r{i}",
            draw(st.integers(min_value=1, max_value=320)),
            draw(st.sampled_from([READ_ONLY, READ_WRITE])),
        )
        for i in range(count)
    ]


@settings(max_examples=80, deadline=None)
@given(region_lists())
def test_plans_are_sound_and_run_without_eviction_aborts(regions):
    try:
        plan = plan_layout(regions, STRIPE)
    except LayoutInfeasibleError as exc:
        if exc.kind == "capacity":
            # a capacity claim must be backed by the pigeonhole bound
            writes = sum(
                lines_of(r.size) for r in regions if r.kind == READ_WRITE
            )
            total = sum(lines_of(r.size) for r in regions)
            if exc.level == "l1":
                assert writes * 64 > STRIPE.l1_capacity
            else:
                assert exc.level == "llc"
                assert total * 64 > STRIPE.llc_capacity
        else:
            assert exc.level in ("l1", "llc", "address-space")
        return
    report = check_conflicts(plan, STRIPE)
    assert report.valid, report.offenders
    sim = CacheSim(STRIPE)
    stats = run_txn(sim, decl_from_plan(plan))
    assert stats.ac2 == 0
    assert stats.committed


# -- the planner against the two-phase reference ------------------------------

TIGHT = [
    STRIPE,
    CacheConfig(line_size=64, l1_sets=4, l1_ways=2, llc_sets=8, llc_ways=2),
    CacheConfig(line_size=64, l1_sets=4, l1_ways=1, llc_sets=4, llc_ways=2),
    CacheConfig(line_size=32, l1_sets=4, l1_ways=2, llc_sets=8, llc_ways=2),
    # cramped: sliding a region can run past the end of the address space
    CacheConfig(
        line_size=64, l1_sets=4, l1_ways=2, llc_sets=4, llc_ways=4,
        address_space=1024,
    ),
]


def plan_or_error(planner, regions, config):
    try:
        return planner(regions, config)
    except LayoutInfeasibleError as exc:
        return (exc.kind, exc.level, str(exc))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(TIGHT),
    st.lists(
        st.tuples(
            st.integers(1, 130), st.sampled_from([READ_ONLY, READ_ONLY, READ_WRITE])
        ),
        max_size=10,
    ),
)
def test_planner_matches_the_two_phase_reference(config, specs):
    regions = [Region(f"r{i}", size, kind) for i, (size, kind) in enumerate(specs)]
    assert plan_or_error(plan_layout, regions, config) == plan_or_error(
        two_phase_plan, regions, config
    )


def test_refused_add_changes_no_count():
    loads = SetLoads(STRIPE)  # L1 2 sets x 2 ways, LLC 8 sets x 8 ways
    assert loads.add(0, 2, True)
    assert loads.blocked is None
    before = ({0: 1, 1: 1}, {0: 1, 1: 1})
    assert (loads.l1, loads.llc) == before
    # lines 2 and 3 fit; line 4 fits its LLC set but would be L1 set 0's
    # third written line, so the whole run is taken back
    assert not loads.add(2, 3, True)
    assert loads.blocked == "l1"
    assert (loads.l1, loads.llc) == before
    # reads load only the LLC: with line 0 placed, lines 4..63 take LLC
    # set 0 to its 8 ways, so line 64 is refused
    assert not loads.add(4, 64, False)
    assert loads.blocked == "llc"
    assert (loads.l1, loads.llc) == before
    assert loads.add(2, 3, False)
    assert (loads.l1, loads.llc) == ({0: 1, 1: 1}, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1})


def test_llc_is_tested_before_l1_for_each_line():
    loads = SetLoads(TOY)  # one 2-way L1 set, one 4-way LLC set
    assert loads.add(0, 2, True) and loads.add(2, 2, False)
    # line 4 would overfill both sets; the LLC is named
    assert not loads.add(4, 1, True)
    assert loads.blocked == "llc"
    assert (loads.l1, loads.llc) == ({0: 2}, {0: 4})

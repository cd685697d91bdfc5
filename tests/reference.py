"""Reference models the tests hold the library to.

``CacheSim.prefetch`` and ``CacheSim.commit_lines`` handle a whole block
of lines in one call.  ``per_line_prefetch`` and ``per_line_commit`` are
the loops they replace: one pinned ``access`` per prefetched line, and
the commit's write-backs and unpins written out line by line on the cache
entries, independently of ``commit_lines``.

``two_phase_plan`` is the layout planner as it was before it ran on
``layout.SetLoads``: capacity pre-checks, then a contiguous packing from
address zero, and only if that overloads a set, a first-fit placement
that starts again from nothing, each with its own set-load counting.
"""

from oblishuffle.cache import KIND_WRITEBACK, TraceEvent
from oblishuffle.layout import READ_WRITE, LayoutInfeasibleError, LayoutPlan


def per_line_prefetch(sim, lines, kind) -> None:
    for line in lines:
        sim.access(line << sim.config.line_shift, kind, pin=True)


def per_line_commit(sim, dirtied, pinned) -> int:
    """Write back each dirtied line in order, then unpin; returns the
    number of write-back events."""
    levels = ((sim._l1, sim._l1_mask), (sim._llc, sim._llc_mask))
    emitted = 0
    for line in dirtied:
        dirty = False
        for sets, mask in levels:
            e = sets[line & mask].get(line)
            if e is not None and e[0]:  # dirty bit
                e[0] = False
                dirty = True
        if dirty:
            sim.trace.append(TraceEvent(KIND_WRITEBACK, line))
            emitted += 1
    for line in pinned:
        for sets, mask in levels:
            e = sets[line & mask].get(line)
            if e is not None:
                e[1] = False  # pin bit
    return emitted


def _lines(region, line):
    return -(-region.size // line)


def two_phase_plan(regions, config):
    line = config.line_size
    write_lines = sum(_lines(r, line) for r in regions if r.kind == READ_WRITE)
    total_lines = sum(_lines(r, line) for r in regions)
    if write_lines * line > config.l1_capacity:
        raise LayoutInfeasibleError(
            "capacity", "l1", f"{write_lines * line} write bytes > {config.l1_capacity}"
        )
    if total_lines * line > config.llc_capacity:
        raise LayoutInfeasibleError(
            "capacity", "llc", f"{total_lines * line} bytes > {config.llc_capacity}"
        )
    return _contiguous_plan(regions, config) or _first_fit_plan(regions, config)


def _contiguous_plan(regions, config):
    line = config.line_size
    l1_load, llc_load = {}, {}
    placements = []
    cursor = 0
    for region in regions:
        nlines = _lines(region, line)
        if cursor + nlines * line > config.address_space:
            return None
        for l in range(cursor // line, cursor // line + nlines):
            s = l & (config.llc_sets - 1)
            llc_load[s] = llc_load.get(s, 0) + 1
            if llc_load[s] > config.llc_ways:
                return None
            if region.kind == READ_WRITE:
                s1 = l & (config.l1_sets - 1)
                l1_load[s1] = l1_load.get(s1, 0) + 1
                if l1_load[s1] > config.l1_ways:
                    return None
        placements.append((region, cursor))
        cursor += nlines * line
    return LayoutPlan(tuple(placements))


def _first_fit_plan(regions, config):
    line = config.line_size
    max_shift = max(config.l1_sets, config.llc_sets)
    l1_load, llc_load = {}, {}
    placements = []
    cursor = 0
    blocked = "llc"
    for region in regions:
        nlines = _lines(region, line)
        for k in range(max_shift):
            base = cursor + k * line
            if base + nlines * line > config.address_space:
                raise LayoutInfeasibleError(
                    "arrangement",
                    "address-space",
                    f"region {region.name!r} does not fit below "
                    f"{config.address_space}",
                )
            undo = []
            for l in range(base // line, base // line + nlines):
                s = l & (config.llc_sets - 1)
                if llc_load.get(s, 0) + 1 > config.llc_ways:
                    blocked = "llc"
                    break
                llc_load[s] = llc_load.get(s, 0) + 1
                undo.append((llc_load, s))
                if region.kind == READ_WRITE:
                    s1 = l & (config.l1_sets - 1)
                    if l1_load.get(s1, 0) + 1 > config.l1_ways:
                        blocked = "l1"
                        break
                    l1_load[s1] = l1_load.get(s1, 0) + 1
                    undo.append((l1_load, s1))
            else:
                placements.append((region, base))
                cursor = base + nlines * line
                break
            for d, s in undo:
                d[s] -= 1
        else:
            raise LayoutInfeasibleError(
                "arrangement",
                blocked,
                f"no base found for region {region.name!r} within "
                f"{max_shift} line offsets",
            )
    return LayoutPlan(tuple(placements))

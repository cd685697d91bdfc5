"""Per-line reference for the simulator's block calls.

``CacheSim.prefetch`` and ``CacheSim.commit_lines`` handle a whole block
of lines in one call.  These are the loops they replace, kept as the
reference the tests hold them to: one pinned ``access`` per prefetched
line, and the commit's write-backs and unpins written out line by line on
the cache entries, independently of ``commit_lines``.
"""

from oblishuffle.cache import KIND_WRITEBACK, TraceEvent


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

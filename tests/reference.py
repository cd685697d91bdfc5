"""Reference models the tests hold the library to.

``CacheSim.access_run`` and the ``TxnContext`` run path make a whole run
of words in one step per line, and ``AccessProbability.first_fire``
makes a run's interrupt consultations in one call.  ``per_word_access``,
``per_word_read``/``per_word_write`` and ``per_word_draw`` are the
per-word paths they replace: one ``access`` per word, checked against the
declaration and preceded by one interrupt consultation, each drawing
once from the model's buffer.

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

from oblishuffle.cache import KIND_WRITEBACK, READ, WRITE, TraceEvent
from oblishuffle.layout import READ_WRITE, LayoutInfeasibleError, LayoutPlan
from oblishuffle.txn import AccessProbability, UndeclaredAccessError, _Interrupted

_DIRTY, _PINNED, _STAMP = 0, 1, 2


def per_word_access(sim, addr, kind, pin=False):
    """One access, as ``CacheSim.access`` makes it: returns "l1-hit",
    "llc-hit" or "llc-miss"."""
    if not 0 <= addr < sim.config.address_space:
        raise ValueError(f"address {addr} out of range")
    is_write = kind == WRITE
    if not is_write and kind != READ:
        raise ValueError(f"bad access kind: {kind!r}")
    line = addr >> sim._shift
    sim._clock += 1
    sim.counters.total += 1
    l1_set = sim._l1[line & sim._l1_mask]
    entry = l1_set.get(line)
    if entry is not None:
        entry[_STAMP] = sim._clock
        if is_write:
            entry[_DIRTY] = True
        if pin:
            entry[_PINNED] = True
            sim._llc[line & sim._llc_mask][line][_PINNED] = True
        sim.counters.l1_hits += 1
        return "l1-hit"
    return sim._miss(line, l1_set, is_write, pin, sim._clock)


def per_word_draw(model):
    """One consultation of an AccessProbability: the next draw from its
    buffer, refilled when spent; True if it fires."""
    model.consultations += 1
    if model._pos >= model._BUF:
        model._buf = model._rng.random(model._BUF).tolist()
        model._pos = 0
    u = model._buf[model._pos]
    model._pos += 1
    return u < model.rate


def per_word_first_fire(model, count):
    """``first_fire(count)`` as ``count`` single draws."""
    for i in range(count):
        if per_word_draw(model):
            return i
    return None


def _consult(ctx):
    model = ctx._model
    if model is None:
        return
    if isinstance(model, AccessProbability):
        fired = per_word_draw(model)
    else:
        fired = model.first_fire(1) is not None
    if fired:
        raise _Interrupted()


def per_word_read(ctx, addr):
    """``ctx.read(addr)`` as one declaration check, one consultation and
    one access."""
    line = addr >> ctx._shift
    if line not in ctx._decl.read_ok:
        raise UndeclaredAccessError(addr, READ)
    _consult(ctx)
    ctx._touched.add(line)
    sim = ctx._sim
    sim._check_word(addr)
    per_word_access(sim, addr, READ, True)
    return sim.memory.get(addr >> 3, 0)


def per_word_write(ctx, addr, value):
    """``ctx.write(addr, value)`` as one declaration check, one
    consultation and one access."""
    line = addr >> ctx._shift
    if line not in ctx._decl.write_ok:
        raise UndeclaredAccessError(addr, WRITE)
    _consult(ctx)
    ctx._touched.add(line)
    if line not in ctx._dirtied_set:
        ctx._dirtied_set.add(line)
        ctx._dirtied.append(line)
    sim = ctx._sim
    sim._check_word(addr)
    per_word_access(sim, addr, WRITE, True)
    sim.memory[addr >> 3] = value


def per_line_prefetch(sim, lines, kind) -> None:
    for line in lines:
        per_word_access(sim, line << sim.config.line_shift, kind, pin=True)


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

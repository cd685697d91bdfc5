"""Address layout planning for transaction working sets.

A transaction's declared lines must be simultaneously resident and
protected, so associativity is the binding constraint: at most
``l1_ways`` *written* lines may map to any one L1 set, and at most
``llc_ways`` declared lines to any one LLC set.  The planner places a
list of named regions so both bounds hold.  Read-only regions consume
only LLC ways because clean pinned lines can be demoted out of L1.

``SetLoads`` is the one counter of that rule: it places runs of lines
and refuses a run that would take some set over its ways.  The planner
places regions in order, first fit: each region starts at the end of the
previous one, and if ``SetLoads`` refuses it there, its base slides
forward one line at a time to rotate its set mapping until it fits.
When every region fits at once, the plan is simply the regions packed
from address zero.  The shuffle's row-stagger search counts its scatter
footprints with the same ``SetLoads``.  Planning is a pure function of
its inputs.

``check_conflicts`` recounts every placed line from scratch and is kept
free of the planner's incremental bookkeeping so it can serve as an
independent oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cache import CacheConfig
from .txn import TxnDeclaration

READ_ONLY = "read"
READ_WRITE = "write"


@dataclass(frozen=True)
class Region:
    name: str
    size: int
    kind: str  # READ_ONLY or READ_WRITE

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} has non-positive size")
        if self.kind not in (READ_ONLY, READ_WRITE):
            raise ValueError(f"region {self.name!r} has bad kind {self.kind!r}")
        if not self.name:
            raise ValueError("region name must be non-empty")


class LayoutInfeasibleError(Exception):
    """No valid placement exists (capacity) or was found (arrangement).

    ``kind`` is "capacity" when a pigeonhole bound already rules every
    placement out, "arrangement" when placement search was exhausted.
    ``level`` names the binding resource: "l1", "llc" or "address-space".
    """

    def __init__(self, kind: str, level: str, detail: str):
        super().__init__(f"layout infeasible ({kind} at {level}): {detail}")
        self.kind = kind
        self.level = level


@dataclass(frozen=True)
class LayoutPlan:
    placements: tuple[tuple[Region, int], ...]


@dataclass(frozen=True)
class ConflictReport:
    valid: bool
    l1_load: dict[int, int]
    llc_load: dict[int, int]
    offenders: tuple[tuple[str, int, int], ...]  # (level, set_index, load)


def _region_lines(region: Region, line_size: int) -> int:
    return -(-region.size // line_size)


class SetLoads:
    """Ways in use per cache set by the lines of one transaction so far.

    ``llc`` counts every placed line by LLC set and ``l1`` counts written
    lines by L1 set.  ``add`` places a run of lines only if neither level
    goes over its ways; a refused ``add`` changes no count and sets
    ``blocked`` to the level that refused ("llc" or "l1", the LLC tested
    first for each line).
    """

    def __init__(self, config: CacheConfig):
        self.l1: dict[int, int] = {}
        self.llc: dict[int, int] = {}
        self.blocked: str | None = None
        self._limits = (
            config.l1_sets - 1, config.l1_ways, config.llc_sets - 1, config.llc_ways
        )

    def add(self, first_line: int, nlines: int, is_write: bool) -> bool:
        l1_mask, l1_ways, llc_mask, llc_ways = self._limits
        l1, llc = self.l1, self.llc
        for l in range(first_line, first_line + nlines):
            s = l & llc_mask
            v = llc.get(s, 0) + 1
            if v > llc_ways:
                self.blocked = "llc"
                break
            if is_write:
                s1 = l & l1_mask
                v1 = l1.get(s1, 0) + 1
                if v1 > l1_ways:
                    self.blocked = "l1"
                    break
                l1[s1] = v1
            llc[s] = v
        else:
            return True
        for k in range(first_line, l):  # take back the lines before l
            _unload(llc, k & llc_mask)
            if is_write:
                _unload(l1, k & l1_mask)
        return False


def _unload(loads: dict[int, int], s: int) -> None:
    if loads[s] == 1:
        del loads[s]
    else:
        loads[s] -= 1


def plan_layout(
    regions: Sequence[Region], config: CacheConfig | None = None
) -> LayoutPlan:
    """Place regions at line-aligned, non-overlapping bases such that no
    cache set is loaded beyond its way count.  Raises LayoutInfeasibleError
    when impossible (capacity) or when the search gives up (arrangement).
    """
    config = config or CacheConfig()
    names = [r.name for r in regions]
    if len(set(names)) != len(names):
        raise ValueError("region names must be unique")
    line = config.line_size

    write_lines = sum(
        _region_lines(r, line) for r in regions if r.kind == READ_WRITE
    )
    total_lines = sum(_region_lines(r, line) for r in regions)
    if write_lines * line > config.l1_capacity:
        raise LayoutInfeasibleError(
            "capacity",
            "l1",
            f"{write_lines * line} write bytes > {config.l1_capacity}",
        )
    if total_lines * line > config.llc_capacity:
        raise LayoutInfeasibleError(
            "capacity",
            "llc",
            f"{total_lines * line} bytes > {config.llc_capacity}",
        )

    loads = SetLoads(config)
    max_shift = max(config.l1_sets, config.llc_sets)
    placements = []
    cursor = 0
    for region in regions:
        nlines = _region_lines(region, line)
        is_write = region.kind == READ_WRITE
        for k in range(max_shift):
            base = cursor + k * line
            if base + nlines * line > config.address_space:
                raise LayoutInfeasibleError(
                    "arrangement",
                    "address-space",
                    f"region {region.name!r} does not fit below "
                    f"{config.address_space}",
                )
            if loads.add(base // line, nlines, is_write):
                placements.append((region, base))
                cursor = base + nlines * line
                break
        else:
            raise LayoutInfeasibleError(
                "arrangement",
                loads.blocked,
                f"no base found for region {region.name!r} within "
                f"{max_shift} line offsets",
            )
    return LayoutPlan(tuple(placements))


def check_conflicts(
    plan: LayoutPlan, config: CacheConfig | None = None
) -> ConflictReport:
    """Recount set loads of a finished plan from scratch.

    Validates three things: no two regions share a line, no LLC set holds
    more than ``llc_ways`` placed lines, and no L1 set holds more than
    ``l1_ways`` written lines.  Deliberately independent of the planner's
    incremental accounting.
    """
    config = config or CacheConfig()
    line = config.line_size
    owner: dict[int, str] = {}
    l1_load: dict[int, int] = {}
    llc_load: dict[int, int] = {}
    offenders: list[tuple[str, int, int]] = []

    for region, base in plan.placements:
        if base % line:
            raise ValueError(f"region {region.name!r} base not line aligned")
        if base < 0 or base + region.size > config.address_space:
            raise ValueError(f"region {region.name!r} outside address space")
        first = base // line
        last = (base + region.size - 1) // line
        for l in range(first, last + 1):
            if l in owner:
                offenders.append(("overlap", l, 2))
            owner[l] = region.name
            s = l & (config.llc_sets - 1)
            llc_load[s] = llc_load.get(s, 0) + 1
            if region.kind == READ_WRITE:
                s1 = l & (config.l1_sets - 1)
                l1_load[s1] = l1_load.get(s1, 0) + 1

    for s, v in sorted(llc_load.items()):
        if v > config.llc_ways:
            offenders.append(("llc", s, v))
    for s, v in sorted(l1_load.items()):
        if v > config.l1_ways:
            offenders.append(("l1", s, v))
    return ConflictReport(
        valid=not offenders,
        l1_load=l1_load,
        llc_load=llc_load,
        offenders=tuple(offenders),
    )


def decl_from_plan(plan: LayoutPlan, line_size: int = 64) -> TxnDeclaration:
    """Bridge a placed layout to a transaction declaration: every region
    becomes one byte range on the matching side."""
    reads = []
    writes = []
    for region, base in plan.placements:
        if region.kind == READ_WRITE:
            writes.append((base, region.size))
        else:
            reads.append((base, region.size))
    return TxnDeclaration.of(reads=reads, writes=writes, line_size=line_size)

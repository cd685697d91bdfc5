"""Obliviousness checking by exact trace comparison.

A program is cache-miss oblivious when the sequence of LLC boundary
events it generates is the same function of the input *size* only: same
length, same kinds, same line addresses, position by position.  This
module captures traces under a controlled protocol (fresh simulator,
inputs installed without traffic, full flush at the end so dirty state
cannot hide) and compares them pairwise with zero tolerance.

Precondition: each permutation must be chosen independently of the
shuffle seed.  A permutation crafted against a known seed can make a
scatter slice overflow and the shuffle restart with fresh randomness,
which changes the trace.  Only for permutations drawn independently of
the seed is the trace a fixed function of the input size.

Precondition under interrupts: each transaction must make the same
number of interrupt consultations, its ``TxnStats.consultations``, on
every input of one size.  melbourne's do (at n = 64, 48 transactions, the largest making 112
consultations; at n = 256, 96 and 288).  An interrupt model whose
schedule depends only on its consultations and on the trace so far then
fires at the same points on every input, so the trace stays a fixed
function of the input size even when the model is the adversary.

The correctness side is handled by ``oracle_apply_perm``, a direct
scatter with no cache model at all, against which every shuffle's output
is checked.  A program is named by its ``PROGRAMS`` key; an unknown name
is refused with a ValueError naming it and the known ones.

``probe_cache_sizes(sim)`` recovers the capacities of the simulator it is
given through declaration rejections alone, at the line size of
``sim.config``, and leaves the simulator as it found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Callable, Sequence

from .cache import CacheConfig, CacheSim, Trace, TraceEvent
from .shuffle import ShuffleEngine, ShuffleParams, bubble_shuffle, naive_shuffle
from .txn import CapacityError, TxnDeclaration, run_txn


def oracle_apply_perm(data: Sequence[int], perm: Sequence[int]) -> list[int]:
    """Reference scatter: out[perm[i]] = data[i].  Rejects non-bijections
    and non-integer values, naming the first bad value."""
    n = len(data)
    if len(perm) != n:
        raise ValueError("data and perm lengths differ")
    out = [None] * n
    try:
        for i, p in enumerate(perm):
            if not 0 <= index(p) < n:
                raise ValueError(f"perm value {p} out of range")
            if out[p] is not None:
                raise ValueError(f"perm repeats value {p}")
            out[p] = data[i]
    except TypeError:  # from ``index``: a float, say
        raise ValueError(f"perm value {p} is not an integer") from None
    return out  # type: ignore[return-value]


def _run_melbourne(sim, data, perm, seed, pad_factor, interrupt_model):
    engine = ShuffleEngine(sim, ShuffleParams(len(data), pad_factor, seed),
                           interrupt_model=interrupt_model)
    return engine.melbourne(data, perm), engine.stats


def _run_naive(sim, data, perm, seed, pad_factor, interrupt_model):
    out, stats = naive_shuffle(data, perm, sim, interrupt_model=interrupt_model)
    return out, [stats]


def _run_bubble(sim, data, perm, seed, pad_factor, interrupt_model):
    out, _ = bubble_shuffle(data, perm, sim)
    return out, []


# Every program takes capture_trace's callable arguments (sim, data, perm,
# seed, pad_factor, interrupt_model) and returns (output, [TxnStats]);
# bubble runs no transactions.
PROGRAMS: dict[str, Callable] = {
    "melbourne": _run_melbourne,
    "naive": _run_naive,
    "bubble": _run_bubble,
}


def _program(name: str) -> Callable:
    """The entry of ``PROGRAMS`` called ``name``, refused naming it and
    the known ones if there is none."""
    try:
        return PROGRAMS[name]
    except KeyError:
        raise ValueError(f"unknown algorithm {name!r}; one of "
                         f"{', '.join(sorted(PROGRAMS))}") from None


def capture_trace(
    program,
    data: Sequence[int],
    perm: Sequence[int],
    *,
    seed: int = 0,
    pad_factor: int = 2,
    config: CacheConfig | None = None,
    interrupt_model=None,
) -> tuple[Trace, list[int]]:
    """Run one trial under the capture protocol and return (trace, output).

    ``program`` names an entry of ``PROGRAMS`` (another name is refused
    with a ValueError) or is a callable
    ``(sim, data, perm, seed, pad_factor, interrupt_model) -> output``.
    The simulator is fresh (cold and empty), the program installs its own
    inputs through the untraced backing store, and a full flush runs
    before the snapshot so that deferred write-backs count.
    """
    sim = CacheSim(config)
    args = (sim, list(data), list(perm), seed, pad_factor, interrupt_model)
    if isinstance(program, str):
        out, _ = _program(program)(*args)
    else:
        out = program(*args)
    sim.flush_all()
    return sim.snapshot_trace(), out


@dataclass(frozen=True)
class Divergence:
    trial_a: int
    trial_b: int
    index: int
    event_a: TraceEvent | None
    event_b: TraceEvent | None


@dataclass(frozen=True)
class ObliviousnessReport:
    program: str
    trials: int
    trace_length: int
    all_equal: bool
    first_divergence: Divergence | None

    def summary(self) -> str:
        if self.all_equal:
            return (
                f"{self.program}: {self.trials} trials, "
                f"{self.trace_length} events each, traces identical"
            )
        d = self.first_divergence
        return (
            f"{self.program}: traces diverge between trial {d.trial_a} and "
            f"trial {d.trial_b} at event {d.index}: "
            f"{d.event_a} vs {d.event_b}"
        )


def first_divergence(a: Trace, b: Trace):
    """Index and event pair of the first disagreement, or None if equal.
    A missing event (length mismatch) shows up as None on the short side."""
    if a == b:  # one compare of the packed codes, no Python-level loop
        return None
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return i, a[i], b[i]
    # the traces differ, so one is a prefix of the other
    i = min(len(a), len(b))
    return i, a[i] if i < len(a) else None, b[i] if i < len(b) else None


def verify_obliviousness(
    program,
    inputs: Sequence[tuple[Sequence[int], Sequence[int]]],
    *,
    seed: int = 0,
    pad_factor: int = 2,
    config: CacheConfig | None = None,
    interrupt_model_factory: Callable[[], object] | None = None,
) -> ObliviousnessReport:
    """Capture one trace per input and compare all of them to the first.

    Every input must have the same length.  When an interrupt model is
    wanted, pass a factory so each trial starts from identical randomness.
    Every trial's output is checked against the oracle.
    """
    if len(inputs) < 2:
        raise ValueError("need at least two inputs to compare")
    sizes = {len(d) for d, _ in inputs}
    if len(sizes) != 1:
        raise ValueError("all inputs must have the same length")
    name = program if isinstance(program, str) else getattr(
        program, "__name__", "custom"
    )

    reference: Trace | None = None
    found: Divergence | None = None
    for t, (data, perm) in enumerate(inputs):
        model = interrupt_model_factory() if interrupt_model_factory else None
        trace, out = capture_trace(
            program,
            data,
            perm,
            seed=seed,
            pad_factor=pad_factor,
            config=config,
            interrupt_model=model,
        )
        if out != oracle_apply_perm(data, perm):
            raise RuntimeError(
                f"{name} produced a wrong shuffle on trial {t}"
            )
        if reference is None:
            reference = trace
            continue
        div = first_divergence(reference, trace)
        if div is not None:
            found = Divergence(0, t, *div)
            break
    return ObliviousnessReport(
        program=name,
        trials=len(inputs),
        trace_length=len(reference),
        all_equal=found is None,
        first_divergence=found,
    )


def probe_cache_sizes(sim: CacheSim | None = None) -> tuple[int, int]:
    """Recover (L1 capacity, LLC capacity) in bytes through the
    transaction interface alone.

    A declaration whose write set exceeds L1, or whose footprint exceeds
    the LLC, is rejected before it runs; everything smaller commits.
    That rejection boundary is exact, so a search on empty-bodied
    transactions (write ranges probe L1, read ranges probe the LLC) pins
    each capacity to the byte: the size doubles from one line until the
    capacity check refuses it, then a binary search narrows the last
    doubling.  Every capacity is finite, so the doubling stops with no
    ceiling of its own; on an address space smaller than a capacity it
    ends in ``run_txn``'s ValueError instead.  Only the declaration
    interface of ``sim`` (a default simulator if None) is used; the line
    size is part of that interface, read from ``sim.config`` as the only
    one ``run_txn`` accepts, and the geometry behind it is not
    consulted.  The answer is the capacity check's alone, so every probe
    runs on ``sim`` without prefetch: a refused declaration is refused
    from its line spans, and an accepted one commits with no cache
    access, so the trace, counters and lines of ``sim`` are left as they
    were and no probe costs anything per byte probed.  A declaration
    that passes the check would commit with prefetch too: one span from
    address zero puts at most ``ways`` lines in a set of each level its
    size fits, and a read displaces only its own clean lines from L1.
    """
    sim = sim or CacheSim()
    line_size = sim.config.line_size

    def fits(size: int, write: bool) -> bool:
        if write:
            decl = TxnDeclaration.of(writes=[(0, size)], line_size=line_size)
        else:
            decl = TxnDeclaration.of(reads=[(0, size)], line_size=line_size)
        try:
            run_txn(sim, decl, None, prefetch=False)
        except CapacityError:
            return False
        return True

    def max_fitting(write: bool) -> int:
        lo = line_size
        if not fits(lo, write):
            raise RuntimeError("cannot fit even one line")
        hi = lo * 2
        while fits(hi, write):
            lo = hi
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fits(mid, write):
                lo = mid
            else:
                hi = mid
        return lo

    return max_fitting(True), max_fitting(False)

"""Cache-miss-oblivious shuffling built on pinned transactions.

The goal is to apply a permutation to an array so that the observable
LLC event trace is the same for every input of a given size.  The
approach randomizes first and fixes up after: draw a fresh random
permutation, scatter both the data and the target permutation through a
bucketed intermediate buffer, and compose.  Writing it as array maps
with the convention ``out[pi[k]] = src[k]``:

    data_r = pass(data, pi_r)
    tgt_r  = pass(perm, pi_r)
    out    = pass(data_r, tgt_r)

so ``out[perm[k]] = data[k]`` exactly, while every pass moves elements
according to a permutation that is either freshly random or the image of
one, never raw input order.

Each pass has two phases of sqrt(N) transactions each.  A scatter
transaction reads one contiguous source bucket plus the matching slice
of the routing permutation, routes each element (packed with its
destination index) into a bounded slice for its destination bucket, held
in locals, and then writes every slice, padded with dummies to a fixed
length, into that bucket's row of the intermediate buffer in ascending
order, all in one run list.  A gather transaction reads one full row,
checks that it holds each of the bucket's destinations once and
otherwise only dummies, and writes the elements' values to their final
positions in destination order.  It sorts the row once: the dummy tag N
is above every destination, so a well-formed row's elements are its
first sqrt(N) words, tagged with the bucket's destinations in order, and
the words after them carry the dummy tag, which the first and the last
of them show.  A row that fails this check goes through a per-word pass
in row order, which names its first fault.  Every body access is a run of
consecutive words, and the runs' addresses are a fixed function of N: a
body's hits leave an LRU order that outlives its commit, so writing
elements in routing order would let later victim choices, and under LLC
pressure the trace, depend on the permutation.
With prefetching, both bodies run entirely out of pinned cache: every
event comes from the prefetch and commit phases, which depend only on
declared addresses.  If more than a slice's worth of one source bucket
targets one destination bucket, the scatter aborts the whole shuffle and
it restarts with a new random permutation (vanishingly rare at the
padding factors used here).

Rows of the intermediate buffer sit at a staggered stride: row length
plus the smallest pad at which every scatter transaction fits the cache
sets.  The search counts a scatter transaction's written slices with
``layout.SetLoads``, the counter the layout planner uses, which refuses
them if written lines overfill an L1 set or declared lines an LLC set,
and then adds its buckets of all five source arrays (a superset of the
two it reads), which load only the LLC.  The slices are counted once per
offset of their start within a line: a later transaction with that
offset has the same slice lines moved on by whole lines, so it tallies
its source lines per LLC set, moved back as far, on top of that count,
and copies none.  When no pad fits, the error names the level that
refused most pads; a scatter footprint larger than the whole LLC is
refused before the search.  Without the stagger (and without prefetch)
the row stride is a multiple of the L1 set count at larger sizes and the
per-set pile-up aborts the scatter until its retry cap.

Two baselines for comparison: a naive single transaction that permutes
in place with no prefetch (its trace follows the permutation), and a
transaction-free bubble sort on (destination, value) pairs whose access
sequence is a fixed function of N at word granularity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from math import isqrt
from operator import and_, index, rshift

import numpy as np

from .cache import WORD_BYTES, CacheSim, index_fields
from .layout import (
    READ_ONLY,
    READ_WRITE,
    LayoutInfeasibleError,
    LayoutPlan,
    Region,
    SetLoads,
    decl_from_plan,
)
from .txn import (
    BodyAbortError,
    CapacityError,
    RetryCapExceededError,
    TxnDeclaration,
    TxnStats,
    run_txn,
)

VALUE_MASK = (1 << 32) - 1
# The largest n the CLI runs any program at, a bound on host memory that
# no cache geometry can lift.  ``shuffle --algo naive --n 1048576`` on the
# default geometry peaks at 127 MiB under tracemalloc, about 127 bytes an
# element, and 467 MiB of RSS with tracemalloc on, before it ends in a
# capacity refusal; the input alone is built before any run can refuse.
# So n is bounded here rather than by a probe of the host's memory, and
# even a 2^48-byte address space admits no size that exhausts it.  2^20
# is far below VALUE_MASK, so no size the CLI takes reaches the packed-tag
# bound.
MAX_N = 1 << 20
_SEED_STEP = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class BucketOverflowError(BodyAbortError):
    """A scatter body found more elements for one slice than it holds;
    ``run_txn`` rolls the transaction back and re-raises it with its
    ``stats``, and the shuffle restarts with fresh randomness."""

    def __init__(self, src_bucket: int, dst_bucket: int, slice_len: int):
        super().__init__(
            f"more than {slice_len} elements from bucket {src_bucket} "
            f"target bucket {dst_bucket}"
        )
        self.src_bucket = src_bucket
        self.dst_bucket = dst_bucket


class MalformedIntermediateError(Exception):
    pass


class OverflowRetriesExceededError(Exception):
    pass


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


@dataclass(frozen=True)
class ShuffleParams:
    """Size and padding knobs.  ``n`` must be a perfect square; the
    bucket side is sqrt(n) and each (source, destination) slice holds
    ``pad_factor * ceil(log2 n)`` elements (at least one)."""

    n: int
    pad_factor: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        index_fields(self)
        if self.n < 1:
            raise ValueError("n must be positive")
        if isqrt(self.n) ** 2 != self.n:
            raise ValueError(f"n must be a perfect square, got {self.n}")
        if self.n > VALUE_MASK:
            raise ValueError("n too large for packed tags")
        if self.pad_factor < 1:
            raise ValueError("pad_factor must be at least 1")

    @property
    def bucket_count(self) -> int:
        return isqrt(self.n)

    @property
    def slice_len(self) -> int:
        return max(1, self.pad_factor * _ceil_log2(self.n))

    @property
    def bucket_capacity(self) -> int:
        return self.slice_len * self.bucket_count

    @property
    def dummy_tag(self) -> int:
        return self.n


def pack(tag: int, value: int) -> int:
    return (tag << 32) | value


def gen_perm(n: int, seed: int) -> list[int]:
    """Uniform random permutation of range(n), deterministic in the seed."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n <= 1:
        return list(range(n))
    rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    draws = rng.integers(0, np.arange(n, 1, -1))
    a = list(range(n))
    i = n - 1
    for j in draws.tolist():
        a[i], a[j] = a[j], a[i]
        i -= 1
    return a


def _attempt_seed(seed: int, attempt: int) -> int:
    return (seed + attempt * _SEED_STEP) & _MASK64


def _check_values(data, n: int) -> None:
    """Refuse ``data`` unless it is ``n`` integers (``operator.index``
    takes numpy's too) that fit in 32 bits, naming the first bad value."""
    if len(data) != n:
        raise ValueError(f"expected {n} values, got {len(data)}")
    try:
        for v in data:
            if not 0 <= index(v) <= VALUE_MASK:
                raise ValueError(f"value {v} does not fit in 32 bits")
    except TypeError:  # from ``index``: a float, say
        raise ValueError(f"value {v} is not an integer") from None


def _check_perm(perm, n: int) -> None:
    """Refuse ``perm`` unless it is a permutation of range(n), naming the
    first value that is not an integer, out of range or repeated."""
    if len(perm) != n:
        raise ValueError(f"expected a permutation of length {n}")
    seen = bytearray(n)
    try:
        for p in perm:
            if not 0 <= index(p) < n or seen[p]:
                raise ValueError(f"perm repeats value {p}" if 0 <= p < n
                                 else f"perm value {p} out of range")
            seen[p] = 1
    except TypeError:  # from ``index``
        raise ValueError(f"perm value {p} is not an integer") from None


def _round_lines(size: int, line: int) -> int:
    return -(-size // line) * line


# the n-word arrays of each program's arena, in address order from zero:
# melbourne's data_src, perm_tgt, perm_r, buf1, buf2 and out, then its
# intermediate rows; naive's data, perm and out; bubble's data, perm,
# packed work array and out
ARENA_ARRAYS = {"melbourne": 6, "naive": 3, "bubble": 4}


def arena(program: str, n: int, line_size: int, pad_factor: int = 2,
          pad: int = 0) -> list[int]:
    """The base of each n-word array of ``program``'s arena at n, each
    array in whole lines, then the end of the arena.  Melbourne's
    ``bucket_count`` intermediate rows follow its arrays, so its last base
    is ``inter``: each row is its ``bucket_capacity`` words in whole lines
    plus ``pad`` lines of stagger.  ``pad`` 0 gives the least arena any
    stagger can have."""
    step = _round_lines(n * WORD_BYTES, line_size)
    bases = [k * step for k in range(ARENA_ARRAYS[program] + 1)]
    if program == "melbourne":
        p = ShuffleParams(n, pad_factor)
        row = _round_lines(p.bucket_capacity * WORD_BYTES, line_size)
        bases.append(bases[-1] + p.bucket_count * (row + pad * line_size))
    return bases


def _bucket_values(row: list[int], j: int, params: ShuffleParams) -> list[int]:
    """The values of the ``bc`` elements of intermediate row ``j``,
    dummies dropped, in destination order; a MalformedIntermediateError
    unless the row holds each of its bucket's destinations ``lo..hi-1``
    once and otherwise only words with the dummy tag, ``n``.

    The row is sorted once.  A well-formed row's elements are then its
    first ``bc`` words, tagged ``lo..hi-1`` in order, and every dummy
    follows them, so its words from ``bc`` on carry the dummy tag if the
    first and the last of them do.  Any other row is malformed, and the
    per-word check on the unsorted row names its first fault."""
    bc, dummy = params.bucket_count, params.dummy_tag
    lo = j * bc
    hi = lo + bc
    ordered = sorted(row)
    if (list(map(rshift, ordered[:bc], repeat(32))) == list(range(lo, hi))
            and (len(row) == bc or ordered[bc] >> 32 == ordered[-1] >> 32 == dummy)):
        return list(map(and_, ordered[:bc], repeat(VALUE_MASK)))
    found = []
    for w in row:
        tag = w >> 32
        if tag == dummy:
            continue
        if not lo <= tag < hi:
            raise MalformedIntermediateError(
                f"tag {tag} does not belong to bucket {j}"
            )
        found.append(w)
    if len(found) != bc:
        raise MalformedIntermediateError(
            f"bucket {j} holds {len(found)} elements, expected {bc}"
        )
    found.sort()
    # bc tags in [lo, hi) are exactly lo..hi-1 unless one repeats
    for tag, w in enumerate(found, lo):
        if w >> 32 != tag:
            raise MalformedIntermediateError(
                f"bucket {j} repeats a tag: sorted tag {w >> 32} "
                f"where {tag} belongs"
            )
    return [w & VALUE_MASK for w in found]


class ShuffleEngine:
    """Owns the arena layout and transaction plumbing for one (n, pad)
    configuration on one simulator.

    ``staggered=False`` lays intermediate rows end to end (the conflicting
    layout) and ``prefetch=False`` runs bodies cold; both exist so the
    experiments can show what each protection buys.
    """

    OVERFLOW_CAP = 16

    def __init__(
        self,
        sim: CacheSim,
        params: ShuffleParams,
        *,
        prefetch: bool = True,
        staggered: bool = True,
        interrupt_model=None,
        retry_cap: int = 1024,
        record_plans: bool = False,
    ):
        self.sim = sim
        self.params = params
        self.prefetch = prefetch
        self.interrupt_model = interrupt_model
        self.retry_cap = retry_cap
        self.record_plans = record_plans
        self.stats: list[TxnStats] = []
        self.plans: list[LayoutPlan] = []
        self.overflow_retries = 0
        self._slices: dict[int, tuple[range, list[tuple[Region, int]]]] = {}

        cfg = self.sim.config
        line = self._line = cfg.line_size
        p = params
        # a region is a value, so this engine makes one per (name, size,
        # kind) and shares it among every placement of it, and one list of
        # slice_0, slice_1, ... per size, since a scatter's slices share one
        region = self._region = cache(Region)
        self._slice_regions = cache(lambda size: [
            region(f"slice_{j}", size, READ_WRITE) for j in range(p.bucket_count)
        ])
        self._bucket_bytes = p.bucket_count * WORD_BYTES
        self._slice_bytes = p.slice_len * WORD_BYTES
        (self.data_src, self.perm_tgt, self.perm_r, self.buf1, self.buf2, self.out,
         self.inter, rows_end) = arena("melbourne", p.n, line, p.pad_factor)
        self.row_bytes = (rows_end - self.inter) // p.bucket_count

        pad = self._find_stagger() if staggered else 0
        self.stride_bytes = self.row_bytes + pad * line
        end = arena("melbourne", p.n, line, p.pad_factor, pad)[-1]
        if end > cfg.address_space:
            raise ValueError(
                f"arena needs {end} bytes, address space is {cfg.address_space}"
            )

    # -- arena staggering --------------------------------------------------

    def _stagger_refusal(self, stride_lines: int) -> str | None:
        """The level ("l1" or "llc") at which some scatter transaction's
        written slices and its buckets of all five source arrays overfill
        a cache set together, or None if every one fits.

        Transaction i's slices start at ``inter + i * sb`` and lie a
        stride of whole lines apart, so two transactions whose slices
        start at the same offset within a line have the same slice lines
        but moved by whole lines.  The slices are counted once per such
        offset, at the first transaction with it, with ``SetLoads``.  A
        transaction's source lines load only the LLC: it tallies them per
        LLC set, moved back as far as its slices are moved on, and adds
        each set's tally to the counted slice load of that set.
        """
        cfg = self.sim.config
        line = cfg.line_size
        llc_mask, llc_ways = cfg.llc_sets - 1, cfg.llc_ways
        bc = self.params.bucket_count
        sb, bb = self._slice_bytes, self._bucket_bytes
        stride = stride_lines * line
        sources = (self.data_src, self.perm_tgt, self.perm_r, self.buf1, self.buf2)
        counted = {}  # offset in a line -> (its slice loads per LLC set, base)
        for i in range(bc):
            base = self.inter + i * sb
            got = counted.get(base % line)
            if got is None:
                slices = SetLoads(cfg)
                for a in range(base, base + bc * stride, stride):
                    first = a // line
                    if not slices.add(first, (a + sb - 1) // line - first + 1, True):
                        return slices.blocked
                got = counted[base % line] = (slices.llc, base)
            held, start = got
            tally = Counter()  # LLC set -> source lines, moved back as the slices
            for src in sources:
                a = src + i * bb - (base - start)
                lines = range(a // line, (a + bb - 1) // line + 1)
                tally.update(map(and_, lines, repeat(llc_mask)))
            if any(held.get(s, 0) + t > llc_ways for s, t in tally.items()):
                return "llc"
        return None

    def _find_stagger(self) -> int:
        cfg = self.sim.config
        line = cfg.line_size
        # a scatter transaction writes bc slices and reads two buckets, each
        # at least this many whole lines wherever the rows start
        bc = self.params.bucket_count
        writes = bc * -(-self._slice_bytes // line)
        if writes * line > cfg.l1_capacity:
            return 0  # every pad: the first scatter is refused for capacity
        need = writes + 2 * -(-self._bucket_bytes // line)
        if need > cfg.llc_sets * cfg.llc_ways:
            raise LayoutInfeasibleError(
                "capacity",
                "llc",
                f"a scatter transaction for n={self.params.n} declares at "
                f"least {need} lines, the LLC holds "
                f"{cfg.llc_sets * cfg.llc_ways}",
            )
        row_lines = self.row_bytes // line
        refused = {"llc": 0, "l1": 0}
        for pad in range(0, 2 * max(cfg.l1_sets, 64) + 1):
            level = self._stagger_refusal(row_lines + pad)
            if level is None:
                return pad
            refused[level] += 1
        level = max(refused, key=refused.get)  # "llc" on a tie
        raise LayoutInfeasibleError(
            "arrangement",
            level,
            f"no row stagger avoids set conflicts for n={self.params.n} "
            f"(pads refused: {refused['llc']} by the llc, "
            f"{refused['l1']} by l1)",
        )

    # -- transaction plumbing ----------------------------------------------

    def _run(self, placements: list[tuple[Region, int]], body) -> None:
        """Run body as one transaction that declares exactly the lines of
        its plan."""
        plan = LayoutPlan(tuple(placements))
        if self.record_plans:
            self.plans.append(plan)
        try:
            st = run_txn(
                self.sim,
                decl_from_plan(plan, self.sim.config.line_size),
                body,
                self.interrupt_model,
                prefetch=self.prefetch,
                retry_cap=self.retry_cap,
            )
        except (RetryCapExceededError, CapacityError, BucketOverflowError) as exc:
            # a transaction that did not commit still counts its attempts
            self.stats.append(exc.stats)
            raise
        self.stats.append(st)

    def _line_region(self, name: str, kind: str, base: int,
                     size: int) -> tuple[Region, int]:
        """Placement of the whole lines that [base, base + size) touches, so a
        plan states the true line footprint."""
        lo = base - base % self._line
        return self._region(name, _round_lines(base + size, self._line) - lo, kind), lo

    def _slice_addr(self, src_bucket: int, dst_bucket: int) -> int:
        return (
            self.inter
            + dst_bucket * self.stride_bytes
            + src_bucket * self._slice_bytes
        )

    def _scatter_slices(self, i: int) -> tuple[range, list[tuple[Region, int]]]:
        """Scatter transaction i's slice addresses in ascending j and their
        placements, built on first use and kept for every pass and
        overflow restart of this engine.

        Its slices lie a stride of whole lines apart, so each starts at
        the same offset in its line and touches as many lines as slice 0:
        the addresses and the placements' bases are two ``range``s, and
        the regions one list per size for the engine."""
        got = self._slices.get(i)
        if got is None:
            a, stride = self._slice_addr(i, 0), self.stride_bytes
            region, lo = self._line_region("slice_0", READ_WRITE, a, self._slice_bytes)
            span = self.params.bucket_count * stride
            got = self._slices[i] = (range(a, a + span, stride), list(zip(
                self._slice_regions(region.size), range(lo, lo + span, stride))))
        return got

    def scatter_txn(self, i: int, src: int, pi: int) -> None:
        """Move source bucket i into its per-destination slices."""
        p = self.params
        bc = p.bucket_count
        bb = self._bucket_bytes
        src0 = src + i * bb
        pi0 = pi + i * bb
        slice_addrs, slice_placements = self._scatter_slices(i)
        placements = [
            self._line_region("src_bucket", READ_ONLY, src0, bb),
            self._line_region("pi_bucket", READ_ONLY, pi0, bb),
            *slice_placements,
        ]

        slice_len = p.slice_len
        dummy_word = pack(p.dummy_tag, 0)

        def body(ctx) -> None:
            # route into slices held in locals, then write every slice in
            # ascending j, so the body's address sequence (and with it the
            # LRU order it leaves) is a fixed function of n
            dests = ctx.read_run(pi0, bc)
            vals = ctx.read_run(src0, bc)
            slices = [[] for _ in range(bc)]
            for dest, val in zip(dests, vals):
                j = dest // bc
                s = slices[j]
                if len(s) >= slice_len:
                    raise BucketOverflowError(i, j, slice_len)
                s.append(dest << 32 | val)  # pack(dest, val), inline
            for s in slices:
                s += [dummy_word] * (slice_len - len(s))
            ctx.write_runs(list(zip(slice_addrs, slices)))

        self._run(placements, body)

    def gather_txn(self, j: int, dst: int) -> None:
        """Drain intermediate row j to its destination bucket, dummy-free
        and ordered by destination index."""
        p = self.params
        row0 = self.inter + j * self.stride_bytes
        dst0 = dst + j * self._bucket_bytes
        placements = [
            self._line_region("row", READ_ONLY, row0, p.bucket_capacity * WORD_BYTES),
            self._line_region("out_bucket", READ_WRITE, dst0, self._bucket_bytes),
        ]

        def body(ctx) -> None:
            row = ctx.read_run(row0, p.bucket_capacity)
            ctx.write_run(dst0, _bucket_values(row, j, p))

        self._run(placements, body)

    # -- passes --------------------------------------------------------------

    def distribute(self, src: int, pi: int) -> None:
        for i in range(self.params.bucket_count):
            self.scatter_txn(i, src, pi)

    def cleanup(self, dst: int) -> None:
        for j in range(self.params.bucket_count):
            self.gather_txn(j, dst)

    def run_pass(self, src: int, pi: int, dst: int) -> None:
        """One full oblivious move: dst[pi[k]] = src[k]."""
        self.distribute(src, pi)
        self.cleanup(dst)

    # -- entry points ----------------------------------------------------------

    def melbourne(self, data, perm) -> list[int]:
        """Apply perm to data obliviously: returns out with
        out[perm[k]] = data[k]."""
        p = self.params
        _check_values(data, p.n)
        _check_perm(perm, p.n)
        self.sim.poke_words(self.data_src, data)
        self.sim.poke_words(self.perm_tgt, perm)
        for attempt in range(self.OVERFLOW_CAP):
            pi_r = gen_perm(p.n, _attempt_seed(p.seed, attempt))
            self.sim.poke_words(self.perm_r, pi_r)
            try:
                self.run_pass(self.data_src, self.perm_r, self.buf1)
                self.run_pass(self.perm_tgt, self.perm_r, self.buf2)
                self.run_pass(self.buf1, self.buf2, self.out)
            except BucketOverflowError:
                self.overflow_retries += 1
                continue
            return self.sim.peek_words(self.out, p.n)
        raise OverflowRetriesExceededError(
            f"{self.OVERFLOW_CAP} restarts all overflowed a slice"
        )


def melbourne_shuffle(
    data, perm, *, seed: int = 0, interrupt_model=None
) -> list[int]:
    """``ShuffleEngine.melbourne`` on a fresh default simulator."""
    engine = ShuffleEngine(
        CacheSim(), ShuffleParams(len(data), seed=seed), interrupt_model=interrupt_model
    )
    return engine.melbourne(data, perm)


def naive_shuffle(
    data,
    perm,
    sim: CacheSim | None = None,
    *,
    interrupt_model=None,
) -> tuple[list[int], TxnStats]:
    """Single unprefetched transaction: read each (perm, data) pair, write
    out[perm[k]].  The body's miss pattern and the commit's write-back
    order both follow the permutation, so the trace is input-dependent as
    soon as the arrays span more than one line.  The declared write set
    outgrows L1 at larger n and the declaration is rejected."""
    n = len(data)
    _check_values(data, n)
    _check_perm(perm, n)
    sim = sim or CacheSim()
    line = sim.config.line_size
    data0, perm0, out0, _ = arena("naive", n, line)
    sim.poke_words(data0, data)
    sim.poke_words(perm0, perm)
    decl = TxnDeclaration.of(
        reads=[(data0, n * WORD_BYTES), (perm0, n * WORD_BYTES)],
        writes=[(out0, n * WORD_BYTES)],
        line_size=line,
    )

    def body(ctx) -> None:
        for k in range(n):
            dest = ctx.read(perm0 + k * WORD_BYTES)
            val = ctx.read(data0 + k * WORD_BYTES)
            ctx.write(out0 + dest * WORD_BYTES, val)

    stats = run_txn(sim, decl, body, interrupt_model, prefetch=False)
    return sim.peek_words(out0, n), stats


def bubble_shuffle(
    data, perm, sim: CacheSim | None = None
) -> tuple[list[int], int]:
    """Transaction-free baseline: pack (destination, value) words and
    bubble sort by destination with unconditional write-back of both
    compared words.  The address sequence is a fixed function of n, so it
    is oblivious at word granularity without any cache management, at the
    price of n(n-1)/2 compare-swaps.  Returns (output, swap count)."""
    n = len(data)
    _check_values(data, n)
    _check_perm(perm, n)
    sim = sim or CacheSim()
    data0, perm0, w0, out0, _ = arena("bubble", n, sim.config.line_size)
    sim.poke_words(data0, data)
    sim.poke_words(perm0, perm)
    for k in range(n):
        dest = sim.read_word(perm0 + k * WORD_BYTES)
        val = sim.read_word(data0 + k * WORD_BYTES)
        sim.write_word(w0 + k * WORD_BYTES, pack(dest, val))
    swaps = 0
    for end in range(n - 1, 0, -1):
        for k in range(end):
            a = sim.read_word(w0 + k * WORD_BYTES)
            b = sim.read_word(w0 + (k + 1) * WORD_BYTES)
            if (a >> 32) > (b >> 32):
                a, b = b, a
            sim.write_word(w0 + k * WORD_BYTES, a)
            sim.write_word(w0 + (k + 1) * WORD_BYTES, b)
            swaps += 1
    for k in range(n):
        w = sim.read_word(w0 + k * WORD_BYTES)
        sim.write_word(out0 + k * WORD_BYTES, w & VALUE_MASK)
    return sim.peek_words(out0, n), swaps

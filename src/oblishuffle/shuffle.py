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
drops dummies, orders the survivors by destination, checks that their
tags are exactly the bucket's destinations and writes them to their
final positions.  Every body access is a run of consecutive words, and
the runs' addresses are a fixed function of N: a body's hits leave an
LRU order that outlives its commit, so writing elements in routing order
would let later victim choices, and under LLC pressure the trace, depend
on the permutation.
With prefetching, both bodies run entirely out of pinned cache: every
event comes from the prefetch and commit phases, which depend only on
declared addresses.  If more than a slice's worth of one source bucket
targets one destination bucket, the scatter aborts the whole shuffle and
it restarts with a new random permutation (vanishingly rare at the
padding factors used here).

Rows of the intermediate buffer sit at a staggered stride: row length
plus the smallest pad at which every scatter transaction fits the cache
sets.  The search feeds each scatter transaction's written slices and
its buckets of all five source arrays (a superset of the two it reads)
into one ``layout.SetLoads``, the counter the layout planner uses, which
refuses them if written lines overfill an L1 set or declared lines an
LLC set.  When no pad fits, the error names the level that refused most
pads; a scatter footprint larger than the whole LLC is refused before
the search.  Without the stagger (and without prefetch) the row stride is
a multiple of the L1 set count at larger sizes and the per-set pile-up
aborts the scatter until its retry cap.

Two baselines for comparison: a naive single transaction that permutes
in place with no prefetch (its trace follows the permutation), and a
transaction-free bubble sort on (destination, value) pairs whose access
sequence is a fixed function of N at word granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .cache import WORD_BYTES, CacheSim
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
    if len(data) != n:
        raise ValueError(f"expected {n} values, got {len(data)}")
    for v in data:
        if not 0 <= v <= VALUE_MASK:
            raise ValueError(f"value {v} does not fit in 32 bits")


def _check_perm(perm, n: int) -> None:
    if len(perm) != n:
        raise ValueError(f"expected a permutation of length {n}")
    seen = bytearray(n)
    for p in perm:
        if not 0 <= p < n or seen[p]:
            raise ValueError("perm is not a permutation of range(n)")
        seen[p] = 1


def _round_lines(size: int, line: int) -> int:
    return -(-size // line) * line


def arena_bytes(params: ShuffleParams, line_size: int, pad: int) -> int:
    """The bytes of melbourne's arena: the six n-word arrays, each in
    whole lines, then ``bucket_count`` intermediate rows, each its
    ``bucket_capacity`` words in whole lines plus ``pad`` lines of
    stagger.  ``pad`` 0 gives the least arena any stagger can have."""
    array_bytes = _round_lines(params.n * WORD_BYTES, line_size)
    row_bytes = _round_lines(params.bucket_capacity * WORD_BYTES, line_size)
    return 6 * array_bytes + params.bucket_count * (row_bytes + pad * line_size)


def _line_region(
    name: str, kind: str, base: int, size: int, line: int
) -> tuple[Region, int]:
    """Placement of the whole lines that [base, base + size) touches, so a
    plan states the true line footprint."""
    lo = base - base % line
    return Region(name, _round_lines(base + size, line) - lo, kind), lo


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
        self._slices: dict[int, tuple[list[int], list[tuple[Region, int]]]] = {}

        cfg = self.sim.config
        line = cfg.line_size
        p = params
        self._bucket_bytes = p.bucket_count * WORD_BYTES
        self._slice_bytes = p.slice_len * WORD_BYTES
        self.row_bytes = _round_lines(p.bucket_capacity * WORD_BYTES, line)

        array_bytes = _round_lines(p.n * WORD_BYTES, line)
        self.data_src = 0
        self.perm_tgt = array_bytes
        self.perm_r = 2 * array_bytes
        self.buf1 = 3 * array_bytes
        self.buf2 = 4 * array_bytes
        self.out = 5 * array_bytes
        self.inter = 6 * array_bytes

        pad = self._find_stagger() if staggered else 0
        self.stride_bytes = self.row_bytes + pad * line
        end = arena_bytes(p, line, pad)
        if end > cfg.address_space:
            raise ValueError(
                f"arena needs {end} bytes, address space is {cfg.address_space}"
            )

    # -- arena staggering --------------------------------------------------

    def _stagger_refusal(self, stride_lines: int) -> str | None:
        """The level ("l1" or "llc") at which some scatter transaction's
        written slices and its buckets of all five source arrays overfill
        a cache set together, or None if every one fits."""
        cfg = self.sim.config
        line = cfg.line_size
        bc = self.params.bucket_count
        sb, bb = self._slice_bytes, self._bucket_bytes
        sources = (self.data_src, self.perm_tgt, self.perm_r, self.buf1, self.buf2)
        for i in range(bc):
            loads = SetLoads(cfg)
            for j in range(bc):
                a = self.inter + j * stride_lines * line + i * sb
                first = a // line
                if not loads.add(first, (a + sb - 1) // line - first + 1, True):
                    return loads.blocked
            for src in sources:
                a = src + i * bb
                first = a // line
                if not loads.add(first, (a + bb - 1) // line - first + 1, False):
                    return loads.blocked
        return None

    def _find_stagger(self) -> int:
        cfg = self.sim.config
        if self.row_bytes > cfg.l1_capacity:
            return 0  # capacity abort will fire at declare time anyway
        line = cfg.line_size
        # a scatter transaction declares bc slices and two buckets, each
        # at least this many whole lines wherever the rows start
        bc = self.params.bucket_count
        need = bc * -(-self._slice_bytes // line) + 2 * -(-self._bucket_bytes // line)
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

    def _slice_addr(self, src_bucket: int, dst_bucket: int) -> int:
        return (
            self.inter
            + dst_bucket * self.stride_bytes
            + src_bucket * self._slice_bytes
        )

    def _scatter_slices(self, i: int) -> tuple[list[int], list[tuple[Region, int]]]:
        """Scatter transaction i's slice addresses in ascending j and their
        placements, built on first use and kept for every pass and
        overflow restart of this engine."""
        got = self._slices.get(i)
        if got is None:
            line = self.sim.config.line_size
            addrs = [self._slice_addr(i, j) for j in range(self.params.bucket_count)]
            got = self._slices[i] = (addrs, [
                _line_region(f"slice_{j}", READ_WRITE, a, self._slice_bytes, line)
                for j, a in enumerate(addrs)
            ])
        return got

    def scatter_txn(self, i: int, src: int, pi: int) -> None:
        """Move source bucket i into its per-destination slices."""
        p = self.params
        bc = p.bucket_count
        bb = self._bucket_bytes
        line = self.sim.config.line_size
        src0 = src + i * bb
        pi0 = pi + i * bb
        slice_addrs, slice_placements = self._scatter_slices(i)
        placements = [
            _line_region("src_bucket", READ_ONLY, src0, bb, line),
            _line_region("pi_bucket", READ_ONLY, pi0, bb, line),
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
                s.append(pack(dest, val))
            for s in slices:
                s += [dummy_word] * (slice_len - len(s))
            ctx.write_runs(list(zip(slice_addrs, slices)))

        self._run(placements, body)

    def gather_txn(self, j: int, dst: int) -> None:
        """Drain intermediate row j to its destination bucket, dummy-free
        and ordered by destination index."""
        p = self.params
        bc = p.bucket_count
        row0 = self.inter + j * self.stride_bytes
        dst0 = dst + j * self._bucket_bytes
        line = self.sim.config.line_size
        placements = [
            _line_region(
                "row", READ_ONLY, row0, p.bucket_capacity * WORD_BYTES, line
            ),
            _line_region("out_bucket", READ_WRITE, dst0, self._bucket_bytes, line),
        ]
        lo = j * bc
        hi = lo + bc
        dummy = p.dummy_tag

        def body(ctx) -> None:
            found = []
            for w in ctx.read_run(row0, p.bucket_capacity):
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
            ctx.write_run(dst0, [w & VALUE_MASK for w in found])

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
    retry_cap: int = 1024,
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
    abytes = _round_lines(n * WORD_BYTES, line)
    data0, perm0, out0 = 0, abytes, 2 * abytes
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

    stats = run_txn(
        sim, decl, body, interrupt_model, prefetch=False, retry_cap=retry_cap
    )
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
    line = sim.config.line_size
    abytes = _round_lines(n * WORD_BYTES, line)
    data0, perm0, w0, out0 = 0, abytes, 2 * abytes, 3 * abytes
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

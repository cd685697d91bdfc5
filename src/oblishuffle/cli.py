"""Command line front end.

Subcommands and the flags each one takes (every one also takes
``--config``):

- ``shuffle``: run one algorithm on one input, print or save the output,
  optionally exporting the captured event trace.  ``--algo``, ``--n``,
  ``--input``, ``--perm``, ``--out``, ``--trace``, ``--cache-config``,
  ``--seed``, ``--pad-factor``.
- ``bench``: event-count comparison across algorithms and sizes, with a
  retry-weighted cost column.  ``--algos``, ``--n-list``, ``--lam``,
  ``--bubble-max``, ``--out``, ``--seed``, ``--pad-factor``,
  ``--retry-cap``.
- ``aborts``: abort-cause breakdown of the oblivious shuffle against its
  unprotected variant and an interrupt-only control.  ``--n-list``,
  ``--rate``, ``--out``, ``--seed``, ``--pad-factor``, ``--retry-cap``.
- ``verify``: trace-equality check over freshly generated inputs.
  ``--program``, ``--n``, ``--trials``, ``--rate``, ``--cache-config``,
  ``--seed``, ``--pad-factor``.
- ``probe``: recover the cache capacities through the transaction
  interface and print them.  ``--cache-config``.

A subcommand rejects any other flag.  Every run is deterministic given
its flags: inputs derive from the seed, tables are emitted in sorted
order, and reruns are byte-identical.  ``--config FILE`` reads
``key=value`` lines and passes each as ``--key=value`` right after the
subcommand name, so the subcommand's parser checks them like flags and
explicit flags, coming later, win.  Exit status: 0 on success, 1 when a
check fails (trace divergence, output mismatch, capacity rejection, no
conflict-free arena layout, retry exhaustion), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from math import isfinite, isqrt

import numpy as np

from .cache import CacheConfig, CacheSim
from .layout import LayoutInfeasibleError
from .shuffle import (
    OverflowRetriesExceededError,
    ShuffleEngine,
    ShuffleParams,
    gen_perm,
)
from .txn import (
    AccessProbability,
    CapacityError,
    RetryCapExceededError,
    TxnDeclaration,
    TxnStats,
    run_txn,
)
from .verify import (
    PROGRAMS,
    capture_trace,
    oracle_apply_perm,
    probe_cache_sizes,
    verify_obliviousness,
)

_MASK64 = (1 << 64) - 1

# bubble is word-granular, so it is costed on a minimal hierarchy where
# every word access meets the memory boundary
BUBBLE_BENCH_CONFIG = CacheConfig(
    line_size=8, l1_sets=1, l1_ways=1, llc_sets=1, llc_ways=1
)

ABORT_VARIANTS = ("interrupt-only", "melbourne", "no-prefetch")


def make_inputs(n: int, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic (data, perm) pair for a given size and seed."""
    key = (seed * 1_000_003 + n) & _MASK64
    rng = np.random.Generator(np.random.Philox(key=(2 * key) & _MASK64))
    data = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).tolist()
    perm = gen_perm(n, (2 * key + 1) & _MASK64)
    return data, perm


def _interrupt_model(rate: float, seed: int) -> AccessProbability | None:
    """Per-access interrupts at ``rate``, or None at rate 0.  Every other
    rate reaches AccessProbability, which refuses one outside [0, 1] (NaN
    included)."""
    return AccessProbability(rate, seed) if rate != 0 else None


# -- bench -------------------------------------------------------------------


@dataclass
class BenchCell:
    algo: str
    n: int
    events: int = 0
    txns: int = 0
    attempts: int = 0
    aborts: int = 0
    capacity_abort: bool = False
    stats: tuple[TxnStats, ...] = ()

    def cost(self, lam: float):
        if self.capacity_abort:
            return None
        return self.events + lam * self.attempts


def run_bench_cell(
    algo: str,
    n: int,
    *,
    seed: int = 0,
    pad_factor: int = 2,
    retry_cap: int = 1024,
) -> BenchCell:
    """One (algorithm, size) measurement with its output checked against
    the oracle.  A declaration rejected for capacity becomes a cell with
    ``capacity_abort`` set instead of numbers."""
    data, perm = make_inputs(n, seed)
    cell = BenchCell(algo=algo, n=n)
    sim = CacheSim(BUBBLE_BENCH_CONFIG if algo == "bubble" else None)
    try:
        out, stats = PROGRAMS[algo](
            sim, data, perm, seed, pad_factor, None, retry_cap
        )
    except CapacityError as exc:
        cell.capacity_abort = True
        cell.txns = 1
        cell.aborts = 1
        cell.stats = (exc.stats,)
        return cell
    sim.flush_all()
    if out != oracle_apply_perm(data, perm):
        raise RuntimeError(f"{algo} output wrong at n={n}")
    cell.events = len(sim.trace)
    cell.stats = tuple(stats)
    cell.txns = len(stats)
    cell.attempts = sum(s.attempts for s in stats)
    cell.aborts = sum(s.ac2 + s.ac3 + s.ac4 for s in stats)
    return cell


def _fmt_num(v) -> str:
    if v is None:
        return "AC3"
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def bench_rows(
    algos,
    n_list,
    *,
    seed: int = 0,
    pad_factor: int = 2,
    lam: float = 50.0,
    retry_cap: int = 1024,
    bubble_max: int = 1024,
) -> list[str]:
    for algo in algos:
        if algo not in PROGRAMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    rows = ["algo,n,events,txns,aborts,cost"]
    for algo in sorted(algos):
        for n in sorted(n_list):
            if algo == "bubble" and n > bubble_max:
                continue
            cell = run_bench_cell(
                algo, n, seed=seed, pad_factor=pad_factor, retry_cap=retry_cap
            )
            rows.append(
                f"{cell.algo},{cell.n},{cell.events},{cell.txns},"
                f"{cell.aborts},{_fmt_num(cell.cost(lam))}"
            )
    return rows


# -- aborts ------------------------------------------------------------------


class _ConsultationCounter:
    """Interrupt model that never fires and adds each consultation to the
    transaction of ``engine`` making it, keyed by (overflow restart,
    transaction index)."""

    def __init__(self, engine: ShuffleEngine):
        self.engine = engine
        self.counts: dict[tuple[int, int], int] = {}

    def first_fire(self, count: int) -> None:
        key = (self.engine.overflow_retries, len(self.engine.stats))
        self.counts[key] = self.counts.get(key, 0) + count


def _consultations_per_txn(data, perm, n, pad_factor, seed) -> list[int]:
    """Interrupt consultations of each transaction of one undisturbed
    ``melbourne`` run, in order; a restart after an overflow keeps only
    the run that completed.  Every melbourne body consults the model."""
    engine = ShuffleEngine(CacheSim(), ShuffleParams(n, pad_factor, seed))
    counter = engine.interrupt_model = _ConsultationCounter(engine)
    engine.melbourne(data, perm)
    last = engine.overflow_retries
    return [c for (restart, _), c in counter.counts.items() if restart == last]


def run_aborts_variant(
    variant: str,
    n: int,
    *,
    seed: int = 0,
    rate: float = 0.0,
    pad_factor: int = 2,
    retry_cap: int = 1024,
) -> dict:
    """One row of the abort experiment, plus the interrupt model's
    consultations, which the table does not show."""
    data, perm = make_inputs(n, seed)
    model = _interrupt_model(rate, (seed * 31 + n) & _MASK64)
    flag = "ok"
    stats: list[TxnStats] = []

    if variant in ("melbourne", "no-prefetch"):
        protected = variant == "melbourne"
        engine = ShuffleEngine(
            CacheSim(),
            ShuffleParams(n, pad_factor, seed),
            prefetch=protected,
            staggered=protected,
            interrupt_model=model,
            retry_cap=retry_cap,
        )
        try:
            engine.melbourne(data, perm)
        except RetryCapExceededError:
            flag = "retry-cap"
        stats = engine.stats
    elif variant == "interrupt-only":
        # same transaction schedule and per-transaction consultation counts
        # as the oblivious shuffle, but bodies only tick: no memory at
        # stake, so every abort it sees is an interrupt
        sim = CacheSim()
        decl = TxnDeclaration.of(
            reads=[(0, 8)], line_size=sim.config.line_size
        )

        def ticker(k):
            return lambda ctx: ctx.tick(k)

        try:
            for k in _consultations_per_txn(data, perm, n, pad_factor, seed):
                stats.append(run_txn(sim, decl, ticker(k), model,
                                     retry_cap=retry_cap))
        except RetryCapExceededError as exc:
            stats.append(exc.stats)
            flag = "retry-cap"
    else:
        raise ValueError(f"unknown variant {variant!r}")

    return {
        "variant": variant,
        "n": n,
        "ac2": sum(s.ac2 for s in stats),
        "ac4": sum(s.ac4 for s in stats),
        "attempts": sum(s.attempts for s in stats),
        "flag": flag,
        "consultations": model.consultations if model else 0,
    }


def aborts_rows(
    n_list,
    *,
    seed: int = 0,
    rate: float = 0.001,
    pad_factor: int = 2,
    retry_cap: int = 1024,
) -> list[str]:
    rows = ["variant,n,ac2,ac4,attempts,flag"]
    for variant in sorted(ABORT_VARIANTS):
        for n in sorted(n_list):
            r = run_aborts_variant(
                variant,
                n,
                seed=seed,
                rate=rate,
                pad_factor=pad_factor,
                retry_cap=retry_cap,
            )
            rows.append(
                f"{r['variant']},{r['n']},{r['ac2']},{r['ac4']},"
                f"{r['attempts']},{r['flag']}"
            )
    return rows


# -- plumbing ----------------------------------------------------------------


def _n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --n-list: {exc}") from None
    if not values:
        raise ValueError(f"bad --n-list: no sizes in {text!r}")
    for i, n in enumerate(values):
        if n < 1 or isqrt(n) ** 2 != n:
            raise ValueError(
                f"bad --n-list: sizes must be perfect squares, got {n}"
            )
        if n in values[:i]:
            raise ValueError(f"bad --n-list: size {n} given more than once")
    return values


def _positive_n(n: int) -> int:
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    return n


def _cost_weight(lam: float) -> float:
    if not (isfinite(lam) and lam >= 0):
        raise ValueError(f"--lam must be finite and at least 0, got {lam}")
    return lam


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_cache_config(args) -> CacheConfig:
    if args.cache_config:
        return CacheConfig.from_file(args.cache_config)
    return CacheConfig()


def _extract_config_path(argv) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _config_tokens(path: str) -> list[str]:
    """One ``--key=value`` token per ``key=value`` line of the file; '#'
    starts a comment and blank lines are skipped."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"malformed config line: {raw!r}")
            key = key.strip().replace("_", "-")
            tokens.append(f"--{key}={val.strip()}")
    return tokens


# -- subcommands -------------------------------------------------------------


def cmd_shuffle(args) -> int:
    config = _load_cache_config(args)
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = [int(tok) for tok in fh.read().split()]
        if not args.perm:
            raise ValueError("--perm is required with --input")
        with open(args.perm, "r", encoding="utf-8") as fh:
            perm = [int(tok) for tok in fh.read().split()]
    elif args.n is not None:
        data, perm = make_inputs(_positive_n(args.n), args.seed)
    else:
        raise ValueError("pass --n or --input/--perm")

    trace, out = capture_trace(
        args.algo,
        data,
        perm,
        seed=args.seed,
        pad_factor=args.pad_factor,
        config=config,
    )
    if out != oracle_apply_perm(data, perm):
        raise RuntimeError("output does not match the reference")
    _emit([str(v) for v in out], args.out)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.export_csv())
    return 0


def cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    rows = bench_rows(
        algos,
        _n_list(args.n_list),
        seed=args.seed,
        pad_factor=args.pad_factor,
        lam=_cost_weight(args.lam),
        retry_cap=args.retry_cap,
        bubble_max=args.bubble_max,
    )
    _emit(rows, args.out)
    return 0


def cmd_aborts(args) -> int:
    rows = aborts_rows(
        _n_list(args.n_list),
        seed=args.seed,
        rate=args.rate,
        pad_factor=args.pad_factor,
        retry_cap=args.retry_cap,
    )
    _emit(rows, args.out)
    return 0


def cmd_verify(args) -> int:
    config = _load_cache_config(args)
    _positive_n(args.n)
    inputs = [
        make_inputs(args.n, args.seed + 1_000_000_007 * t)
        for t in range(args.trials)
    ]
    factory = lambda: _interrupt_model(args.rate, args.seed & _MASK64)
    report = verify_obliviousness(
        args.program,
        inputs,
        seed=args.seed,
        pad_factor=args.pad_factor,
        config=config,
        interrupt_model_factory=factory,
    )
    print(report.summary())
    return 0 if report.all_equal else 1


def cmd_probe(args) -> int:
    config = _load_cache_config(args)
    if config.address_space < config.llc_capacity:
        # the probe declares up to the whole LLC from address zero
        raise ValueError(
            f"address space of {config.address_space} bytes is smaller than "
            f"the {config.llc_capacity}-byte LLC; the probe cannot fill it"
        )
    l1, llc = probe_cache_sizes(
        lambda: CacheSim(config), line_size=config.line_size
    )
    print(f"{l1} {llc}")
    return 0


# -- parser ------------------------------------------------------------------


_SHARED_FLAGS = {
    "--config": dict(help="key=value file of flag defaults"),
    "--cache-config": dict(help="key=value cache geometry file"),
    "--seed": dict(type=int, default=0),
    "--pad-factor": dict(type=int, default=2),
    "--retry-cap": dict(type=int, default=1024),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblishuffle",
        description="cache-miss-oblivious shuffling on a simulated hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, *shared):
        # no abbreviations: a config key must name its flag exactly
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        for flag in ("--config",) + shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = command("shuffle", "run one shuffle", cmd_shuffle,
                "--cache-config", "--seed", "--pad-factor")
    p.add_argument("--algo", default="melbourne",
                   choices=sorted(PROGRAMS))
    p.add_argument("--n", type=int)
    p.add_argument("--input", help="file of whitespace-separated values")
    p.add_argument("--perm", help="file of whitespace-separated destinations")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--trace", help="write the captured event trace here")

    p = command("bench", "event-count comparison table", cmd_bench,
                "--seed", "--pad-factor", "--retry-cap")
    p.add_argument("--algos", default="melbourne,naive,bubble")
    p.add_argument("--n-list", default="16,64,256,1024,4096,16384")
    p.add_argument("--lam", type=float, default=50.0,
                   help="cost weight per transaction attempt")
    p.add_argument("--bubble-max", type=int, default=1024,
                   help="skip the quadratic baseline above this size")
    p.add_argument("--out")

    p = command("aborts", "abort-cause breakdown table", cmd_aborts,
                "--seed", "--pad-factor", "--retry-cap")
    p.add_argument("--n-list", default="256,1024")
    p.add_argument("--rate", type=float, default=0.001,
                   help="per-operation interrupt probability")
    p.add_argument("--out")

    p = command("verify", "trace-equality check", cmd_verify,
                "--cache-config", "--seed", "--pad-factor")
    p.add_argument("--program", default="melbourne",
                   choices=sorted(PROGRAMS))
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--rate", type=float, default=0.0,
                   help="interrupt probability (same seed every trial)")

    command("probe", "recover cache capacities", cmd_probe, "--cache-config")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv[0] if argv else "oblishuffle"
    try:
        cfg_path = _extract_config_path(argv)
        if cfg_path:
            argv[1:1] = _config_tokens(cfg_path)
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args)
    except (
        CapacityError,
        LayoutInfeasibleError,
        RetryCapExceededError,
        OverflowRetriesExceededError,
        RuntimeError,  # output differs from the oracle
    ) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Five subcommands reproduce the experiments: ``shuffle`` runs one algorithm
on one input and prints or saves the output, optionally exporting the
captured event trace; ``bench`` compares event counts across algorithms
and sizes, with a retry-weighted cost column; ``aborts`` breaks down abort
causes of the oblivious shuffle against its unprotected variant and an
interrupt-only control; ``verify`` checks trace equality over freshly
generated inputs; ``probe`` recovers the cache capacities through the
transaction interface.

Each flag is declared once, in ``_FLAGS``: its argparse keywords and its
rule.  ``_COMMANDS`` lists the flags each subcommand takes (every one also
takes ``--config``) and the defaults that differ between subcommands; a
subcommand rejects any other flag.  ``main`` runs every flag's rule, then
``_joint_rules`` for the rules that read two flags, on the final parsed
namespace, so each refusal is made before the subcommand starts.

Every run is deterministic given its flags: inputs derive from the seed,
tables are emitted in sorted order, and reruns are byte-identical.
``--config FILE``, given at most once, reads ``key=value`` lines (none of
them ``config``) and passes each as ``--key=value`` right after the
subcommand name, so the subcommand's parser checks them like flags and
explicit flags, coming later, win.
Exit status: 0 on success, 1 when a check fails (trace divergence, output
mismatch, capacity rejection, no conflict-free arena layout, retry
exhaustion), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from math import isfinite, isqrt

import numpy as np

from .cache import WORD_BYTES, CacheConfig, CacheSim
from .layout import LayoutInfeasibleError
from .shuffle import (
    VALUE_MASK,
    OverflowRetriesExceededError,
    ShuffleEngine,
    ShuffleParams,
    arena_bytes,
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
    """Per-access interrupts at ``rate``, or None at rate 0.
    AccessProbability refuses a rate outside [0, 1] (NaN included), which
    ``--rate``'s rule has already refused by name."""
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


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_path(argv) -> str | None:
    """The file of the one ``--config`` in ``argv``, if any."""
    paths = [tok.partition("=")[2] if "=" in tok else nxt
             for tok, nxt in zip(argv, argv[1:] + [None])
             if tok == "--config" or tok.startswith("--config=")]
    if len(paths) > 1:
        raise ValueError("--config given more than once")
    return paths[0] if paths else None


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
            if key == "config":
                raise ValueError(f"--config {path}: a config file cannot set config")
            tokens.append(f"--{key}={val.strip()}")
    return tokens


# -- subcommands -------------------------------------------------------------
#
# main has run every flag's rule before a subcommand starts, so these refuse
# only data: input files that do not parse or do not form a permutation.


def cmd_shuffle(args) -> int:
    """Run one shuffle."""
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = [int(tok) for tok in fh.read().split()]
        with open(args.perm, "r", encoding="utf-8") as fh:
            perm = [int(tok) for tok in fh.read().split()]
    else:
        data, perm = make_inputs(args.n, args.seed)

    trace, out = capture_trace(args.algo, data, perm, seed=args.seed,
                               pad_factor=args.pad_factor, config=args.cache_config)
    if out != oracle_apply_perm(data, perm):
        raise RuntimeError("output does not match the reference")
    # the trace first, so a trace path that cannot be written prints nothing
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.export_csv())
    _emit([str(v) for v in out], args.out)
    return 0


def cmd_bench(args) -> int:
    """Event-count comparison table."""
    rows = bench_rows(args.algos, args.n_list, seed=args.seed,
                      pad_factor=args.pad_factor, lam=args.lam,
                      retry_cap=args.retry_cap, bubble_max=args.bubble_max)
    _emit(rows, args.out)
    return 0


def cmd_aborts(args) -> int:
    """Abort-cause breakdown table."""
    rows = aborts_rows(
        args.n_list,
        seed=args.seed,
        rate=args.rate,
        pad_factor=args.pad_factor,
        retry_cap=args.retry_cap,
    )
    _emit(rows, args.out)
    return 0


def cmd_verify(args) -> int:
    """Trace-equality check."""
    inputs = [
        make_inputs(args.n, args.seed + 1_000_000_007 * t)
        for t in range(args.trials)
    ]
    factory = lambda: _interrupt_model(args.rate, args.seed & _MASK64)
    report = verify_obliviousness(args.program, inputs, seed=args.seed,
                                  pad_factor=args.pad_factor,
                                  config=args.cache_config,
                                  interrupt_model_factory=factory)
    print(report.summary())
    return 0 if report.all_equal else 1


def cmd_probe(args) -> int:
    """Recover the cache capacities."""
    config = args.cache_config
    l1, llc = probe_cache_sizes(
        lambda: CacheSim(config), line_size=config.line_size
    )
    print(f"{l1} {llc}")
    return 0


# -- flags -------------------------------------------------------------------
#
# A rule takes a flag and its parsed value and returns the value the
# subcommand gets, or raises a ValueError naming the flag.


def _rule(ok, text: str):
    """A rule that refuses a value failing ``ok`` with ``text``, formatted
    with the flag and the value; None, a flag not given, passes."""
    def rule(flag: str, v):
        if v is not None and not ok(v):
            raise ValueError(text.format(flag=flag, v=v))
        return v
    return rule


def _listing(what: str, item):
    """A rule for comma-separated values, each through ``item``, which
    raises a ValueError for a bad one; refused too when there are none or
    one repeats."""
    def rule(flag: str, text: str) -> list:
        try:
            values = [item(tok.strip()) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"bad {flag}: {exc}") from None
        if not values:
            raise ValueError(f"bad {flag}: no {what}s in {text!r}")
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"bad {flag}: {what} {v} given more than once")
        return values
    return rule


def _fit(what: str, n: int, space: int) -> None:
    """Refuse a size whose words alone overflow the address space, or
    that no packed word can hold, before any input of that size is
    built."""
    if n * WORD_BYTES > space:
        raise ValueError(f"{what} must fit the {space}-byte address space "
                         f"at {WORD_BYTES} bytes a word, got {n}")
    # melbourne's tags and bubble's packed words hold a destination in 32 bits
    if n > VALUE_MASK:
        raise ValueError(f"{what} must be at most {VALUE_MASK}: destinations "
                         f"are packed in 32 bits, got {n}")


def _square_size(tok: str) -> int:
    n = int(tok)
    if n < 1 or isqrt(n) ** 2 != n:
        raise ValueError(f"sizes must be perfect squares, got {n}")
    _fit("sizes", n, CacheConfig().address_space)  # bench and aborts' geometry
    return n


def _algo_name(tok: str) -> str:
    if tok not in PROGRAMS:
        raise ValueError(
            f"unknown algorithm {tok!r}; one of {', '.join(sorted(PROGRAMS))}"
        )
    return tok


def _geometry(flag: str, path: str | None) -> CacheConfig:
    return CacheConfig.from_file(path) if path else CacheConfig()


_AT_LEAST_1 = _rule(lambda v: v >= 1, "{flag} must be at least 1, got {v}")
_AT_LEAST_2 = _rule(lambda v: v >= 2, "{flag} must be at least 2")
_WEIGHT = _rule(lambda v: isfinite(v) and v >= 0,
                "{flag} must be finite and at least 0, got {v}")
_RATE = _rule(lambda v: 0 <= v <= 1, "{flag} must be in [0, 1], got {v}")

# every flag once: its argparse keywords and its rule (None: any value)
_FLAGS = {
    "--config": (dict(help="key=value file of flag defaults"), None),
    "--cache-config": (dict(help="key=value cache geometry file"), _geometry),
    "--seed": (dict(type=int, default=0), None),
    "--pad-factor": (dict(type=int, default=2), _AT_LEAST_1),
    "--retry-cap": (dict(type=int, default=1024), _AT_LEAST_1),
    "--algo": (dict(default="melbourne", choices=sorted(PROGRAMS)), None),
    "--program": (dict(default="melbourne", choices=sorted(PROGRAMS)), None),
    "--n": (dict(type=int), _AT_LEAST_1),
    "--input": (dict(help="file of whitespace-separated values"), None),
    "--perm": (dict(help="file of whitespace-separated destinations"), None),
    "--out": (dict(help="output file (default stdout)"), None),
    "--trace": (dict(help="write the captured event trace here"), None),
    "--algos": (dict(default="melbourne,naive,bubble"),
                _listing("algorithm", _algo_name)),
    "--n-list": (dict(help="comma-separated sizes"), _listing("size", _square_size)),
    "--lam": (dict(type=float, default=50.0,
                   help="cost weight per transaction attempt"), _WEIGHT),
    "--bubble-max": (dict(type=int, default=1024,
                          help="skip the quadratic baseline above this size"),
                     _AT_LEAST_1),
    "--trials": (dict(type=int, default=8), _AT_LEAST_2),
    "--rate": (dict(type=float, help="per-access interrupt probability"), _RATE),
}

# per subcommand: its handler, whose docstring is its help, the defaults
# that differ between subcommands, and its flags besides --config in help
# order, which is also the order their rules run in
_COMMANDS = {
    "shuffle": (cmd_shuffle, {}, "--cache-config --seed --pad-factor --algo "
                "--n --input --perm --out --trace"),
    "bench": (cmd_bench, {"--n-list": "16,64,256,1024,4096,16384"},
              "--seed --pad-factor --retry-cap --algos --n-list --lam "
              "--bubble-max --out"),
    "aborts": (cmd_aborts, {"--n-list": "256,1024", "--rate": 0.001},
               "--seed --pad-factor --retry-cap --n-list --rate --out"),
    "verify": (cmd_verify, {"--n": 256, "--rate": 0.0}, "--cache-config "
               "--seed --pad-factor --program --n --trials --rate"),
    "probe": (cmd_probe, {}, "--cache-config"),
}


def _joint_rules(args) -> None:
    """The rules that read more than one flag, run after every flag's own
    rule, on the same namespace."""
    config = getattr(args, "cache_config", None)
    if args.command == "probe" and config.address_space < config.llc_capacity:
        # the probe declares up to the whole LLC from address zero
        raise ValueError(
            f"address space of {config.address_space} bytes is smaller than "
            f"the {config.llc_capacity}-byte LLC; the probe cannot fill it"
        )
    if args.command == "shuffle":
        if args.input and args.n is not None:
            raise ValueError("--n cannot be given with --input, which sets the size")
        if bool(args.input) != bool(args.perm):
            raise ValueError("--perm is required with --input" if args.input else
                             "--perm needs --input; --n draws the permutation")
        if not args.input and args.n is None:
            raise ValueError("pass --n or --input/--perm")
    geometry = config or CacheConfig()  # bench and aborts run on the default
    space = geometry.address_space
    n = getattr(args, "n", None)
    program = getattr(args, "algo", None) or getattr(args, "program", None)
    melbourne = (program == "melbourne" or args.command == "aborts"
                 or "melbourne" in getattr(args, "algos", ()))
    if n is not None:
        if melbourne and isqrt(n) ** 2 != n:  # sqrt(n)-wide buckets
            raise ValueError(f"--n must be a perfect square for melbourne, got {n}")
        _fit("--n", n, space)
    sizes = getattr(args, "n_list", None) or ([] if n is None else [n])
    size_flag = "--n-list" if getattr(args, "n_list", None) else "--n"
    for n in sizes if melbourne else ():
        # the arena with no stagger pad is the least melbourne can run in;
        # the size is at fault if even --pad-factor 1 does not fit it
        for pf in (1, args.pad_factor):
            need = arena_bytes(ShuffleParams(n, pf), geometry.line_size, 0)
            if need > space:
                what = f"{size_flag} {n}" if pf == 1 else f"--pad-factor {pf}"
                raise ValueError(
                    f"{what} needs a {need}-byte melbourne arena at n = {n}, "
                    f"--pad-factor {pf}, more than the {space}-byte address space")


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblishuffle",
        description="cache-miss-oblivious shuffling on a simulated hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, defaults, flags) in _COMMANDS.items():
        # no abbreviations: a config key must name its flag exactly
        p = sub.add_parser(name, help=handler.__doc__, allow_abbrev=False)
        for flag in ["--config"] + flags.split():
            kwargs = _FLAGS[flag][0]
            if flag in defaults:
                kwargs = dict(kwargs, default=defaults[flag])
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv[0] if argv else "oblishuffle"
    try:
        cfg_path = _config_path(argv)
        if cfg_path:
            argv[1:1] = _config_tokens(cfg_path)
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        # on the final namespace: a config value a flag overrides is not checked
        handler, _, flags = _COMMANDS[args.command]
        for flag in flags.split():
            dest, rule = flag[2:].replace("-", "_"), _FLAGS[flag][1]
            if rule:
                setattr(args, dest, rule(flag, getattr(args, dest)))
        _joint_rules(args)
        return handler(args)
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

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
subcommand rejects any other flag.  ``_add_flags`` gives a parser one
subcommand's flags from those two tables.  When ``argv`` starts with a
subcommand's name, ``main`` builds that subcommand's parser alone;
anything else (no arguments, ``-h``, an unknown name) goes through the
full ``build_parser``, for argparse's own top-level help and refusals.
Neither parser is kept between calls.  ``main`` runs every flag's rule,
then ``_joint_rules`` for the rules that read two flags, on the final
parsed namespace, so each refusal is made before the subcommand starts.
The handlers then read the flags off that namespace and state no default
of their own: ``cmd_bench`` and ``cmd_aborts`` build their tables row by
row from ``run_bench_cell`` and ``run_aborts_variant``.  ``bench`` takes
no ``--retry-cap``: it runs no interrupt model, and no bench run reaches
the library's cap; under ``aborts``' interrupts the cap binds.

Every run is deterministic given its flags: inputs derive from the seed,
tables are emitted in sorted order, and reruns are byte-identical.
``--config FILE``, given at most once and after the subcommand name, is
a flag of the subcommand's own parser.  Once that parser has parsed the
command line with nothing left over, ``main`` reads the file's
``key=value`` lines (none of them ``config``, and no key twice, ``_``
read as ``-``) and parses again with each as ``--key=value`` right after
the subcommand name, so the parser checks them like flags and explicit
flags, coming later, win.  So argparse refuses a bad explicit flag
before the file is opened, and a ``--config`` before the subcommand name
is refused by name without opening anything.
Every file the CLI reads goes through one reader, ``_read(flag, path,
parse)``: ``_ints`` parses ``--input`` and ``--perm``,
``CacheConfig.from_text`` ``--cache-config`` and ``_config_tokens``
``--config``, both ``key=value`` formats taking their lines, and their
refusal of a key given twice, from ``cache.key_values``.  A file that
cannot be opened or is not UTF-8, or whose text the parser refuses, is
refused as ``<flag> <path>: <message>``, and so is an output path that
cannot be opened.  An empty path is refused by name too, by each path
flag's rule and, for ``--config``, before the file is read.  ``aborts``'
interrupt-only control ticks, per transaction, the consultations that
``TxnStats`` counts in a melbourne run with no interrupt model.  ``probe``
probes one simulator of the ``--cache-config`` geometry, which sets the
line size it declares in.
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

from .cache import WORD_BYTES, CacheConfig, CacheSim, key_values
from .layout import LayoutInfeasibleError
from .shuffle import (
    MAX_N,
    OverflowRetriesExceededError,
    ShuffleEngine,
    ShuffleParams,
    _check_perm,
    _check_values,
    arena,
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
    _program,
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
) -> BenchCell:
    """One (algorithm, size) measurement with its output checked against
    the oracle.  A declaration rejected for capacity becomes a cell with
    ``capacity_abort`` set instead of numbers.  No interrupt model runs,
    and the library's retry cap is one no bench run reaches."""
    data, perm = make_inputs(n, seed)
    cell = BenchCell(algo=algo, n=n)
    sim = CacheSim(BUBBLE_BENCH_CONFIG if algo == "bubble" else None)
    try:
        out, stats = PROGRAMS[algo](sim, data, perm, seed, pad_factor, None)
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


# -- aborts ------------------------------------------------------------------


def _consultations_per_txn(data, perm, n, pad_factor, seed) -> list[int]:
    """Interrupt consultations of each transaction of one undisturbed
    ``melbourne`` run, in order.  An overflow restarts all three passes,
    of 2 * bc transactions each, so the run that completed is the last
    6 * bc transactions."""
    engine = ShuffleEngine(CacheSim(), ShuffleParams(n, pad_factor, seed))
    engine.melbourne(data, perm)
    return [s.consultations for s in engine.stats[-6 * isqrt(n):]]


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
        "ac2": sum(s.ac2 for s in stats),
        "ac4": sum(s.ac4 for s in stats),
        "attempts": sum(s.attempts for s in stats),
        "flag": flag,
        "consultations": model.consultations if model else 0,
    }


# -- plumbing ----------------------------------------------------------------


def _open(flag: str, path: str, mode: str):
    """``open(path, mode)`` for the file ``flag`` names, refused naming
    the flag and the path if it cannot be opened."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror or exc}") from None


def _read(flag: str, path: str, parse):
    """``parse`` of the text of the file ``flag`` names: the one way the
    CLI reads a file.  A file that cannot be opened or is not UTF-8, or
    whose text ``parse`` refuses, is refused as ``<flag> <path>:
    <message>``."""
    with _open(flag, path, "r") as fh:
        try:
            return parse(fh.read())
        except ValueError as exc:  # a decode error among them
            raise ValueError(f"{flag} {path}: {exc}") from None


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with _open("--out", out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_tokens(text: str) -> list[str]:
    """One ``--key=value`` token per ``key_values`` line of ``text``."""
    tokens = []
    for _, key, value in key_values(text):
        key = key.replace("_", "-")
        if key == "config":
            raise ValueError("a config file cannot set config")
        tokens.append(f"--{key}={value}")
    return tokens


# -- subcommands -------------------------------------------------------------
#
# main has run every flag's rule before a subcommand starts, so these refuse
# only data: input files that do not parse, hold a value or a size the run
# cannot take or do not form a permutation.


def _ints(check):
    """A parser of whitespace-separated integers that puts them through
    ``check(values, len(values))``, one of the library's own input
    checks."""
    def parse(text: str) -> list[int]:
        values = [int(tok) for tok in text.split()]  # int's message quotes the token
        check(values, len(values))
        return values
    return parse


def cmd_shuffle(args) -> int:
    """Run one shuffle."""
    if args.input:
        data = _read("--input", args.input, _ints(_check_values))
        perm = _read("--perm", args.perm, _ints(_check_perm))
        if len(perm) != len(data):
            raise ValueError(f"--perm {args.perm} holds {len(perm)} values, "
                             f"but --input {args.input} holds {len(data)}")
        _size_rules(args, "--input size", [len(data)])
    else:
        data, perm = make_inputs(args.n, args.seed)

    trace, out = capture_trace(args.algo, data, perm, seed=args.seed,
                               pad_factor=args.pad_factor, config=args.cache_config)
    if out != oracle_apply_perm(data, perm):
        raise RuntimeError("output does not match the reference")
    # the trace first, so a trace path that cannot be written prints nothing
    if args.trace:
        with _open("--trace", args.trace, "w") as fh:
            fh.write(trace.export_csv())
    _emit([str(v) for v in out], args.out)
    return 0


def cmd_bench(args) -> int:
    """Event-count comparison table."""
    rows = ["algo,n,events,txns,aborts,cost"]
    for algo in sorted(args.algos):
        for n in sorted(args.n_list):
            if algo == "bubble" and n > args.bubble_max:
                continue
            cell = run_bench_cell(algo, n, seed=args.seed,
                                  pad_factor=args.pad_factor)
            rows.append(f"{algo},{n},{cell.events},{cell.txns},"
                        f"{cell.aborts},{_fmt_num(cell.cost(args.lam))}")
    _emit(rows, args.out)
    return 0


def cmd_aborts(args) -> int:
    """Abort-cause breakdown table."""
    rows = ["variant,n,ac2,ac4,attempts,flag"]
    for variant in sorted(ABORT_VARIANTS):
        for n in sorted(args.n_list):
            r = run_aborts_variant(variant, n, seed=args.seed, rate=args.rate,
                                   pad_factor=args.pad_factor,
                                   retry_cap=args.retry_cap)
            rows.append(f"{variant},{n},{r['ac2']},{r['ac4']},"
                        f"{r['attempts']},{r['flag']}")
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
    l1, llc = probe_cache_sizes(CacheSim(args.cache_config))
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
    outside 1..``MAX_N``, before any input of that size is built."""
    if n * WORD_BYTES > space:
        raise ValueError(f"{what} must fit the {space}-byte address space "
                         f"at {WORD_BYTES} bytes a word, got {n}")
    if not 0 < n <= MAX_N:
        raise ValueError(f"{what} must be at least 1 and at most {MAX_N}, "
                         f"got {n}")


def _algo_name(tok: str) -> str:
    _program(tok)
    return tok


def _geometry(flag: str, path: str | None) -> CacheConfig:
    """The geometry of the file ``flag`` names, or the default one."""
    if path is None:
        return CacheConfig()
    return _read(flag, _PATH(flag, path), CacheConfig.from_text)


_AT_LEAST_1 = _rule(lambda v: v >= 1, "{flag} must be at least 1, got {v}")
_AT_LEAST_2 = _rule(lambda v: v >= 2, "{flag} must be at least 2")
_WEIGHT = _rule(lambda v: isfinite(v) and v >= 0,
                "{flag} must be finite and at least 0, got {v}")
_RATE = _rule(lambda v: 0 <= v <= 1, "{flag} must be in [0, 1], got {v}")
_PATH = _rule(lambda v: v != "", "{flag} must name a file, got an empty path")

# every flag once: its argparse keywords and its rule (None: any value)
_FLAGS = {
    "--config": (dict(action="append", help="key=value file of flag defaults"),
                 None),
    "--cache-config": (dict(help="key=value cache geometry file"), _geometry),
    "--seed": (dict(type=int, default=0), None),
    "--pad-factor": (dict(type=int, default=2), _AT_LEAST_1),
    "--retry-cap": (dict(type=int, default=1024), _AT_LEAST_1),
    "--algo": (dict(default="melbourne", choices=sorted(PROGRAMS)), None),
    "--program": (dict(default="melbourne", choices=sorted(PROGRAMS)), None),
    "--n": (dict(type=int), _AT_LEAST_1),
    "--input": (dict(help="file of whitespace-separated values"), _PATH),
    "--perm": (dict(help="file of whitespace-separated destinations"), _PATH),
    "--out": (dict(help="output file (default stdout)"), _PATH),
    "--trace": (dict(help="write the captured event trace here"), _PATH),
    "--algos": (dict(default="melbourne,naive,bubble"),
                _listing("algorithm", _algo_name)),
    "--n-list": (dict(help="comma-separated sizes"), _listing("size", int)),
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
              "--seed --pad-factor --algos --n-list --lam --bubble-max --out"),
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
    if getattr(args, "n_list", None):
        _size_rules(args, "--n-list", args.n_list)
    elif getattr(args, "n", None) is not None:
        _size_rules(args, "--n", [args.n])


def _size_rules(args, flag: str, sizes) -> None:
    """Refuse a size of ``sizes``, given by ``flag``, that the run cannot
    take, before any input of that size is built: past ``_fit``'s
    bounds, not a perfect square where melbourne runs, or with an arena
    of some program the command runs that does not fit the address
    space."""
    geometry = getattr(args, "cache_config", None) or CacheConfig()
    space = geometry.address_space  # bench and aborts run on the default
    if args.command == "aborts":
        programs = ["melbourne"]
    elif args.command == "bench":
        programs = args.algos
    else:  # shuffle's --algo or verify's --program
        programs = [getattr(args, "algo", None) or args.program]
    melbourne = "melbourne" in programs
    for n in sizes:
        _fit(flag, n, space)  # first: isqrt refuses a negative n unnamed
        if melbourne and isqrt(n) ** 2 != n:  # sqrt(n)-wide buckets
            raise ValueError(f"{flag} must be a perfect square for melbourne, "
                             f"got {n}")
    line = geometry.line_size
    for n in sizes:
        for program in programs:
            # the arena with no stagger pad is the least a program can run
            # in; the size is at fault if even --pad-factor 1 does not fit it
            for pf in (1, args.pad_factor):
                if (need := arena(program, n, line, pf)[-1]) > space:
                    what = f"{flag} {n}" if pf == 1 else f"--pad-factor {pf}"
                    pads = f", --pad-factor {pf}" if program == "melbourne" else ""
                    raise ValueError(
                        f"{what} needs a {need}-byte {program} arena at n = {n}"
                        f"{pads}, more than the {space}-byte address space")


# -- parser ------------------------------------------------------------------


def _add_flags(parser: argparse.ArgumentParser, name: str):
    """Give ``parser`` subcommand ``name``'s flags: ``--config``, then its
    ``_COMMANDS`` flags, each with its ``_FLAGS`` keywords and the
    subcommand's own default where it sets one."""
    _, defaults, flags = _COMMANDS[name]
    for flag in ["--config"] + flags.split():
        kwargs = _FLAGS[flag][0]
        if flag in defaults:
            kwargs = dict(kwargs, default=defaults[flag])
        parser.add_argument(flag, **kwargs)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser alone, the same as ``build_parser``'s
    subparser of that name."""
    # no abbreviations: a config key must name its flag exactly
    return _add_flags(argparse.ArgumentParser(prog=f"oblishuffle {name}",
                                              allow_abbrev=False), name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblishuffle",
        description="cache-miss-oblivious shuffling on a simulated hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, _, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=handler.__doc__,
                                  allow_abbrev=False), name)
    return parser


def _parse(argv: list[str]):
    """``parse_known_args`` of ``argv`` by the named subcommand's parser
    alone; any other ``argv`` goes to the full parser, for its own help
    and refusals."""
    if argv and argv[0] in _COMMANDS:
        return _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    return build_parser().parse_known_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--"] and argv[1:2] and argv[1] in _COMMANDS:
        # it ends the options before the subcommand, which argparse would
        # take for the subcommand's name
        del argv[0]
    name = argv[0] if argv and argv[0] in _COMMANDS else "oblishuffle"
    try:
        if argv and argv[0].partition("=")[0] == "--config":
            raise ValueError("--config must follow the subcommand name")
        args, unknown = _parse(argv)
        # only the named subcommand's parser, with nothing it does not
        # know, has read a --config
        if not unknown and args.config:
            if len(args.config) > 1:
                raise ValueError("--config given more than once")
            tokens = _read("--config", _PATH("--config", args.config[0]),
                           _config_tokens)
            # explicit flags, coming later, win
            args, unknown = _parse([name, *tokens, *argv[1:]])
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

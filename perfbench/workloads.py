"""The three benchmark workloads.

An op is the timed unit.  Every op starts from a fresh simulator, as the
capture protocol requires, drives the package through its public
functions and checks its own output.  The harness adds one check to
every op: its trace digest must equal that of the run's first op (the
untimed warm-up).  Inputs derive from the workload seed and the op index
and are made before the op's clock starts; the program receives only
those inputs.

The package is reached through module attributes at call time
(``verify.capture_trace``, not a name imported once), so the wrappers a
traced run installs see every call.  README.md says why each workload
was chosen.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from oblishuffle import cache, cli, layout, shuffle, txn, verify

PAD_FACTOR = 2
INTERRUPT_RATE = 0.001
# The interrupt draws are fixed rather than taken from the workload seed,
# so that sim_events and sim_attempts repeat exactly across seeds; the
# seed varies the data, the permutation and the shuffle's own randomness.
INTERRUPT_SEED = 1


def _data_and_perm(n: int, seed: int, op: int) -> tuple[list[int], list[int]]:
    rng = np.random.default_rng([seed, op])
    return rng.integers(0, 1 << 32, n).tolist(), rng.permutation(n).tolist()


class ShuffleWorkload:
    """``melbourne`` at n = 4096 on the default 32 KiB / 8 MiB geometry."""

    name = "shuffle-4096"

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.n = 64 if tiny else 4096

    def inputs(self, op: int):
        return _data_and_perm(self.n, self.seed, op)

    def construct(self):
        """The op's first simulator and engine; ``setup_s`` times this."""
        params = shuffle.ShuffleParams(self.n, PAD_FACTOR, self.seed)
        return shuffle.ShuffleEngine(cache.CacheSim(), params)

    def op(self, inputs) -> tuple[list[str], dict[str, int]]:
        data, perm = inputs
        engine = self.construct()
        out = engine.melbourne(data, perm)
        engine.sim.flush_all()
        if out != verify.oracle_apply_perm(data, perm):
            return ["output differs from the oracle"], {}
        return [], {}


class VerifyWorkload:
    """One ``capture_trace`` trial at n = 1024 with a 64 KiB LLC and
    per-access interrupts, audited against the first trial, the oracle
    and the layout auditor."""

    name = "verify-tight"

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.n = 64 if tiny else 1024
        self.config = cache.CacheConfig(llc_sets=64)
        self.first_trace = None

    def inputs(self, op: int):
        return _data_and_perm(self.n, self.seed, op)

    def construct(self):
        params = shuffle.ShuffleParams(self.n, PAD_FACTOR, self.seed)
        return shuffle.ShuffleEngine(
            cache.CacheSim(self.config),
            params,
            interrupt_model=txn.AccessProbability(INTERRUPT_RATE, INTERRUPT_SEED),
            record_plans=True,
        )

    def op(self, inputs) -> tuple[list[str], dict[str, int]]:
        data, perm = inputs
        engines = []

        def runner(sim, data, perm, seed, pad_factor, interrupt_model):
            engine = shuffle.ShuffleEngine(
                sim,
                shuffle.ShuffleParams(len(data), pad_factor, seed),
                interrupt_model=interrupt_model,
                record_plans=True,
            )
            engines.append(engine)
            return engine.melbourne(data, perm)

        trace, out = verify.capture_trace(
            runner,
            data,
            perm,
            seed=self.seed,
            pad_factor=PAD_FACTOR,
            config=self.config,
            interrupt_model=txn.AccessProbability(INTERRUPT_RATE, INTERRUPT_SEED),
        )
        failures = []
        if self.first_trace is None:
            self.first_trace = trace
        elif verify.first_divergence(self.first_trace, trace) is not None:
            failures.append("trace diverges from the first trial")
        if out != verify.oracle_apply_perm(data, perm):
            failures.append("output differs from the oracle")
        invalid = sum(
            not layout.check_conflicts(plan, self.config).valid
            for plan in engines[0].plans
        )
        if invalid:
            failures.append(f"{invalid} layout plans fail the audit")
        return failures, {"plans_invalid": invalid}


class ProbeWorkload:
    """``oblishuffle probe`` through ``cli.main``, stdout captured."""

    name = "probe-cli"

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.argv = ["probe"]
        self.config = cache.CacheConfig()
        if tiny:
            self.config = cache.CacheConfig(
                l1_sets=4, l1_ways=2, llc_sets=16, llc_ways=4
            )
            path = out_dir / "tiny-cache.cfg"
            path.write_text(
                "l1_sets=4\nl1_ways=2\nllc_sets=16\nllc_ways=4\n", encoding="utf-8"
            )
            self.argv += ["--cache-config", str(path)]
        self.expected = f"{self.config.l1_capacity} {self.config.llc_capacity}\n"

    def inputs(self, op: int):
        return None

    def construct(self):
        return cache.CacheSim(self.config)

    def op(self, inputs) -> tuple[list[str], dict[str, int]]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(self.argv))
        failures = []
        if code != 0:
            failures.append(f"probe exited with {code}")
        if buf.getvalue() != self.expected:
            failures.append(f"probe printed {buf.getvalue()!r}")
        return failures, {}


WORKLOADS = {w.name: w for w in (ShuffleWorkload, VerifyWorkload, ProbeWorkload)}

"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload shuffle-4096 --seed 1 --seconds 36 --trace 0

The package is imported from ``src/`` of the same checkout.  A run makes
one untimed warm-up op, then times ops for ``--seconds`` of wall time.
With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it times untraced ops for the first third and traced ops for the rest,
and reports the per-layer metrics; every traced op must match the
untraced warm-up in trace events, transaction attempts and trace digest,
or the run fails.  Each run prints its run record as a JSON line, writes
it (and in a traced run the spans) under ``perfbench/out/``, and prints
the result as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when the result is correct, 1 when it is not, and 2
when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from refkernel import NOMINAL_MS, reference_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5


@dataclass
class OpResult:
    op: int
    ms: float
    failures: list[str]
    counts: Counter
    ledger: object = field(repr=False)
    ref_ms: float = 0.0  # reference kernel time around the op


def run_op(workload, ins, op: int, reference=None) -> OpResult:
    """Make the op's inputs, then time the op; the ledger's own work is
    subtracted.  An op whose simulated behaviour differs from
    ``reference`` (the warm-up's ledger) fails."""
    inputs = workload.inputs(op)
    gc.collect()
    ins.begin_op(op)
    t0 = time.perf_counter_ns()
    try:
        failures, counts = ins.call(workload.op, inputs)
    except Exception as exc:  # any exception escaping the op fails that op
        failures, counts = [f"{type(exc).__name__}: {exc}"], {}
    t1 = time.perf_counter_ns()
    ledger = ins.end_op()
    if reference is not None and ledger.behaviour() != reference.behaviour():
        failures.append(
            "simulated behaviour differs from the first op: "
            f"{ledger.behaviour()} != {reference.behaviour()}"
        )
    ms = (t1 - t0 - ledger.harness_ns) / 1e6
    return OpResult(op, ms, failures, Counter(counts), ledger)


def measure(workload, ins, seconds: float, first_op: int, reference) -> list[OpResult]:
    """Run ops for ``seconds`` of wall time, at least one, with the
    reference kernel timed before the first op and after each op."""
    results: list[OpResult] = []
    start = time.perf_counter()
    before = reference_ms()
    while not results or time.perf_counter() - start < seconds:
        result = run_op(workload, ins, first_op + len(results), reference)
        after = reference_ms()
        result.ref_ms = (before + after) / 2
        before = after
        results.append(result)
    return results


def relative(results: list[OpResult]) -> list[float]:
    """Op times in units of the reference kernel timed around each op."""
    return [r.ms / r.ref_ms for r in results]


def measure_setup(args) -> list[tuple[float, float]]:
    """Set-up samples (seconds, reference kernel ms), each from a fresh
    interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=True
        )
        seconds, ref_ms = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(ref_ms)))
    return samples


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(untraced: list[OpResult], failed: int, setup) -> dict:
    setup_s = statistics.median(s / ref_ms for s, ref_ms in setup) * NOMINAL_MS
    return {
        "ops_per_ref": (
            sum(r.ref_ms for r in untraced) / sum(r.ms for r in untraced), "1/ref"
        ),
        "op_ref_p50": (statistics.median(relative(untraced)), "ref"),
        "sim_events": (statistics.median(r.ledger.events for r in untraced), "count"),
        "sim_attempts": (statistics.median(r.ledger.attempts for r in untraced), "count"),
        "pass_ratio": ((len(untraced) - failed) / len(untraced), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs for the self-test; never reported as metrics",
    )
    args = parser.parse_args(argv)
    if not (SRC / "oblishuffle" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from tracing import Instruments, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, OUT)
    untraced_seconds = args.seconds / 3 if args.trace else args.seconds

    with Instruments(traced=False) as ins:
        warm = run_op(workload, ins, 0)
        reference = warm.ledger
        untraced = measure(workload, ins, untraced_seconds, 1, reference)
    traced: list[OpResult] = []
    if args.trace:
        with Instruments(traced=True) as tins:
            traced_seconds = args.seconds - untraced_seconds
            traced = measure(
                workload, tins, traced_seconds, 1 + len(untraced), reference
            )
        tins.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    ops = untraced + traced
    failed = sum(bool(r.failures) for r in ops)
    correct = failed == 0 and not warm.failures
    samples = {
        "setup": len(setup),
        "warmup_ops": 1,
        "untraced_ops": len(untraced),
        "traced_ops": len(traced),
    }
    if args.trace:
        metrics, layer_samples = layer_metrics(
            tins.spans,
            {r.op: r.ledger for r in traced},
            {r.op: r.counts for r in traced},
        )
        samples.update(layer_samples)
        overhead = statistics.median(relative(traced)) / statistics.median(
            relative(untraced)
        )
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
    else:
        metrics = end_to_end(untraced, failed, setup)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "samples": samples,
        "trace_digest": reference.digest,
        "sim_events": reference.events,
        "sim_attempts": reference.attempts,
        "op_ms": {
            "untraced": [r.ms for r in untraced],
            "traced": [r.ms for r in traced],
        },
        "ref_ms": {
            "untraced": [r.ref_ms for r in untraced],
            "traced": [r.ref_ms for r in traced],
        },
        "wall": {
            "ops_per_s": len(untraced) / (sum(r.ms for r in untraced) / 1e3),
            "op_ms_p50": statistics.median(r.ms for r in untraced),
        },
        "setup_samples": setup,
        "failures": [
            {"op": r.op, "why": r.failures} for r in [warm] + ops if r.failures
        ],
    }
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

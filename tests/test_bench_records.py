"""Committed benchmark records.

A change that claims a speed-up commits two ``BENCH_<label>-parent.json``
and ``BENCH_<label>-change.json`` files at the repository root, each
holding the perfbench run records (``perfbench/run.py --trace 0``) of one
side of the comparison.  A speed-up must not move what the simulation
computes, so for every workload both sides, and every run on each side,
must agree on the trace digest, the trace events per op and the
transaction attempts per op.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SIMULATED = ("trace_digest", "sim_events", "sim_attempts")


PAIRS = [
    (p, p.with_name(p.name.replace("-parent.json", "-change.json")))
    for p in sorted(ROOT.glob("BENCH_*-parent.json"))
]


def simulated_by_workload(path):
    """{workload: (digest, events, attempts)} over the file's runs; every
    run of one workload must agree."""
    seen = {}
    for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        record = run["record"]
        assert run["result"]["correct"], (path.name, record["seed"])
        value = tuple(record[key] for key in SIMULATED)
        assert seen.setdefault(record["workload"], value) == value, (
            path.name, record["workload"], record["seed"])
    return seen


def test_every_bench_record_has_its_pair():
    names = {p.name for p in ROOT.glob("BENCH_*.json")}
    assert names, "no committed BENCH_*.json records"
    for parent, change in PAIRS:
        names -= {parent.name, change.name}
    assert not names, f"records without a pair: {sorted(names)}"


@pytest.mark.parametrize(
    "parent,change", PAIRS,
    ids=[p.name.removesuffix("-parent.json") for p, _ in PAIRS],
)
def test_bench_pair_sides_compute_the_same(parent, change):
    before = simulated_by_workload(parent)
    after = simulated_by_workload(change)
    assert before
    assert before == after

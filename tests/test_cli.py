"""Command-line interface: table formats, exit codes, config files."""

import argparse
import re
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oblishuffle import cli
from oblishuffle.cache import MAX_ADDRESS_SPACE, MAX_SETS, CacheConfig
from oblishuffle.cli import (
    ABORT_VARIANTS,
    _COMMANDS,
    BenchCell,
    _consultations_per_txn,
    _joint_rules,
    build_parser,
    main,
    make_inputs,
    run_aborts_variant,
)
from oblishuffle.shuffle import MAX_N, VALUE_MASK, ShuffleParams, gen_perm
from oblishuffle.verify import oracle_apply_perm


TOY_GEOMETRY = "line_size=64\nl1_sets=4\nl1_ways=4\nllc_sets=8\nllc_ways=8\n"

# full table for --n-list 16, default seed and cost weight
BENCH_16 = [
    "algo,n,events,txns,aborts,cost",
    "bubble,16,727,0,0,727",
    "melbourne,16,88,24,0,1288",
    "naive,16,8,1,0,58",
]

ABORTS_16 = [
    "variant,n,ac2,ac4,attempts,flag",
    "interrupt-only,16,0,9,33,ok",
    "melbourne,16,0,9,33,ok",
    "no-prefetch,16,0,9,33,ok",
]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- probe ---------------------------------------------------------------


def test_probe_recovers_default_capacities(capsys):
    rc, out, _ = run_cli(capsys, "probe")
    assert rc == 0
    assert out == "32768 8388608\n"


def test_probe_reads_cache_geometry_file(capsys, tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_GEOMETRY)
    rc, out, _ = run_cli(capsys, "probe", "--cache-config", str(cfg))
    assert rc == 0
    assert out == "1024 4096\n"  # 64*4*4 and 64*8*8


@pytest.mark.parametrize("geometry, want", [
    # 64 KiB lines: a 2 GiB L1 and a 4 GiB LLC
    ("line_size=65536\nl1_sets=64\nl1_ways=512\nllc_sets=64\n"
     "llc_ways=1024\naddress_space=8589934592\n", "2147483648 4294967296\n"),
    # the default L1 below a 2 GiB LLC
    ("llc_sets=1048576\nllc_ways=32\naddress_space=4294967296\n",
     "32768 2147483648\n"),
])
def test_probe_is_exact_past_1_gib(capsys, tmp_path, geometry, want):
    # the doubling stops at the capacity check's first refusal, however
    # large the capacity
    cfg = tmp_path / "big.cfg"
    cfg.write_text(geometry)
    rc, out, err = run_cli(capsys, "probe", "--cache-config", str(cfg))
    assert (rc, out, err) == (0, want, "")


def test_probe_refuses_an_address_space_smaller_than_the_llc(capsys, tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("address_space=1048576\n")  # 1 MiB below an 8 MiB LLC
    rc, out, err = run_cli(capsys, "probe", "--cache-config", str(cfg))
    assert (rc, out) == (2, "")
    assert "1048576" in err and "8388608" in err
    # an address space exactly the LLC's size is enough
    cfg.write_text("address_space=8388608\n")
    rc, out, _ = run_cli(capsys, "probe", "--cache-config", str(cfg))
    assert (rc, out) == (0, "32768 8388608\n")


# -- shuffle -------------------------------------------------------------


def test_shuffle_generated_inputs_print_permuted_values(capsys):
    rc, out, _ = run_cli(capsys, "shuffle", "--n", "16")
    assert rc == 0
    data, perm = make_inputs(16, 0)
    assert out.split() == [str(v) for v in oracle_apply_perm(data, perm)]


def test_shuffle_reads_files_writes_out_and_trace(capsys, tmp_path):
    src = tmp_path / "data.txt"
    src.write_text("5 6 7 8\n")
    pfile = tmp_path / "perm.txt"
    pfile.write_text("2 0 3 1\n")
    dst = tmp_path / "out.txt"
    tr = tmp_path / "trace.csv"
    rc, out, _ = run_cli(
        capsys,
        "shuffle", "--input", str(src), "--perm", str(pfile),
        "--out", str(dst), "--trace", str(tr),
    )
    assert rc == 0
    assert out == ""
    assert dst.read_text().split() == ["6", "8", "5", "7"]
    trace_lines = tr.read_text().splitlines()
    assert trace_lines[0] == "sequence,kind,line_address"
    assert len(trace_lines) > 1


def test_shuffle_input_without_perm_is_usage_error(capsys, tmp_path):
    src = tmp_path / "data.txt"
    src.write_text("1 2 3 4\n")
    rc, _, err = run_cli(capsys, "shuffle", "--input", str(src))
    assert rc == 2
    assert "--perm" in err


def test_shuffle_without_any_input_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "shuffle")
    assert rc == 2
    assert "--n" in err


@pytest.mark.parametrize(
    "extra, flag",
    [
        (("--input", "data.txt", "--perm", "perm.txt", "--n", "16"), "--n"),
        (("--n", "4", "--perm", "perm.txt"), "--perm"),
    ],
)
def test_shuffle_takes_one_input_source(capsys, tmp_path, extra, flag):
    # --n draws both the values and the permutation; --input/--perm read them
    (tmp_path / "data.txt").write_text("5 6 7 8\n")
    (tmp_path / "perm.txt").write_text("2 0 3 1\n")
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in extra]
    rc, out, err = run_cli(capsys, "shuffle", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"shuffle: {flag} ")


SQUARE_4096 = " ".join(map(str, range(4096)))


@pytest.mark.parametrize("data, perm, extra, want", [
    ("5 x 7 8", "2 0 3 1", (),
     "--input {data}: invalid literal for int() with base 10: 'x'"),
    ("5 6 7 8", "2 0 3 1.5", (),
     "--perm {perm}: invalid literal for int() with base 10: '1.5'"),
    ("5 6 7", "2 0 1", (),
     "--input size must be a perfect square for melbourne, got 3"),
    ("5 6 7 8", "2 0 1", ("--algo", "naive"),
     "--perm {perm} holds 3 values, but --input {data} holds 4"),
    ("", "", ("--algo", "naive"),
     "--input size must be at least 1 and at most 1048576, got 0"),
    # 4096 words fit a 2^19-byte address space, melbourne's arena does not
    (SQUARE_4096, SQUARE_4096, ("--cache-config", "small.cfg"),
     "--input size 4096 needs a 589824-byte melbourne arena at n = 4096, "
     "--pad-factor 1, more than the 524288-byte address space"),
    # the library's value and permutation checks, named by their flag
    ("5 6 7 4294967296", "2 0 3 1", (),
     "--input {data}: value 4294967296 does not fit in 32 bits"),
    ("5 -6 7 8", "2 0 3 1", ("--algo", "naive"),
     "--input {data}: value -6 does not fit in 32 bits"),
    ("5 6 7 8", "0 0 1 2", (),
     "--perm {perm}: perm repeats value 0"),
    ("5 6 7 8", "2 0 4 1", ("--algo", "bubble"),
     "--perm {perm}: perm value 4 out of range"),
])
def test_shuffle_input_refusals_name_the_flag(capsys, tmp_path, data, perm,
                                              extra, want):
    files = {"data": tmp_path / "data.txt", "perm": tmp_path / "perm.txt"}
    files["data"].write_text(data)
    files["perm"].write_text(perm)
    (tmp_path / "small.cfg").write_text("address_space=524288\n")
    extra = [str(tmp_path / a) if a.endswith(".cfg") else a for a in extra]
    rc, out, err = run_cli(capsys, "shuffle", "--input", str(files["data"]),
                           "--perm", str(files["perm"]), *extra)
    assert (rc, out) == (2, "")
    assert err == f"shuffle: {want.format(**files)}\n"


# (geometry, n): n words fit the address space, and neither baseline's
# arena does: naive's three n-word arrays, bubble's four
BASELINE_CASES = [
    ("address_space=65536\n", 4096),
    ("line_size=8\nl1_sets=1\nl1_ways=1\nllc_sets=1\nllc_ways=1\n"
     "address_space=64\n", 4),
]


@pytest.mark.parametrize("geometry, n", BASELINE_CASES)
@pytest.mark.parametrize("program, arrays", [("naive", 3), ("bubble", 4)])
@pytest.mark.parametrize("argv, flag", [
    (("shuffle", "--n", "{n}", "--algo"), "--n"),
    (("shuffle", "--input", "{data}", "--perm", "{data}", "--algo"),
     "--input size"),
    (("verify", "--n", "{n}", "--program"), "--n"),
])
def test_baseline_arena_past_the_address_space_names_the_size(
        capsys, tmp_path, geometry, n, program, arrays, argv, flag):
    # refused before any input is built, or any run starts
    cfg, data = tmp_path / "geometry.cfg", tmp_path / "data.txt"
    cfg.write_text(geometry)
    data.write_text(" ".join(map(str, range(n))))
    argv = [a.format(n=n, data=data) for a in argv]
    rc, out, err = run_cli(capsys, *argv, program, "--cache-config", str(cfg))
    assert (rc, out) == (2, "")
    space = CacheConfig.from_text(geometry).address_space
    assert err == (f"{argv[0]}: {flag} {n} needs a {arrays * n * 8}-byte "
                   f"{program} arena at n = {n}, more than the {space}-byte "
                   f"address space\n")


@pytest.mark.parametrize("program, fits, refused", [
    ("naive", 2728, [("--n 2729", 2729, 65664, "")]),
    ("bubble", 2048, [("--n 2049", 2049, 65792, "")]),
    # melbourne's next square fits only at --pad-factor 1, and 529 not even
    # then; its message adds the pad factor it sized the arena at
    ("melbourne", 324, [("--pad-factor 2", 361, 69952, ", --pad-factor 2"),
                        ("--n 529", 529, 68416, ", --pad-factor 1")]),
], ids=["naive-2728", "bubble-2048", "melbourne-324"])
def test_baseline_arena_rule_is_exact(program, fits, refused):
    # the largest n whose arena, its arrays in whole 64-byte lines, fits
    # 2^16 bytes at --pad-factor 2, and the least past it
    args = argparse.Namespace(command="verify", program=program, n=fits,
                              pad_factor=2,
                              cache_config=CacheConfig(address_space=1 << 16))
    _joint_rules(args)
    for what, n, need, pads in refused:
        args.n = n
        with pytest.raises(ValueError, match=(
                f"^{what} needs a {need}-byte {program} arena at n = {n}"
                f"{pads}, more than the 65536-byte address space$")):
            _joint_rules(args)


def test_shuffle_writes_the_trace_before_printing(capsys, tmp_path):
    # a trace path that cannot be written leaves stdout empty
    bad = tmp_path / "missing" / "trace.csv"
    rc, out, err = run_cli(capsys, "shuffle", "--n", "4", "--trace", str(bad))
    assert (rc, out) == (2, "")
    assert str(bad) in err


def test_shuffle_non_square_size_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "shuffle", "--n", "10")
    assert rc == 2
    assert "perfect square" in err


def test_shuffle_naive_takes_a_non_square_size(capsys):
    # only melbourne's buckets need a perfect square
    rc, out, _ = run_cli(capsys, "shuffle", "--algo", "naive", "--n", "15")
    assert rc == 0
    assert len(out.split()) == 15


def test_shuffle_naive_reports_capacity_abort(capsys):
    # the one-transaction baseline cannot declare 16384-element arrays
    rc, _, err = run_cli(capsys, "shuffle", "--algo", "naive", "--n", "16384")
    assert rc == 1
    assert "shuffle:" in err


# -- bench ---------------------------------------------------------------


def test_bench_small_table_is_frozen(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--n-list", "16")
    assert rc == 0
    assert out.splitlines() == BENCH_16


def test_bench_naive_capacity_wall_row(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--algos", "naive",
                         "--n-list", "16384")
    assert rc == 0
    assert out.splitlines()[1] == "naive,16384,0,1,1,AC3"


def test_bench_output_is_reproducible(capsys):
    argv = ("bench", "--algos", "melbourne,naive", "--n-list", "16,64")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_bench_writes_out_file(capsys, tmp_path):
    dst = tmp_path / "table.csv"
    rc, out, _ = run_cli(capsys, "bench", "--n-list", "16",
                         "--out", str(dst))
    assert rc == 0
    assert out == ""
    assert dst.read_text().splitlines() == BENCH_16


def test_bench_unknown_algorithm_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "bench", "--algos", "quicksort")
    assert rc == 2
    assert "quicksort" in err


def test_bench_bad_n_list_token_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "bench", "--n-list", "16,x")
    assert rc == 2
    assert "n-list" in err


def test_bench_non_square_n_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "bench", "--n-list", "12")
    assert rc == 2
    assert "perfect square" in err


def test_bench_without_melbourne_takes_a_non_square_size(capsys):
    # only melbourne's buckets need a perfect square
    rc, out, _ = run_cli(capsys, "bench", "--algos", "naive,bubble",
                         "--n-list", "10")
    assert rc == 0
    assert out == ("algo,n,events,txns,aborts,cost\n"
                   "bubble,10,304,0,0,304\nnaive,10,8,1,0,58\n")


@pytest.mark.parametrize("size", ["0", "-16"])
def test_bench_without_melbourne_refuses_a_size_below_1_by_name(capsys, size):
    rc, out, err = run_cli(capsys, "bench", "--algos", "naive",
                           f"--n-list={size}")
    assert (rc, out) == (2, "")
    assert err == (f"bench: --n-list must be at least 1 and at most {MAX_N}, "
                   f"got {size}\n")


def test_bench_prints_the_rows_before_the_l1_wall_and_ac3_past_it(capsys):
    # 129^2 is refused at its first scatter, like every larger square
    rc, out, _ = run_cli(capsys, "bench", "--algos", "melbourne",
                         "--n-list", "16,16641")
    assert rc == 0
    assert out.splitlines() == ["algo,n,events,txns,aborts,cost",
                                "melbourne,16,88,24,0,1288",
                                "melbourne,16641,0,1,1,AC3"]


def test_bench_and_aborts_hand_each_flag_to_every_run(capsys, monkeypatch):
    calls = []

    def bench_cell(algo, n, **flags):
        calls.append(("bench", algo, n, flags))
        return BenchCell(algo, n, events=1, attempts=2)

    def aborts_variant(variant, n, **flags):
        calls.append(("aborts", variant, n, flags))
        return {"ac2": 3, "ac4": 4, "attempts": 5, "flag": "ok"}

    monkeypatch.setattr(cli, "run_bench_cell", bench_cell)
    monkeypatch.setattr(cli, "run_aborts_variant", aborts_variant)
    rc, out, _ = run_cli(capsys, "bench", "--n-list", "16,64", "--seed", "5",
                         "--pad-factor", "3", "--lam", "0.5", "--bubble-max", "16")
    assert rc == 0
    assert out.splitlines() == ["algo,n,events,txns,aborts,cost",
                                "bubble,16,1,0,0,2", "melbourne,16,1,0,0,2",
                                "melbourne,64,1,0,0,2", "naive,16,1,0,0,2",
                                "naive,64,1,0,0,2"]
    assert [c[1:3] for c in calls] == [("bubble", 16), ("melbourne", 16),
                                       ("melbourne", 64), ("naive", 16),
                                       ("naive", 64)]
    assert all(c[3] == {"seed": 5, "pad_factor": 3} for c in calls)
    calls.clear()
    rc, out, _ = run_cli(capsys, "aborts", "--n-list", "16", "--seed", "5",
                         "--pad-factor", "3", "--rate", "0.25", "--retry-cap", "9")
    assert rc == 0
    assert out.splitlines()[1:] == [f"{v},16,3,4,5,ok" for v in sorted(ABORT_VARIANTS)]
    assert [c[1] for c in calls] == sorted(ABORT_VARIANTS)
    assert all(c[3] == {"seed": 5, "rate": 0.25, "pad_factor": 3, "retry_cap": 9}
               for c in calls)
    monkeypatch.undo()
    # and each flag moves the real rows
    for argv, rows in [
        (("--lam", "0"), ["melbourne,16,88,24,0,88", "naive,16,8,1,0,8"]),
        (("--pad-factor", "1"), ["melbourne,16,80,24,0,1280", "naive,16,8,1,0,58"]),
    ]:
        rc, out, _ = run_cli(capsys, "bench", "--algos", "melbourne,naive",
                             "--n-list", "16", *argv)
        assert (rc, out.splitlines()[1:]) == (0, rows)
    rc, out, _ = run_cli(capsys, "bench", "--algos", "bubble",
                         "--n-list", "16,64", "--bubble-max", "16")
    assert (rc, out.splitlines()[1:]) == (0, ["bubble,16,727,0,0,727"])
    for argv, cells in [
        ((), "0,147,171,ok"),
        (("--retry-cap", "1"), "0,1,1,retry-cap"),
        (("--pad-factor", "1"), "0,46,70,ok"),
        (("--seed", "4"), "0,113,137,ok"),
    ]:
        rc, out, _ = run_cli(capsys, "aborts", "--n-list", "16", "--rate", "0.05",
                             *argv)
        assert (rc, out.splitlines()[1:]) == (
            0, [f"{v},16,{cells}" for v in sorted(ABORT_VARIANTS)])


# -- aborts --------------------------------------------------------------


def test_aborts_table_is_frozen_and_twins_agree(capsys):
    rc, out, _ = run_cli(capsys, "aborts", "--n-list", "16",
                         "--rate", "0.01")
    assert rc == 0
    lines = out.splitlines()
    assert lines == ABORTS_16
    # same interrupt schedule: the full pipeline and the stripped-down
    # ticker driver must land on identical abort counts
    twin_a = lines[1].split(",")[2:5]
    twin_b = lines[2].split(",")[2:5]
    assert twin_a == twin_b


@pytest.mark.parametrize("n, pad_factor", [(16, 2), (64, 2), (256, 1)])
def test_control_counts_come_from_a_real_shuffle(n, pad_factor):
    # per pass: bc scatters (two bucket reads, a row of slice writes),
    # then bc gathers (a row read, a bucket write)
    p = ShuffleParams(n, pad_factor)
    bc, cap = p.bucket_count, p.bucket_capacity
    data, perm = make_inputs(n, 0)
    counts = _consultations_per_txn(data, perm, n, pad_factor, 0)
    assert counts == ([2 * bc + cap] * bc + [cap + bc] * bc) * 3


def test_control_counts_keep_only_the_completed_restart():
    # the permutation is crafted against the seed's first random draw so
    # that pass 3 of attempt zero overflows a slice (as in test_shuffle)
    n, seed = 49, 5
    p = ShuffleParams(n, pad_factor=1, seed=seed)
    inv = [0] * n
    for k, v in enumerate(gen_perm(n, seed)):
        inv[v] = k
    perm = [None] * n
    for j in range(p.bucket_count):
        perm[inv[j]] = j
    rest = iter(range(p.bucket_count, n))
    perm = [next(rest) if v is None else v for v in perm]
    counts = _consultations_per_txn(list(range(n)), perm, n, 1, seed)
    bc, cap = p.bucket_count, p.bucket_capacity
    assert counts == ([2 * bc + cap] * bc + [cap + bc] * bc) * 3


@pytest.mark.parametrize("n, rate", [(256, 0.002), (1024, 0.001)])
def test_melbourne_attempts_match_the_geometric_mean(n, rate):
    # a prefetched transaction that makes c consultations per attempt
    # commits on an attempt that none of them fires, with probability
    # p = (1 - r)^c, so its attempts are geometric: mean 1/p, variance
    # (1 - p)/p^2.  Summed over every transaction of seeds 0..9, the
    # ``melbourne`` rows must land within 3 sigma of the sum of means.
    attempts, mean, var = 0, 0.0, 0.0
    for seed in range(10):
        row = run_aborts_variant("melbourne", n, seed=seed, rate=rate)
        assert (row["flag"], row["ac2"]) == ("ok", 0)
        attempts += row["attempts"]
        data, perm = make_inputs(n, seed)
        for c in _consultations_per_txn(data, perm, n, 2, seed):
            p = (1 - rate) ** c
            mean += 1 / p
            var += (1 - p) / p ** 2
    assert abs(attempts - mean) <= 3 * var ** 0.5, (attempts, mean, 3 * var ** 0.5)


def test_aborts_reruns_are_identical(capsys):
    argv = ("aborts", "--n-list", "16", "--rate", "0.003", "--seed", "7")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_aborts_non_square_n_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "aborts", "--n-list", "18")
    assert rc == 2
    assert "perfect square" in err


# -- verify --------------------------------------------------------------


def test_verify_melbourne_reports_identical_traces(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--program", "melbourne",
                         "--n", "16", "--trials", "3")
    assert rc == 0
    assert "identical" in out


def test_verify_naive_reports_divergence(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--program", "naive",
                         "--n", "64", "--trials", "3")
    assert rc == 1
    assert "diverge" in out


def test_verify_with_interrupts_accepts_a_negative_seed(capsys):
    # the interrupt model's seed is masked to 64 bits, as in aborts
    rc, out, err = run_cli(capsys, "verify", "--n", "16", "--trials", "2",
                           "--rate", "0.01", "--seed", "-1")
    assert (rc, err) == (0, "")
    assert "identical" in out


def test_verify_single_trial_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "verify", "--trials", "1")
    assert (rc, out) == (2, "")
    assert err == "verify: --trials must be at least 2\n"


# -- config files ----------------------------------------------------------


@pytest.fixture
def verify_cfg(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("n=16\ntrials=3\nprogram=melbourne\n")
    return str(cfg)


def test_config_file_supplies_defaults(capsys, verify_cfg):
    rc, out, _ = run_cli(capsys, "verify", "--config", verify_cfg)
    assert rc == 0
    assert "3 trials" in out


def test_explicit_flags_override_config_file(capsys, verify_cfg):
    rc, out, _ = run_cli(capsys, "verify", "--config", verify_cfg,
                         "--program", "naive", "--n", "64")
    assert rc == 1
    assert "naive" in out


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    rc, _, err = run_cli(capsys, "probe", "--config", str(cfg))
    assert rc == 2
    assert "bogus" in err


def test_config_file_can_zero_cost_weight(capsys, tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("lam=0\nn_list=16\nalgos=melbourne\n")
    rc, out, _ = run_cli(capsys, "bench", "--config", str(cfg))
    assert rc == 0
    assert out.splitlines() == [
        "algo,n,events,txns,aborts,cost",
        "melbourne,16,88,24,0,88",
    ]


def test_config_key_the_subcommand_does_not_take_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("n=16\nlam=0\n")
    rc, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert "lam" in err


def test_config_given_twice_is_rejected(capsys, tmp_path, verify_cfg):
    other = tmp_path / "other.cfg"
    other.write_text("n=64\n")
    for argv in (("--config", verify_cfg, "--config", str(other)),
                 (f"--config={verify_cfg}", "--config", str(other))):
        rc, out, err = run_cli(capsys, "verify", *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("verify: --config ")


@pytest.mark.parametrize("text, key", [
    ("n=16\nn=64\n", "n"),
    # both spellings set --pad-factor
    ("n=16\npad_factor=1\npad-factor=3\n", "pad-factor"),
])
def test_config_key_given_twice_is_rejected(capsys, tmp_path, text, key):
    # as --cache-config refuses it: the last value does not win silently
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(text)
    rc, out, err = run_cli(capsys, "shuffle", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err == f"shuffle: --config {cfg}: duplicate config key: {key}\n"


def test_bench_refuses_a_retry_cap_from_a_config_file(capsys, tmp_path):
    # bench runs no interrupt model and no cap it could reach
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("retry-cap=1\n")
    rc, out, err = run_cli(capsys, "bench", "--algos", "melbourne",
                           "--n-list", "16", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err == "bench: unrecognized arguments: --retry-cap=1\n"


def test_config_file_naming_a_config_is_rejected(capsys, tmp_path, verify_cfg):
    cfg = tmp_path / "outer.cfg"
    cfg.write_text(f"config={verify_cfg}\n")
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err.startswith("verify: --config ")


def test_malformed_config_line_is_quoted_without_its_newline(capsys, tmp_path):
    # the line as the file holds it, after the flag and the path
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n=16\nbogus\n")
    rc, out, err = run_cli(capsys, "shuffle", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err == f"shuffle: --config {cfg}: malformed config line: 'bogus'\n"


def test_config_value_an_explicit_flag_overrides_is_not_checked(capsys, tmp_path):
    # rules run on the final namespace, where --trials 3 replaced trials=1
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("n=16\ntrials=1\n")
    rc, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--trials", "3")
    assert rc == 0
    assert "3 trials" in out


# -- flags and failures ------------------------------------------------------


@pytest.mark.parametrize(
    "command, flag",
    [
        ("probe", "--seed"),
        ("probe", "--pad-factor"),
        ("probe", "--retry-cap"),
        ("bench", "--retry-cap"),
        ("bench", "--cache-config"),
        ("aborts", "--cache-config"),
        ("shuffle", "--retry-cap"),
        ("verify", "--retry-cap"),
    ],
)
def test_flag_the_subcommand_does_not_honour_is_rejected(capsys, command, flag):
    rc, out, err = run_cli(capsys, command, flag, "1")
    assert rc == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "--program", "naive", "--n", "16384"), 1),  # capacity
        (("verify", "--n", "16", "--trials", "2", "--rate", "0.5"), 1),  # retry cap
        # an interrupt rate outside [0, 1] is refused before anything runs
        (("verify", "--n", "16", "--trials", "2", "--rate", "-0.5"), 2),
        (("verify", "--n", "16", "--trials", "2", "--rate", "nan"), 2),
        (("verify", "--n", "16", "--trials", "2", "--rate", "1.5"), 2),
        (("aborts", "--n-list", "16", "--rate", "-0.5"), 2),
        (("aborts", "--n-list", "16", "--rate", "nan"), 2),
        (("aborts", "--n-list", "16", "--rate", "1.5"), 2),
        # so is a size below 1, zero included
        (("verify", "--n", "-4"), 2),
        (("verify", "--n", "0"), 2),
        (("shuffle", "--n", "-4"), 2),
        (("shuffle", "--n", "0"), 2),
        # a cost weight that is not a finite number >= 0
        (("bench", "--algos", "melbourne", "--n-list", "16", "--lam", "nan"), 2),
        (("bench", "--algos", "melbourne", "--n-list", "16", "--lam", "inf"), 2),
        (("bench", "--algos", "melbourne", "--n-list", "16", "--lam", "-1"), 2),
        # a size given twice, or none at all
        (("bench", "--algos", "melbourne", "--n-list", "16,16"), 2),
        (("bench", "--algos", "melbourne", "--n-list", ","), 2),
        (("aborts", "--n-list", "16,16"), 2),
        # an algorithm list that is empty, repeats a name or names none known
        (("bench", "--algos", ",", "--n-list", "16"), 2),
        (("bench", "--algos", "melbourne,melbourne", "--n-list", "16"), 2),
        (("bench", "--algos", "melbourne,quicksort", "--n-list", "16"), 2),
        # a bubble cap or a trial count too small to mean anything
        (("bench", "--algos", "bubble", "--n-list", "16", "--bubble-max", "-5"), 2),
        (("bench", "--algos", "bubble", "--n-list", "16", "--bubble-max", "0"), 2),
        (("verify", "--n", "16", "--trials", "1"), 2),
        (("verify", "--n", "16", "--trials", "0"), 2),
        # a padding factor or a retry cap below 1, and a size melbourne
        # cannot take
        (("shuffle", "--n", "16", "--pad-factor", "0"), 2),
        (("shuffle", "--n", "16", "--algo", "naive", "--pad-factor", "0"), 2),
        (("verify", "--n", "16", "--trials", "2", "--pad-factor", "-1"), 2),
        (("aborts", "--n-list", "16", "--pad-factor", "0"), 2),
        (("aborts", "--n-list", "16", "--retry-cap", "0"), 2),
        (("shuffle", "--n", "15"), 2),
        (("verify", "--n", "15", "--trials", "2"), 2),
    ],
)
def test_failures_exit_with_code_and_message(capsys, argv, code):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == code
    assert err.startswith(f"{argv[0]}: ")
    assert "Traceback" not in err
    flags = dict(zip(argv, argv[1:]))
    n = flags.get("--n")
    if n is not None and (int(n) < 1 or isqrt(int(n)) ** 2 != int(n)):
        assert "--n" in err  # the message names the flag
    for flag in ("--pad-factor", "--retry-cap"):
        if int(flags.get(flag, 1)) < 1:
            assert err == f"{argv[0]}: {flag} must be at least 1, got {flags[flag]}\n"
    if "--lam" in flags:
        assert "--lam" in err
    if flags.get("--n-list") in ("16,16", ","):
        assert "--n-list" in err
    if flags.get("--algos") in (",", "melbourne,melbourne", "melbourne,quicksort"):
        assert err.startswith("bench: bad --algos: ")
    if "--bubble-max" in flags:
        assert "--bubble-max" in err
    if int(flags.get("--trials", 2)) < 2:
        assert err == "verify: --trials must be at least 2\n"
    if code == 2:
        assert out == ""  # refused before any row is printed


# a perfect square, so only the size bound refuses it; numpy fails at
# once on an array this large, so nothing is allocated either way
HUGE = "100000000000000"
# 65536 squared, one past the largest destination a packed word holds
PAST_TAGS = str(VALUE_MASK + 1)
# 1025 squared, the least perfect square past MAX_N
PAST_MAX_N = str(1025 ** 2)
# stands for a geometry file with a 2^48-byte address space, which holds
# PAST_TAGS words, so that only the bound on n refuses that size
WIDE = "<wide geometry>"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("shuffle", "--n", HUGE), "--n"),
        (("verify", "--n", HUGE), "--n"),
        (("bench", "--n-list", HUGE), "--n-list"),
        (("aborts", "--n-list", HUGE), "--n-list"),
        # melbourne's intermediate buffer, n * slice_len words, past it
        (("shuffle", "--n", "16", "--pad-factor", HUGE), "--pad-factor"),
        (("verify", "--n", "16", "--pad-factor", HUGE), "--pad-factor"),
        (("bench", "--n-list", "16", "--pad-factor", HUGE), "--pad-factor"),
        (("aborts", "--n-list", "16", "--pad-factor", HUGE), "--pad-factor"),
        # past MAX_N, so refused before melbourne's ShuffleParams, which
        # refuses this size too
        (("shuffle", "--n", PAST_TAGS, "--cache-config", WIDE), "--n"),
        (("verify", "--n", PAST_TAGS, "--cache-config", WIDE), "--n"),
        # the buffer alone fits; the six n-word arrays take the arena past
        (("shuffle", "--n", "16", "--pad-factor", "2097152"), "--pad-factor"),
    ],
)
def test_size_past_the_address_space_is_refused(capsys, tmp_path, argv, flag):
    wide = tmp_path / "wide.cfg"
    wide.write_text(f"address_space={MAX_ADDRESS_SPACE}\n")
    bound = f"at most {MAX_N}" if WIDE in argv else "address space"
    argv = [str(wide) if tok == WIDE else tok for tok in argv]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"{argv[0]}: ")
    assert flag in err and bound in err


@pytest.mark.parametrize("program", ["bubble", "melbourne", "naive"])
def test_packed_word_bound_applies_to_every_program(program):
    # MAX_N bounds every program's n, far below the packed-word bound; on
    # the rules alone, so no test starts a run of that size
    args = argparse.Namespace(
        command="shuffle", algo=program, n=int(PAST_MAX_N), input=None,
        perm=None, pad_factor=2,
        cache_config=CacheConfig(address_space=MAX_ADDRESS_SPACE))
    with pytest.raises(ValueError, match=f"^--n must be at least 1 and at "
                       f"most {MAX_N}, got {PAST_MAX_N}$"):
        _joint_rules(args)
    args.n = MAX_N  # 1024 squared
    _joint_rules(args)


def test_shuffle_params_refuse_a_size_past_the_packed_tags():
    # the library's own bound, which MAX_N keeps the CLI from reaching
    with pytest.raises(ValueError, match="^n too large for packed tags$"):
        ShuffleParams(VALUE_MASK + 1)


def test_pad_bound_applies_only_where_melbourne_runs(capsys):
    rc, out, _ = run_cli(capsys, "bench", "--algos", "naive", "--n-list", "16",
                         "--pad-factor", HUGE)
    assert (rc, out) == (0, "algo,n,events,txns,aborts,cost\nnaive,16,8,1,0,58\n")
    rc, out, _ = run_cli(capsys, "shuffle", "--algo", "naive", "--n", "16",
                         "--pad-factor", HUGE)
    assert rc == 0 and len(out.split()) == 16


def test_pad_bound_is_the_address_space():
    # at n = 16 melbourne's arena is six 128-byte arrays and four rows of
    # 4 slices of 4 * pad words, 768 + 512 * pad bytes with no stagger, so
    # the 2^30-byte default address space holds a pad up to 2^21 - 2
    args = argparse.Namespace(command="aborts", n_list=[16],
                              pad_factor=(1 << 21) - 2)
    _joint_rules(args)
    args.pad_factor += 1
    with pytest.raises(ValueError, match="^--pad-factor 2097151 needs"):
        _joint_rules(args)


@pytest.mark.parametrize("command, sizes, flag", [
    ("aborts", {"n_list": [16, 4096]}, "--n-list"),
    ("verify", {"n": 4096, "program": "melbourne"}, "--n"),
])
def test_arena_that_no_pad_fits_names_the_size(command, sizes, flag):
    # 4096 words fit a 2^19-byte address space, and melbourne's arena does
    # not even at --pad-factor 1; on the rules alone, so no input of that
    # size is built.  No size up to MAX_N fills the 2^30-byte default
    # address space that aborts runs on, so its case sets a geometry too
    args = argparse.Namespace(command=command, pad_factor=2, **sizes,
                              cache_config=CacheConfig(address_space=1 << 19))
    with pytest.raises(ValueError, match=f"^{flag} 4096 needs a "
                       "589824-byte melbourne arena at n = 4096, "
                       "--pad-factor 1, "):
        _joint_rules(args)


@pytest.mark.parametrize("command", ["shuffle", "probe"])
@pytest.mark.parametrize("key, value", [
    ("l1_sets", 1 << 21),
    ("llc_sets", 1 << 40),
    ("address_space", 1 << 50),
])
def test_geometry_past_the_simulator_bounds_is_refused(capsys, tmp_path,
                                                        command, key, value):
    # refused by CacheConfig before any simulator allocates its sets
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{key}={value}\n")
    size = ["--n", "16"] if command == "shuffle" else []
    rc, out, err = run_cli(capsys, command, "--cache-config", str(cfg), *size)
    assert (rc, out) == (2, "")
    most = MAX_ADDRESS_SPACE if key == "address_space" else MAX_SETS
    assert err == (f"{command}: --cache-config {cfg}: {key} must be at most "
                   f"{most}, got {value}\n")


@pytest.mark.parametrize("command", ["shuffle", "verify", "probe"])
@pytest.mark.parametrize("text, why", [
    ("bogus\n", "malformed config line: 'bogus'"),
    ("l1_sets=3\n", "l1_sets must be a power of two, got 3"),
    ("l1_ways=0\n", "way counts must be positive"),
    ("llc_sets=8\nllc_sets=8\n", "duplicate config key: llc_sets"),
    ("colour=7\n", "unknown config key: colour"),
])
def test_cache_config_refusals_name_the_flag_and_the_path(capsys, tmp_path,
                                                          command, text, why):
    # as a malformed --config line or a bad --input token is refused
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    size = ["--n", "16"] if command != "probe" else []
    rc, out, err = run_cli(capsys, command, "--cache-config", str(cfg), *size)
    assert (rc, out) == (2, "")
    assert err == f"{command}: --cache-config {cfg}: {why}\n"


PATH_FLAGS = [
    ("shuffle", "--config", []),
    ("shuffle", "--cache-config", ["--n", "16"]),
    ("shuffle", "--input", ["--perm", "PERM"]),
    ("shuffle", "--perm", ["--input", "INPUT"]),
    ("shuffle", "--out", ["--n", "16"]),
    ("shuffle", "--trace", ["--n", "16"]),
    ("bench", "--config", []),
    ("bench", "--out", ["--algos", "melbourne", "--n-list", "16"]),
    ("aborts", "--config", []),
    ("aborts", "--out", ["--n-list", "16"]),
    ("verify", "--config", []),
    ("verify", "--cache-config", ["--n", "16"]),
    ("probe", "--config", []),
    ("probe", "--cache-config", []),
]


def _fill_paths(tmp_path, rest):
    """``rest`` with PERM and INPUT replaced by the paths of a good
    permutation file and a good input file."""
    (tmp_path / "input.txt").write_text("5 6 7 8\n")
    (tmp_path / "perm.txt").write_text("2 0 3 1\n")
    return [{"PERM": str(tmp_path / "perm.txt"),
             "INPUT": str(tmp_path / "input.txt")}.get(tok, tok) for tok in rest]


@pytest.mark.parametrize("command, flag, rest", PATH_FLAGS,
                         ids=[f"{command}{flag}" for command, flag, _ in PATH_FLAGS])
def test_a_path_that_cannot_be_opened_is_refused_naming_its_flag(
        capsys, tmp_path, command, flag, rest):
    # as a bad line in the file is: the flag, the path, then the OS message
    missing = tmp_path / "absent" / "file"
    rest = _fill_paths(tmp_path, rest)
    rc, out, err = run_cli(capsys, command, flag, str(missing), *rest)
    assert (rc, out) == (2, "")
    assert err == f"{command}: {flag} {missing}: No such file or directory\n"


@pytest.mark.parametrize("joined", [True, False], ids=["flag=", "flag-space"])
@pytest.mark.parametrize("command, flag, rest", PATH_FLAGS,
                         ids=[f"{command}{flag}" for command, flag, _ in PATH_FLAGS])
def test_an_empty_path_is_refused_naming_its_flag(
        capsys, tmp_path, monkeypatch, command, flag, rest, joined):
    # an empty path names no file: it is refused, not taken as the flag
    # left out, and nothing is read, written or printed
    monkeypatch.chdir(tmp_path)
    rest = _fill_paths(tmp_path, rest)
    empty = [f"{flag}="] if joined else [flag, ""]
    rc, out, err = run_cli(capsys, command, *empty, *rest)
    assert (rc, out) == (2, "")
    assert err == f"{command}: {flag} must name a file, got an empty path\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.txt", "perm.txt"]


READ_FLAGS = [row for row in PATH_FLAGS if row[1] not in ("--out", "--trace")]


@pytest.mark.parametrize("command, flag, rest", READ_FLAGS,
                         ids=[f"{command}{flag}" for command, flag, _ in READ_FLAGS])
def test_a_file_that_is_not_utf8_is_refused_naming_its_flag(
        capsys, tmp_path, command, flag, rest):
    # every file the CLI reads goes through one reader, which refuses a
    # decode error as it refuses a file it cannot open
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff 1\n")
    rest = _fill_paths(tmp_path, rest)
    rc, out, err = run_cli(capsys, command, flag, str(bad), *rest)
    assert (rc, out) == (2, "")
    assert err == (f"{command}: {flag} {bad}: 'utf-8' codec can't decode byte "
                   "0xff in position 0: invalid start byte\n")


def test_config_line_is_refused_before_a_later_malformed_line(capsys, tmp_path):
    # the lines are refused in file order
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("config=other.cfg\nbogus\n")
    rc, out, err = run_cli(capsys, "shuffle", "--n", "16", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err == f"shuffle: --config {cfg}: a config file cannot set config\n"


def test_size_bound_reads_the_cache_geometry(capsys, tmp_path):
    # 1024 words are 8 KiB, more than a 4 KiB address space
    cfg = tmp_path / "small.cfg"
    cfg.write_text("l1_sets=1\nl1_ways=1\nllc_sets=1\nllc_ways=1\n"
                   "address_space=4096\n")
    rc, out, err = run_cli(capsys, "verify", "--n", "1024",
                           "--cache-config", str(cfg))
    assert (rc, out) == (2, "")
    assert err.startswith("verify: --n must fit the 4096-byte address space")


@pytest.mark.parametrize("command", ["aborts", "verify"])
def test_rate_refusal_names_the_flag(capsys, command):
    rc, out, err = run_cli(capsys, command, "--rate", "1.5")
    assert (rc, out) == (2, "")
    assert err == f"{command}: --rate must be in [0, 1], got 1.5\n"


# bad values for each kind of flag value
NOT_INT = ["", "x", "nan", "inf", "1.5"]
COUNT = NOT_INT + ["0", "-3"]
NOT_FLOAT = ["", "x", "nan", "inf", "-inf"]
PROGRAM = ["", "x", "16"]
BAD_VALUES = {
    "--seed": NOT_INT,
    "--pad-factor": COUNT,
    "--retry-cap": COUNT,
    "--bubble-max": COUNT,
    "--trials": COUNT + ["1"],
    # 15: not square, for melbourne by default
    "--n": COUNT + ["15", HUGE, str(VALUE_MASK), PAST_TAGS, PAST_MAX_N],
    "--n-list": ["", ",", "x", "nan", "inf", "0", "-16", "15", "16,16", HUGE,
                 str(VALUE_MASK), PAST_TAGS, PAST_MAX_N],
    "--algos": ["", ",", "x", "16", "melbourne,melbourne"],
    "--algo": PROGRAM,
    "--program": PROGRAM,
    "--lam": NOT_FLOAT + ["-1"],
    "--rate": NOT_FLOAT + ["-0.5", "1.5"],
}
# a bad path fails when it is opened, with the OS's own message
PATHS = {"--cache-config", "--input", "--perm", "--out", "--trace"}
FLAG_ROWS = [(command, flag) for command, (_, _, flags) in _COMMANDS.items()
             for flag in flags.split()]


def test_every_flag_has_bad_values_or_is_a_path():
    assert {flag for _, flag in FLAG_ROWS} == set(BAD_VALUES) | PATHS


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([r for r in FLAG_ROWS if r[1] in BAD_VALUES]).flatmap(
    lambda row: st.tuples(st.just(row), st.sampled_from(BAD_VALUES[row[1]]))))
def test_every_flag_refuses_its_bad_values(capsys, case):
    (command, flag), value = case
    try:
        rc, out, err = run_cli(capsys, command, f"{flag}={value}")
    except SystemExit as exc:  # argparse's own type and choice errors
        rc, (out, err) = exc.code, capsys.readouterr()
    assert rc == 2
    assert flag in err
    assert out == ""
    assert "Traceback" not in err


def _subparsers() -> argparse._SubParsersAction:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    documented = {
        command: re.findall(r"`(--[\w-]+)`", flags)
        for command, flags in re.findall(r"^\| `(\w+)` \| (.+) \|$",
                                         cli_section, re.M)
    }
    parsed = {
        command: [s for a in p._actions for s in a.option_strings
                  if s not in ("-h", "--help", "--config")]
        for command, p in _subparsers().choices.items()
    }
    assert documented == parsed


def test_module_entrypoint_refuses_with_code_and_message():
    # one of the refusals above through the module entry point: its exit
    # status, its message and nothing on stdout
    proc = subprocess.run(
        [sys.executable, "-m", "oblishuffle.cli", "shuffle", "--n", "15"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("shuffle: ")
    assert "--n" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_geometry_without_conflict_free_layout_is_check_failure(capsys, tmp_path):
    # one 4-way L1 set cannot hold the scatter's written lines at any stagger
    cfg = tmp_path / "one-set.cfg"
    cfg.write_text("l1_sets=1\nl1_ways=4\nllc_sets=1\nllc_ways=4\n")
    rc, _, err = run_cli(capsys, "verify", "--n", "16", "--trials", "2",
                         "--cache-config", str(cfg))
    assert rc == 1
    assert err.startswith("verify: layout infeasible")


# -- entry points ----------------------------------------------------------


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_a_subcommands_own_parser_is_the_full_parsers_subparser(name):
    alone, full = cli._command_parser(name), _subparsers().choices[name]
    assert alone.format_help() == full.format_help()
    assert alone.format_usage() == full.format_usage()


# help, argparse's refusals and real runs, through either parser
PARSER_ARGVS = [
    (), ("-h",), ("--help",), ("frob",), ("--", "probe"),
    *[(name, "-h") for name in _COMMANDS],
    ("shuffle", "--n", "abc"), ("shuffle", "--algo", "x"),
    ("verify", "--program"), ("probe", "--cache"), ("probe", "--bogus"),
    ("bench", "--lam", "zz"),
    ("probe",), ("shuffle", "--n", "16", "--seed", "3"),
    ("verify", "--n", "16", "--trials", "2"),
]


def _main_outcome(capsys, argv) -> tuple:
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse's help and refusals
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=[" ".join(argv) or "none" for argv in PARSER_ARGVS])
def test_main_answers_as_the_full_parser_does(capsys, monkeypatch, argv):
    alone = _main_outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse",
                        lambda argv: build_parser().parse_known_args(argv))
    assert _main_outcome(capsys, argv) == alone


def test_a_named_subcommand_builds_only_its_own_parser(capsys, monkeypatch):
    # the saving, counted rather than timed: one parser for a named
    # subcommand, and the full parser with every subparser otherwise
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["probe"]) == 0
    assert main(["shuffle", "--n", "16"]) == 0
    assert progs == ["oblishuffle probe", "oblishuffle shuffle"]
    with pytest.raises(SystemExit) as exc_info:
        main(["frob"])
    assert exc_info.value.code == 2
    assert len(progs) == 2 + 1 + len(_COMMANDS)


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_a_leading_double_dash_ends_the_options_before_the_subcommand(
        capsys, tmp_path):
    # ``-- probe`` runs as ``probe``, and a bare ``--`` is still no
    # subcommand
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_GEOMETRY)
    for argv in (["probe"], ["probe", "--cache-config", str(cfg)],
                 ["shuffle", "--n", "16", "--seed", "3"]):
        assert run_cli(capsys, "--", *argv) == run_cli(capsys, *argv)
    assert run_cli(capsys, "--", "probe") == (0, "32768 8388608\n", "")
    with pytest.raises(SystemExit) as exc_info:
        main(["--"])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: command\n")


def test_module_entrypoint(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY_GEOMETRY)
    proc = subprocess.run(
        [sys.executable, "-m", "oblishuffle.cli",
         "probe", "--cache-config", str(cfg)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1024 4096\n"


# -- where --config is found -------------------------------------------------


def test_config_before_the_subcommand_name_is_refused_unopened(capsys, tmp_path):
    # the subcommand's parser finds --config, so one before its name is
    # refused by name, and the path is never opened
    missing = str(tmp_path / "absent.cfg")
    for argv in (("--config", missing, "shuffle"), (f"--config={missing}", "shuffle")):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "oblishuffle: --config must follow the subcommand name\n"
        assert "No such file" not in err


def test_config_after_a_double_dash_is_an_unrecognized_argument(capsys, tmp_path):
    # past --, the tokens are no flags: nothing is opened
    missing = str(tmp_path / "absent.cfg")
    rc, out, err = run_cli(capsys, "shuffle", "--n", "16", "--", "--config", missing)
    assert (rc, out) == (2, "")
    assert err == f"shuffle: unrecognized arguments: -- --config {missing}\n"


def test_config_given_twice_names_the_repeat(capsys, tmp_path, verify_cfg):
    missing = str(tmp_path / "absent.cfg")
    rc, out, err = run_cli(capsys, "verify", "--config", verify_cfg,
                           "--config", missing)
    assert (rc, out, err) == (2, "", "verify: --config given more than once\n")


def test_a_bad_explicit_flag_is_refused_before_the_config_file_is_read(
        capsys, tmp_path):
    # the file is read after the first parse, so argparse refuses the flag
    missing = str(tmp_path / "absent.cfg")
    with pytest.raises(SystemExit) as exc_info:
        main(["shuffle", "--config", missing, "--n", "abc"])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("oblishuffle shuffle: error: argument --n: "
                        "invalid int value: 'abc'\n")
    assert "No such file" not in err


def test_an_unrecognized_explicit_flag_is_refused_before_the_config_file(
        capsys, tmp_path):
    missing = str(tmp_path / "absent.cfg")
    rc, out, err = run_cli(capsys, "bench", "--config", missing, "--retry-cap", "1")
    assert (rc, out) == (2, "")
    assert err == "bench: unrecognized arguments: --retry-cap 1\n"

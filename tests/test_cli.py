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

from oblishuffle.cache import MAX_ADDRESS_SPACE, MAX_SETS, CacheConfig
from oblishuffle.cli import (
    _COMMANDS,
    _consultations_per_txn,
    _joint_rules,
    build_parser,
    main,
    make_inputs,
    run_aborts_variant,
)
from oblishuffle.shuffle import VALUE_MASK, ShuffleParams, gen_perm
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


def test_config_file_naming_a_config_is_rejected(capsys, tmp_path, verify_cfg):
    cfg = tmp_path / "outer.cfg"
    cfg.write_text(f"config={verify_cfg}\n")
    rc, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert (rc, out) == (2, "")
    assert err.startswith("verify: --config ")


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
        (("bench", "--algos", "melbourne", "--n-list", "16", "--retry-cap", "0"), 2),
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
# stands for a geometry file with a 2^48-byte address space, which holds
# PAST_TAGS words, so that only the packed-word bound refuses that size
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
        # melbourne's ShuffleParams refuses this size too, so no input is
        # built even without the packed-word bound
        (("shuffle", "--n", PAST_TAGS, "--cache-config", WIDE), "--n"),
        (("verify", "--n", PAST_TAGS, "--cache-config", WIDE), "--n"),
        # the buffer alone fits; the six n-word arrays take the arena past
        (("shuffle", "--n", "16", "--pad-factor", "2097152"), "--pad-factor"),
    ],
)
def test_size_past_the_address_space_is_refused(capsys, tmp_path, argv, flag):
    wide = tmp_path / "wide.cfg"
    wide.write_text(f"address_space={MAX_ADDRESS_SPACE}\n")
    bound = "packed in 32 bits" if WIDE in argv else "address space"
    argv = [str(wide) if tok == WIDE else tok for tok in argv]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"{argv[0]}: ")
    assert flag in err and bound in err


@pytest.mark.parametrize("program", ["bubble", "melbourne", "naive"])
def test_packed_word_bound_applies_to_every_program(program):
    # on the rules alone: naive and bubble pass every rule at VALUE_MASK,
    # and no test starts a run of that size
    args = argparse.Namespace(
        command="shuffle", algo=program, n=VALUE_MASK + 1, input=None,
        perm=None, pad_factor=2,
        cache_config=CacheConfig(address_space=MAX_ADDRESS_SPACE))
    with pytest.raises(ValueError, match=f"^--n must be at most {VALUE_MASK}: "):
        _joint_rules(args)
    if program != "melbourne":  # VALUE_MASK is not a perfect square
        args.n = VALUE_MASK
        _joint_rules(args)


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
    ("aborts", {"n_list": [16, 1 << 24]}, "--n-list"),
    ("verify", {"n": 1 << 24, "program": "melbourne",
                "cache_config": CacheConfig()}, "--n"),
])
def test_arena_that_no_pad_fits_names_the_size(command, sizes, flag):
    # 4096^2 words fit the 2^30-byte default address space, and melbourne's
    # arena does not even at --pad-factor 1; on the rules alone, so no
    # input of that size is built
    args = argparse.Namespace(command=command, pad_factor=2, **sizes)
    with pytest.raises(ValueError, match=f"^{flag} 16777216 needs a "
                       "4026531840-byte melbourne arena at n = 16777216, "
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
    assert err == f"{command}: {key} must be at most {most}, got {value}\n"


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
    "--n": COUNT + ["15", HUGE, str(VALUE_MASK), PAST_TAGS],
    "--n-list": ["", ",", "x", "nan", "inf", "0", "-16", "15", "16,16", HUGE,
                 str(VALUE_MASK), PAST_TAGS],
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


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    documented = {
        command: re.findall(r"`(--[\w-]+)`", flags)
        for command, flags in re.findall(r"^\| `(\w+)` \| (.+) \|$",
                                         cli_section, re.M)
    }
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {
        command: [s for a in p._actions for s in a.option_strings
                  if s not in ("-h", "--help", "--config")]
        for command, p in sub.choices.items()
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


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


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

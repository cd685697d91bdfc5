"""Command-line interface: table formats, exit codes, config files."""

import subprocess
import sys

import pytest

from oblishuffle.cli import _consultations_per_txn, main, make_inputs
from oblishuffle.shuffle import ShuffleParams, gen_perm
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


def test_shuffle_non_square_size_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "shuffle", "--n", "10")
    assert rc == 2
    assert "perfect square" in err


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
    rc, _, err = run_cli(capsys, "verify", "--trials", "1")
    assert rc == 2
    assert "two inputs" in err


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
    ],
)
def test_failures_exit_with_code_and_message(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "oblishuffle.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code
    assert proc.stderr.startswith(f"{argv[0]}: ")
    assert "Traceback" not in proc.stderr
    flags = dict(zip(argv, argv[1:]))
    n = flags.get("--n")
    if n is not None and int(n) < 1:
        assert "--n" in proc.stderr  # the message names the flag
    if "--lam" in flags:
        assert "--lam" in proc.stderr
    if flags.get("--n-list") in ("16,16", ","):
        assert "--n-list" in proc.stderr
    if code == 2:
        assert proc.stdout == ""  # refused before any row is printed


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

"""Frozen behaviour: trace and output digests, and the CLI tables.

Each case runs one program under the capture protocol and pins the
SHA-256 of the trace CSV and of the output.  A refactor must leave every
digest as it is; a change that means to alter behaviour says which
digests moved and why.  Naive runs without interrupts only, because at
rate 0.002 its single transaction exhausts the retry cap.  So an
interrupted cold body is pinned by the no-prefetch engine instead: its
counts and the SHA-256 of its trace CSV, in ``COLD_RUNS``.
"""

import hashlib

import pytest

from oblishuffle.cache import CacheConfig, CacheSim
from oblishuffle.cli import main, make_inputs
from oblishuffle.shuffle import ShuffleEngine, ShuffleParams
from oblishuffle.txn import AccessProbability, RetryCapExceededError
from oblishuffle.verify import capture_trace, oracle_apply_perm

GEOMETRIES = {"default": None, "llc64": CacheConfig(llc_sets=64)}
RATE = 0.002


def _cases():
    for program, sizes, rates in (
        ("melbourne", (16, 64, 256, 1024), (0, RATE)),
        ("naive", (16, 64, 256, 1024), (0,)),
        ("bubble", (16, 64), (0,)),
    ):
        for n in sizes:
            for seed in range(3):
                for geometry in GEOMETRIES:
                    for rate in rates:
                        yield f"{program}-{n}-s{seed}-{geometry}-r{rate}"


def case_digests(case: str) -> tuple[str, str]:
    program, n, seed, geometry, rate = case.split("-")
    n, seed, rate = int(n), int(seed[1:]), float(rate[1:])
    data, perm = make_inputs(n, seed)
    model = AccessProbability(rate, seed) if rate else None
    trace, out = capture_trace(
        program, data, perm, seed=seed,
        config=GEOMETRIES[geometry], interrupt_model=model,
    )
    return (
        hashlib.sha256(trace.export_csv().encode()).hexdigest(),
        hashlib.sha256(",".join(map(str, out)).encode()).hexdigest(),
    )


DIGESTS = {
    "melbourne-16-s0-default-r0": (
        "45bc9bd67dbf37f61708e4e51d9abf371f3daea3c00a7c86c07d2607c7d2dd72",
        "d1ea5a38a7e35d70bacdec0868894f3c8e2b3f015708ae3ff83a7ced52c666fb",
    ),
    "melbourne-16-s0-default-r0.002": (
        "45bc9bd67dbf37f61708e4e51d9abf371f3daea3c00a7c86c07d2607c7d2dd72",
        "d1ea5a38a7e35d70bacdec0868894f3c8e2b3f015708ae3ff83a7ced52c666fb",
    ),
    "melbourne-16-s0-llc64-r0": (
        "45bc9bd67dbf37f61708e4e51d9abf371f3daea3c00a7c86c07d2607c7d2dd72",
        "d1ea5a38a7e35d70bacdec0868894f3c8e2b3f015708ae3ff83a7ced52c666fb",
    ),
    "melbourne-16-s0-llc64-r0.002": (
        "45bc9bd67dbf37f61708e4e51d9abf371f3daea3c00a7c86c07d2607c7d2dd72",
        "d1ea5a38a7e35d70bacdec0868894f3c8e2b3f015708ae3ff83a7ced52c666fb",
    ),
    "melbourne-16-s1-default-r0": (
        "45bc9bd67dbf37f61708e4e51d9abf371f3daea3c00a7c86c07d2607c7d2dd72",
        "b9022bd12d85fe0c61853274d4d29bcf59a928828108063f79717a07e17e3165",
    ),
    "melbourne-16-s1-default-r0.002": (
        "901cd39719f84cc91cd605c683857fa1871582dddd98b41c5146551fef32469e",
        "b9022bd12d85fe0c61853274d4d29bcf59a928828108063f79717a07e17e3165",
    ),
    "melbourne-16-s1-llc64-r0": (
        "45bc9bd67dbf37f61708e4e51d9abf371f3daea3c00a7c86c07d2607c7d2dd72",
        "b9022bd12d85fe0c61853274d4d29bcf59a928828108063f79717a07e17e3165",
    ),
    "melbourne-16-s1-llc64-r0.002": (
        "901cd39719f84cc91cd605c683857fa1871582dddd98b41c5146551fef32469e",
        "b9022bd12d85fe0c61853274d4d29bcf59a928828108063f79717a07e17e3165",
    ),
    "melbourne-16-s2-default-r0": (
        "45bc9bd67dbf37f61708e4e51d9abf371f3daea3c00a7c86c07d2607c7d2dd72",
        "fc5bb3fb656268eaa774b7ef864c812443cb1de61808aa6e3e8629695ffd97b9",
    ),
    "melbourne-16-s2-default-r0.002": (
        "d7fcd72b3be54309370b619672d817edd4bc32ebcb4791bb464961343cf1e206",
        "fc5bb3fb656268eaa774b7ef864c812443cb1de61808aa6e3e8629695ffd97b9",
    ),
    "melbourne-16-s2-llc64-r0": (
        "45bc9bd67dbf37f61708e4e51d9abf371f3daea3c00a7c86c07d2607c7d2dd72",
        "fc5bb3fb656268eaa774b7ef864c812443cb1de61808aa6e3e8629695ffd97b9",
    ),
    "melbourne-16-s2-llc64-r0.002": (
        "d7fcd72b3be54309370b619672d817edd4bc32ebcb4791bb464961343cf1e206",
        "fc5bb3fb656268eaa774b7ef864c812443cb1de61808aa6e3e8629695ffd97b9",
    ),
    "melbourne-64-s0-default-r0": (
        "1b22c742a91b1b99a790eb1720402bd1708bc2598b74d107c7dd9ee56de4c8e6",
        "3b84f688a73f5029f248b3e92e118b36362ef77214632ec0507ed9ce0eb6c68b",
    ),
    "melbourne-64-s0-default-r0.002": (
        "54ab36f92a142917b3d79eabdb2f3355a80656047fa8c46d86a567f3d197e05c",
        "3b84f688a73f5029f248b3e92e118b36362ef77214632ec0507ed9ce0eb6c68b",
    ),
    "melbourne-64-s0-llc64-r0": (
        "1b22c742a91b1b99a790eb1720402bd1708bc2598b74d107c7dd9ee56de4c8e6",
        "3b84f688a73f5029f248b3e92e118b36362ef77214632ec0507ed9ce0eb6c68b",
    ),
    "melbourne-64-s0-llc64-r0.002": (
        "54ab36f92a142917b3d79eabdb2f3355a80656047fa8c46d86a567f3d197e05c",
        "3b84f688a73f5029f248b3e92e118b36362ef77214632ec0507ed9ce0eb6c68b",
    ),
    "melbourne-64-s1-default-r0": (
        "1b22c742a91b1b99a790eb1720402bd1708bc2598b74d107c7dd9ee56de4c8e6",
        "cf185c13365bcba4570c29aeefa73ca846c0a2f4683f200bffdb4189125293c8",
    ),
    "melbourne-64-s1-default-r0.002": (
        "e78680381ffa18ba3e99ebd14509d8d509a3284431ab9ef61d90013d23f75cef",
        "cf185c13365bcba4570c29aeefa73ca846c0a2f4683f200bffdb4189125293c8",
    ),
    "melbourne-64-s1-llc64-r0": (
        "1b22c742a91b1b99a790eb1720402bd1708bc2598b74d107c7dd9ee56de4c8e6",
        "cf185c13365bcba4570c29aeefa73ca846c0a2f4683f200bffdb4189125293c8",
    ),
    "melbourne-64-s1-llc64-r0.002": (
        "e78680381ffa18ba3e99ebd14509d8d509a3284431ab9ef61d90013d23f75cef",
        "cf185c13365bcba4570c29aeefa73ca846c0a2f4683f200bffdb4189125293c8",
    ),
    "melbourne-64-s2-default-r0": (
        "1b22c742a91b1b99a790eb1720402bd1708bc2598b74d107c7dd9ee56de4c8e6",
        "e64d602d05caf7f365f871d3c724f44a9d4878c9159da11754173fd5b3c12908",
    ),
    "melbourne-64-s2-default-r0.002": (
        "0eed3ef0b39602cd003160dfd1a7fdfc88d7487b4838171b3b28cecb4bf47c2f",
        "e64d602d05caf7f365f871d3c724f44a9d4878c9159da11754173fd5b3c12908",
    ),
    "melbourne-64-s2-llc64-r0": (
        "1b22c742a91b1b99a790eb1720402bd1708bc2598b74d107c7dd9ee56de4c8e6",
        "e64d602d05caf7f365f871d3c724f44a9d4878c9159da11754173fd5b3c12908",
    ),
    "melbourne-64-s2-llc64-r0.002": (
        "0eed3ef0b39602cd003160dfd1a7fdfc88d7487b4838171b3b28cecb4bf47c2f",
        "e64d602d05caf7f365f871d3c724f44a9d4878c9159da11754173fd5b3c12908",
    ),
    "melbourne-256-s0-default-r0": (
        "7bf7d7322b3411677c2f286bffbca0139fe4b912970834157c472bdee8b35f01",
        "ad7c878e7ae7407993e1d7605dbf3e33f23c5bc06a37733cc37492bfd5773baa",
    ),
    "melbourne-256-s0-default-r0.002": (
        "eb2270219701fb85d4e240eb80c81b49861a39996621dc8417055baada0c0877",
        "ad7c878e7ae7407993e1d7605dbf3e33f23c5bc06a37733cc37492bfd5773baa",
    ),
    "melbourne-256-s0-llc64-r0": (
        "7bf7d7322b3411677c2f286bffbca0139fe4b912970834157c472bdee8b35f01",
        "ad7c878e7ae7407993e1d7605dbf3e33f23c5bc06a37733cc37492bfd5773baa",
    ),
    "melbourne-256-s0-llc64-r0.002": (
        "eb2270219701fb85d4e240eb80c81b49861a39996621dc8417055baada0c0877",
        "ad7c878e7ae7407993e1d7605dbf3e33f23c5bc06a37733cc37492bfd5773baa",
    ),
    "melbourne-256-s1-default-r0": (
        "7bf7d7322b3411677c2f286bffbca0139fe4b912970834157c472bdee8b35f01",
        "2710af96b7c363311374900b397ff7fe65018c147cf17bd34bd988af3029ccf7",
    ),
    "melbourne-256-s1-default-r0.002": (
        "78d25bf12c42ef3017b1849c65b2bbd554d4e95e28a7f049c1a75aed7d8f4551",
        "2710af96b7c363311374900b397ff7fe65018c147cf17bd34bd988af3029ccf7",
    ),
    "melbourne-256-s1-llc64-r0": (
        "7bf7d7322b3411677c2f286bffbca0139fe4b912970834157c472bdee8b35f01",
        "2710af96b7c363311374900b397ff7fe65018c147cf17bd34bd988af3029ccf7",
    ),
    "melbourne-256-s1-llc64-r0.002": (
        "78d25bf12c42ef3017b1849c65b2bbd554d4e95e28a7f049c1a75aed7d8f4551",
        "2710af96b7c363311374900b397ff7fe65018c147cf17bd34bd988af3029ccf7",
    ),
    "melbourne-256-s2-default-r0": (
        "7bf7d7322b3411677c2f286bffbca0139fe4b912970834157c472bdee8b35f01",
        "06128aa63193371f26c806adc3b7bd3a8cf3e40adf80b2b5528615a9f925baa5",
    ),
    "melbourne-256-s2-default-r0.002": (
        "a78f990b39bc3d8e9bb69cd38b82baf8a9b0c9c6775ded8a0b35e148d8a8ddbb",
        "06128aa63193371f26c806adc3b7bd3a8cf3e40adf80b2b5528615a9f925baa5",
    ),
    "melbourne-256-s2-llc64-r0": (
        "7bf7d7322b3411677c2f286bffbca0139fe4b912970834157c472bdee8b35f01",
        "06128aa63193371f26c806adc3b7bd3a8cf3e40adf80b2b5528615a9f925baa5",
    ),
    "melbourne-256-s2-llc64-r0.002": (
        "a78f990b39bc3d8e9bb69cd38b82baf8a9b0c9c6775ded8a0b35e148d8a8ddbb",
        "06128aa63193371f26c806adc3b7bd3a8cf3e40adf80b2b5528615a9f925baa5",
    ),
    "melbourne-1024-s0-default-r0": (
        "e3cb38c71d0a3d29e8231c89706519df89d6b988f2551d9ebf23d06cccb9c552",
        "38baf98169c356a25dcd123f3c25592ee40373951e63b027a56e6878366bcac6",
    ),
    "melbourne-1024-s0-default-r0.002": (
        "fb8f6b3f10b37904ba534ccddd9a971b14eb7cce998482ca87e320362fd1b600",
        "38baf98169c356a25dcd123f3c25592ee40373951e63b027a56e6878366bcac6",
    ),
    "melbourne-1024-s0-llc64-r0": (
        "5712c28bb33feee9fa7901b0481d9a628d0b923f1fd1123c07ea7a968b98da06",
        "38baf98169c356a25dcd123f3c25592ee40373951e63b027a56e6878366bcac6",
    ),
    "melbourne-1024-s0-llc64-r0.002": (
        "b6ff0c127bbbd850e0d211922435507408375d7a6da317979027686d782dfc80",
        "38baf98169c356a25dcd123f3c25592ee40373951e63b027a56e6878366bcac6",
    ),
    "melbourne-1024-s1-default-r0": (
        "e3cb38c71d0a3d29e8231c89706519df89d6b988f2551d9ebf23d06cccb9c552",
        "a1f7f766c582064ed312297f955ea822cbe77fc4708ec5b0cccbfc521d75f1d7",
    ),
    "melbourne-1024-s1-default-r0.002": (
        "2d4d1a9b70fb34560ae9c579a7d000cb12dd596594c53baf38fa852456e5a984",
        "a1f7f766c582064ed312297f955ea822cbe77fc4708ec5b0cccbfc521d75f1d7",
    ),
    "melbourne-1024-s1-llc64-r0": (
        "5712c28bb33feee9fa7901b0481d9a628d0b923f1fd1123c07ea7a968b98da06",
        "a1f7f766c582064ed312297f955ea822cbe77fc4708ec5b0cccbfc521d75f1d7",
    ),
    "melbourne-1024-s1-llc64-r0.002": (
        "95f68b625a7cd755fc0a098fe4a52dae43068ec3e0e35990a82405e56c32e3fe",
        "a1f7f766c582064ed312297f955ea822cbe77fc4708ec5b0cccbfc521d75f1d7",
    ),
    "melbourne-1024-s2-default-r0": (
        "e3cb38c71d0a3d29e8231c89706519df89d6b988f2551d9ebf23d06cccb9c552",
        "b67ff7f2e086ec0cc58bb4dec9425e19afc3514a05b611fad3e36773ba7bf686",
    ),
    "melbourne-1024-s2-default-r0.002": (
        "73c175c69d95e5e2fec55bc25b5da4acf1b43fab0709733031606ba7fcf043ae",
        "b67ff7f2e086ec0cc58bb4dec9425e19afc3514a05b611fad3e36773ba7bf686",
    ),
    "melbourne-1024-s2-llc64-r0": (
        "5712c28bb33feee9fa7901b0481d9a628d0b923f1fd1123c07ea7a968b98da06",
        "b67ff7f2e086ec0cc58bb4dec9425e19afc3514a05b611fad3e36773ba7bf686",
    ),
    "melbourne-1024-s2-llc64-r0.002": (
        "cbc6d4d607ae0a6a432a63dc40386977bdde9936ed521fe2fbe4d4a9bd391b8c",
        "b67ff7f2e086ec0cc58bb4dec9425e19afc3514a05b611fad3e36773ba7bf686",
    ),
    "naive-16-s0-default-r0": (
        "59b7ce3e1a010dce92fea6c94bd8cae1c4652f98fdaf2e96787d9e1567edc754",
        "d1ea5a38a7e35d70bacdec0868894f3c8e2b3f015708ae3ff83a7ced52c666fb",
    ),
    "naive-16-s0-llc64-r0": (
        "59b7ce3e1a010dce92fea6c94bd8cae1c4652f98fdaf2e96787d9e1567edc754",
        "d1ea5a38a7e35d70bacdec0868894f3c8e2b3f015708ae3ff83a7ced52c666fb",
    ),
    "naive-16-s1-default-r0": (
        "deb979a4286126ebb4c016f97396aec4447029afcd675b0d26a24f71ceb73e82",
        "b9022bd12d85fe0c61853274d4d29bcf59a928828108063f79717a07e17e3165",
    ),
    "naive-16-s1-llc64-r0": (
        "deb979a4286126ebb4c016f97396aec4447029afcd675b0d26a24f71ceb73e82",
        "b9022bd12d85fe0c61853274d4d29bcf59a928828108063f79717a07e17e3165",
    ),
    "naive-16-s2-default-r0": (
        "deb979a4286126ebb4c016f97396aec4447029afcd675b0d26a24f71ceb73e82",
        "fc5bb3fb656268eaa774b7ef864c812443cb1de61808aa6e3e8629695ffd97b9",
    ),
    "naive-16-s2-llc64-r0": (
        "deb979a4286126ebb4c016f97396aec4447029afcd675b0d26a24f71ceb73e82",
        "fc5bb3fb656268eaa774b7ef864c812443cb1de61808aa6e3e8629695ffd97b9",
    ),
    "naive-64-s0-default-r0": (
        "f828e02cf9084c266a2d29ae5ed4daa4b966cf55ef1b422b7128a27749480465",
        "3b84f688a73f5029f248b3e92e118b36362ef77214632ec0507ed9ce0eb6c68b",
    ),
    "naive-64-s0-llc64-r0": (
        "f828e02cf9084c266a2d29ae5ed4daa4b966cf55ef1b422b7128a27749480465",
        "3b84f688a73f5029f248b3e92e118b36362ef77214632ec0507ed9ce0eb6c68b",
    ),
    "naive-64-s1-default-r0": (
        "01e48babe48be8f2395646ca570684727e2e83031de2ffe32a6e1bdeaa721462",
        "cf185c13365bcba4570c29aeefa73ca846c0a2f4683f200bffdb4189125293c8",
    ),
    "naive-64-s1-llc64-r0": (
        "01e48babe48be8f2395646ca570684727e2e83031de2ffe32a6e1bdeaa721462",
        "cf185c13365bcba4570c29aeefa73ca846c0a2f4683f200bffdb4189125293c8",
    ),
    "naive-64-s2-default-r0": (
        "823b740bb70842c3f021f3ba37096a54bca946a3425b9876f2411939ca6144ec",
        "e64d602d05caf7f365f871d3c724f44a9d4878c9159da11754173fd5b3c12908",
    ),
    "naive-64-s2-llc64-r0": (
        "823b740bb70842c3f021f3ba37096a54bca946a3425b9876f2411939ca6144ec",
        "e64d602d05caf7f365f871d3c724f44a9d4878c9159da11754173fd5b3c12908",
    ),
    "naive-256-s0-default-r0": (
        "9f7f11dcbe00eea7ca9e84560b27a8f95b87d08d6169c41846604245ba51f6f2",
        "ad7c878e7ae7407993e1d7605dbf3e33f23c5bc06a37733cc37492bfd5773baa",
    ),
    "naive-256-s0-llc64-r0": (
        "9f7f11dcbe00eea7ca9e84560b27a8f95b87d08d6169c41846604245ba51f6f2",
        "ad7c878e7ae7407993e1d7605dbf3e33f23c5bc06a37733cc37492bfd5773baa",
    ),
    "naive-256-s1-default-r0": (
        "251446c226eb2b6cf682063ae03c813985609984e79a7c2c2b8d7a7071d2fda7",
        "2710af96b7c363311374900b397ff7fe65018c147cf17bd34bd988af3029ccf7",
    ),
    "naive-256-s1-llc64-r0": (
        "251446c226eb2b6cf682063ae03c813985609984e79a7c2c2b8d7a7071d2fda7",
        "2710af96b7c363311374900b397ff7fe65018c147cf17bd34bd988af3029ccf7",
    ),
    "naive-256-s2-default-r0": (
        "15e985c5322c9a2c583be3f7b1f0c7e86d5a6e5dc4445caed20be4aa6900a9c5",
        "06128aa63193371f26c806adc3b7bd3a8cf3e40adf80b2b5528615a9f925baa5",
    ),
    "naive-256-s2-llc64-r0": (
        "15e985c5322c9a2c583be3f7b1f0c7e86d5a6e5dc4445caed20be4aa6900a9c5",
        "06128aa63193371f26c806adc3b7bd3a8cf3e40adf80b2b5528615a9f925baa5",
    ),
    "naive-1024-s0-default-r0": (
        "e0cfcb06b744d04eef6753e3494841fa5b7069b8df8611f74624b737dac24313",
        "38baf98169c356a25dcd123f3c25592ee40373951e63b027a56e6878366bcac6",
    ),
    "naive-1024-s0-llc64-r0": (
        "e0cfcb06b744d04eef6753e3494841fa5b7069b8df8611f74624b737dac24313",
        "38baf98169c356a25dcd123f3c25592ee40373951e63b027a56e6878366bcac6",
    ),
    "naive-1024-s1-default-r0": (
        "e8f3330ceac6e901ee7620f3de579869b27c5c13676bd106d0cc9663a1c3fea1",
        "a1f7f766c582064ed312297f955ea822cbe77fc4708ec5b0cccbfc521d75f1d7",
    ),
    "naive-1024-s1-llc64-r0": (
        "e8f3330ceac6e901ee7620f3de579869b27c5c13676bd106d0cc9663a1c3fea1",
        "a1f7f766c582064ed312297f955ea822cbe77fc4708ec5b0cccbfc521d75f1d7",
    ),
    "naive-1024-s2-default-r0": (
        "d8e9e1321cff1d5e676a834d49cf130d41b11a89ef842521f110e39b3585ee34",
        "b67ff7f2e086ec0cc58bb4dec9425e19afc3514a05b611fad3e36773ba7bf686",
    ),
    "naive-1024-s2-llc64-r0": (
        "d8e9e1321cff1d5e676a834d49cf130d41b11a89ef842521f110e39b3585ee34",
        "b67ff7f2e086ec0cc58bb4dec9425e19afc3514a05b611fad3e36773ba7bf686",
    ),
    "bubble-16-s0-default-r0": (
        "492b1300131eefccd21f2491d14e779ec3fe3bce2a3bf1c55fa371bb81fe7346",
        "d1ea5a38a7e35d70bacdec0868894f3c8e2b3f015708ae3ff83a7ced52c666fb",
    ),
    "bubble-16-s0-llc64-r0": (
        "492b1300131eefccd21f2491d14e779ec3fe3bce2a3bf1c55fa371bb81fe7346",
        "d1ea5a38a7e35d70bacdec0868894f3c8e2b3f015708ae3ff83a7ced52c666fb",
    ),
    "bubble-16-s1-default-r0": (
        "492b1300131eefccd21f2491d14e779ec3fe3bce2a3bf1c55fa371bb81fe7346",
        "b9022bd12d85fe0c61853274d4d29bcf59a928828108063f79717a07e17e3165",
    ),
    "bubble-16-s1-llc64-r0": (
        "492b1300131eefccd21f2491d14e779ec3fe3bce2a3bf1c55fa371bb81fe7346",
        "b9022bd12d85fe0c61853274d4d29bcf59a928828108063f79717a07e17e3165",
    ),
    "bubble-16-s2-default-r0": (
        "492b1300131eefccd21f2491d14e779ec3fe3bce2a3bf1c55fa371bb81fe7346",
        "fc5bb3fb656268eaa774b7ef864c812443cb1de61808aa6e3e8629695ffd97b9",
    ),
    "bubble-16-s2-llc64-r0": (
        "492b1300131eefccd21f2491d14e779ec3fe3bce2a3bf1c55fa371bb81fe7346",
        "fc5bb3fb656268eaa774b7ef864c812443cb1de61808aa6e3e8629695ffd97b9",
    ),
    "bubble-64-s0-default-r0": (
        "025f6d41182ffac4e80713f2c9f78bd2fb498c43f9c173e635bab263493f912d",
        "3b84f688a73f5029f248b3e92e118b36362ef77214632ec0507ed9ce0eb6c68b",
    ),
    "bubble-64-s0-llc64-r0": (
        "025f6d41182ffac4e80713f2c9f78bd2fb498c43f9c173e635bab263493f912d",
        "3b84f688a73f5029f248b3e92e118b36362ef77214632ec0507ed9ce0eb6c68b",
    ),
    "bubble-64-s1-default-r0": (
        "025f6d41182ffac4e80713f2c9f78bd2fb498c43f9c173e635bab263493f912d",
        "cf185c13365bcba4570c29aeefa73ca846c0a2f4683f200bffdb4189125293c8",
    ),
    "bubble-64-s1-llc64-r0": (
        "025f6d41182ffac4e80713f2c9f78bd2fb498c43f9c173e635bab263493f912d",
        "cf185c13365bcba4570c29aeefa73ca846c0a2f4683f200bffdb4189125293c8",
    ),
    "bubble-64-s2-default-r0": (
        "025f6d41182ffac4e80713f2c9f78bd2fb498c43f9c173e635bab263493f912d",
        "e64d602d05caf7f365f871d3c724f44a9d4878c9159da11754173fd5b3c12908",
    ),
    "bubble-64-s2-llc64-r0": (
        "025f6d41182ffac4e80713f2c9f78bd2fb498c43f9c173e635bab263493f912d",
        "e64d602d05caf7f365f871d3c724f44a9d4878c9159da11754173fd5b3c12908",
    ),
}

BENCH_TABLE = [
    "algo,n,events,txns,aborts,cost",
    "bubble,16,727,0,0,727",
    "bubble,64,10591,0,0,10591",
    "bubble,256,165247,0,0,165247",
    "melbourne,16,88,24,0,1288",
    "melbourne,64,552,48,0,2952",
    "melbourne,256,2336,96,0,7136",
    "melbourne,1024,12928,192,0,22528",
    "naive,16,8,1,0,58",
    "naive,64,32,1,0,82",
    "naive,256,128,1,0,178",
    "naive,1024,512,1,0,562",
]

ABORTS_TABLE = [
    "variant,n,ac2,ac4,attempts,flag",
    "interrupt-only,64,0,7,55,ok",
    "interrupt-only,256,0,19,115,ok",
    "melbourne,64,0,7,55,ok",
    "melbourne,256,0,19,115,ok",
    "no-prefetch,64,0,7,55,ok",
    "no-prefetch,256,0,19,115,ok",
]


@pytest.mark.parametrize("case", list(_cases()))
def test_trace_and_output_digests(case):
    assert case_digests(case) == DIGESTS[case]


def test_bench_table_is_frozen(capsys):
    assert main(["bench", "--n-list", "16,64,256,1024", "--bubble-max", "256"]) == 0
    assert capsys.readouterr().out.splitlines() == BENCH_TABLE


def test_aborts_table_is_frozen(capsys):
    assert main(["aborts", "--n-list", "64,256"]) == 0
    assert capsys.readouterr().out.splitlines() == ABORTS_TABLE


# The no-prefetch engine on the conflicting layout at rate 0.002, seed 1:
# (n, geometry) -> how the shuffle ends, ac2, ac4 and attempts over its
# transactions, trace events, interrupt consultations and the trace
# digest.  On the default geometry at n = 1024 only interrupts abort; with
# 16 L1 sets at n = 256 the cold bodies also pin-fault, until one
# transaction meets the retry cap.
COLD_RUNS = {
    (1024, "default"): (
        "commit", 0, 588, 780, 34931, 293353,
        "3d4acda4ef9122b44e5df30965cf1a6a0061fb1273ad5e881b319909475fae27",
    ),
    (256, "l1x16"): (
        "retry-cap", 750, 274, 1024, 17607, 140926,
        "cee43540a49218cf435c713ae44d45e1f954f29a8a635f95032550369578b31a",
    ),
}
COLD_GEOMETRIES = {"default": None, "l1x16": CacheConfig(l1_sets=16)}


@pytest.mark.parametrize("n, geometry", list(COLD_RUNS))
def test_interrupted_cold_bodies_are_frozen(n, geometry):
    sim = CacheSim(COLD_GEOMETRIES[geometry])
    model = AccessProbability(RATE, 1)
    engine = ShuffleEngine(sim, ShuffleParams(n, 2, 1), prefetch=False,
                           staggered=False, interrupt_model=model)
    data, perm = make_inputs(n, 1)
    try:
        assert engine.melbourne(data, perm) == oracle_apply_perm(data, perm)
        end = "commit"
    except RetryCapExceededError:
        end = "retry-cap"
    stats = engine.stats
    assert (
        end,
        sum(s.ac2 for s in stats),
        sum(s.ac4 for s in stats),
        sum(s.attempts for s in stats),
        len(sim.trace),
        model.consultations,
        hashlib.sha256(sim.trace.export_csv().encode()).hexdigest(),
    ) == COLD_RUNS[n, geometry]

#!/usr/bin/env python3
"""Per-layer costs of cbsc at fixed seeds, printed and written as JSON.

Usage: bench.py [--out FILE] [PROFILE ...]

PROFILE is one of the bench profiles `toy`, `l1-20`, `l1-8` and
`paper-l1`, or any profile name or file that `params.setup` accepts; the
default is the four bench profiles, smallest first.  L1/20 is
perfbench/l1-20.profile and L1/8 scripts/l1-8.profile.  Each profile
starts from its own generator, seeded with SEED, and records:

  cli              the CLI sequence, in a temporary directory: keygen of
                   both roles at seeds 0a and 0b, `signcrypt` of MESSAGE
                   at seed 0c, `unsigncrypt`, whose output must equal
                   MESSAGE, and `unsigncrypt` of the message with its
                   last byte flipped, which must exit 4; per command its
                   exit code, wall time and the child's peak RSS, from
                   its own rusage, and the sha256 of each file in
                   CLI_FILES.  An unexpected exit code or output raises,
                   and so do digests other than CLI_SHA256's, for the
                   bench profiles; a change that alters the bytes on
                   purpose updates that table.  Every profile's sequence
                   runs before any profile is benched in this process
                   (see `run_cli`).
  phases           the six phases below, each with its wall time and
                   every traced function called inside it, per caller:
                   calls, inclusive time and self time (inclusive minus
                   traced callees)
  batch_products   one signing batch's two solver products, V then U:
                   `linalg.matmul` of BATCH rows of free-value
                   differences by the solver's R_free, and the bare
                   float32 BLAS product of the same operands, so the
                   difference is the reduction
  elimination      the eliminations of key generation and loading, each
                   on the loaded keys' own matrix: `mat_reduce` of the
                   receiver's parity check, `mat_rank` of its S and of
                   the sender's r_s x r_s square, and `mat_reduce` of
                   H_U, H_V and all of H_sk·P; per matrix the call, the
                   field, the shape and the median ms of
                   KEY_PARSE_REPEATS runs
  code_tables_ms   the median ms of REPEATS runs of `goppa.GoppaCode` on
                   the loaded receiver key's m, t, g and support, which
                   builds the code's two tables, and of
                   `goppa.goppa_parity_check` of that code: the key-time
                   work of key generation and loading besides the
                   reduction in `elimination`
  irreducible      REPEATS irreducible searches, `fields.random_irreducible`
                   at the profile's t and m, each from its own generator
                   seeded with (SEED, 2, i), so the other records draw
                   what they drew without it: per search the candidates
                   that `fields.poly_is_irreducible` tested and the ms,
                   the mean ms per search, and the median ms of one load
                   check, `fields.poly_is_irreducible` of the loaded
                   receiver key's g, of REPEATS runs
  hsk_p_columns_ms `uuvsign.hsk_p_columns` of the loaded sender key: the
                   gather of all n_s columns of H_sk·P that sender
                   keygen reduces for A
  phi_ms           `cwencode.phi` of kappa random bits at (n_r, t)
  signatures       the signing record: SIGNATURES whole signatures of
                   random syndromes with the loaded sender key, untraced:
                   attempts per signature, counted as the rows of free
                   values that `linalg.AffineSolver.solve` is given,
                   halved (each attempt solves one row per half), and ms
                   per signature
  sizes            the serialised key sizes next to the `estimator.sizes`
                   rows they correspond to
  decoder          DECODES words, each a random codeword of the loaded
                   receiver public key plus a random error of weight t,
                   decoded with the loaded receiver secret key twice,
                   untraced: by
                   `goppa.decode_permuted`, which the scheme runs
                   (Berlekamp-Massey between the two permutations), and
                   by `goppa.patterson_decode`, the reference, on the
                   word already un-permuted; per decoder the median and
                   the largest time in ms.  Each decoded error must
                   equal the one drawn, or the script raises, so the
                   two decoders cannot disagree unseen.  Then DECODES
                   uniform words, almost all beyond distance t, decoded
                   the same two ways; the script raises unless the two
                   answers agree (both None, or the same error), which
                   also runs Berlekamp-Massey's length bound L <= t
                   beyond the radius, and records per decoder how many
                   of them gave None.  The words come from their own
                   generator, seeded with (SEED, 1), so the records
                   after this one draw what they drew without it
  parse            the median ms of `serial.par_message` on the
                   roundtrip's message (of REPEATS runs) and of each key
                   parser on its file (of KEY_PARSE_REPEATS runs), and
                   the `tracemalloc` peak of `serial.par_sender_pub`
  receiver_keygen_peak_mib
                   what `tracemalloc` sees allocated while
                   `goppa._key_pair` builds the key pair of the
                   profile's first accepted (code, S, P) draw, the
                   loaded receiver secret key's, again: the reduction
                   of the parity check, the rank check of S, the
                   product S·R_free^T and the packed S·G·P; the code's
                   tables are built before it
  receiver_secret_key_peak_mib
                   what `tracemalloc` sees allocated while
                   `goppa.receiver_secret_key` builds the loaded
                   receiver secret key again from its fields: the
                   code's tables, the irreducibility check of g and the
                   reduction of the parity check included; it builds
                   no S·G·P
  peak_rss_mib     the peak RSS of the process so far; the profiles run
                   in the order given, holding one profile's keys at a
                   time

Timed pieces outside the phases are the median of REPEATS runs.  The
phases are:

    receiver keygen  fields.random_irreducible (irreducible search),
                     goppa.goppa_parity_check (parity check),
                     goppa.keygen_receiver self (mostly the untraced
                     mat_reduce of the parity check in the untraced
                     goppa._receiver_key, once per drawn code; no
                     generator matrix is built, and the column
                     scatters and packing of S·G·P, SLAB rows at a
                     time), linalg.mat_rank (its forward-pass
                     full-row-rank check of S, once per drawn code of
                     dimension k_r) and linalg.matmul (S·R_free^T on
                     packed rows, the mt pivot columns of S·G; its free
                     columns are S itself)
    receiver load    fields.poly_is_irreducible, the parity check and
                     its mat_reduce (in serial.par_receiver_sec self,
                     through the untraced goppa.receiver_secret_key)
                     and the rank check of S; the secret key holds S
                     and its information set, not S·G·P, so no product
                     is made
    sender keygen    linalg.mat_rank (the forward-pass rank of the
                     r_s x r_s square of H_sk·P, its first r_s columns,
                     once per draw whose H_V has no zero column) and
                     uuvsign.keygen_sender self (the one untraced
                     mat_reduce of H_sk·P, for A, and the untraced
                     gathers of `uuvsign.hsk_p_columns`: the square once
                     per such draw, then all of H_sk·P once); H_sk is
                     not formed and no solver is built
    sender load      serial.par_sender_sec self (unpacking H_U and H_V,
                     and the untraced gather of the square) and
                     linalg.mat_rank (the rank of the r_s x r_s square
                     alone: neither H_sk·P, A nor a solver is formed)
    sender solvers   `sk.solvers` of the loaded key: linalg.AffineSolver,
                     the reductions of H_U and H_V, which a key makes at
                     its first signature and keeps
    roundtrip        `signcrypt` of MESSAGE, `ser_message`, `par_message`
                     and `unsigncrypt` with the loaded keys of both
                     roles, whose output must equal MESSAGE.  Its rows
                     hold PKE encryption and decryption, the DEM, the
                     hashes, (de)serialisation, the signature's
                     linalg.AffineSolver.solve (a product with each
                     solver's R_free per batch of attempts) and
                     uuvsign.uuv_decode self (drawing the free values
                     and the weight check), the `vecmat` of the
                     verification under sctkem.decap (the products of
                     encryption and of the re-encryption check are
                     `linalg.xor_rows`, which is not traced, in
                     mceliece.pke_encrypt and mceliece.pke_decrypt self)
                     and goppa.decode_permuted, whose self time is the
                     untraced Berlekamp-Massey decoding

The functions are timed by the span tracer of perfbench/spans.py.  File
sizes and estimator rows need not agree: files carry a header and store
five trits per byte where the formulas count log2(3) bits per trit, and
the sender secret key formula counts S, H_sk and a dense P, where the
file holds only H_U, H_V, perm and scalars.

Run from the repository root with `src` on PYTHONPATH:

    PYTHONPATH=src python scripts/bench.py --out BENCH.json
    PYTHONPATH=src python scripts/bench.py paper-l1
"""

import os

# One BLAS thread, as in the benchmark: the products are timed, and
# threads would contend on a small machine.  The CLI children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import sys
import tempfile
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from cbsc import cwencode, estimator, fields, goppa, hybrid, linalg, sctkem, serial, uuvsign
from cbsc.params import setup

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402

SEED = 0
SIGNATURES = 20
DECODES = 50
REPEATS = 11
KEY_PARSE_REPEATS = 3
MESSAGE = bytes(range(256)) * 4

# a profile name or file for `setup` and the CLI
BENCH_PROFILES = {
    "toy": "toy",
    "l1-20": str(ROOT / "perfbench" / "l1-20.profile"),
    "l1-8": str(ROOT / "scripts" / "l1-8.profile"),
    "paper-l1": "paper-l1",
}

# the files of the CLI sequence and their sha256 per bench profile, as
# written at seeds 0a, 0b and 0c
CLI_FILES = ("receiver.pub", "receiver.sec", "sender.pub", "sender.sec", "msg.cbsc")
CLI_SHA256 = {
    "toy": {
        "receiver.pub": "47febc81e1e73e484a71a6fd65757ce6c47b007967223ba34dd1e8ab6c743cb2",
        "receiver.sec": "5d1bdb77ee748138f4797644d21dd00e9edc04e9b2d7784116b13bf33c505746",
        "sender.pub": "f8e960aef3e3ecda959656fa69b579f232da2c6de4b27ab6f0d0ce077ac52a78",
        "sender.sec": "81af7bf1548bbd839b3503bb5816d749cb1c80e67cb29a9a5feb7a0850875c1a",
        "msg.cbsc": "c95bad6091b80311233c16eca712f476b543020e213542e79dc4186fb4eeeca2",
    },
    "l1-20": {
        "receiver.pub": "23dd16f20e440fe8667dc094fce489674e78c6a1740273f2ca7de8dffad58410",
        "receiver.sec": "8c9aaf60b366060f92442b3996582c24b9aa22660e121167442215b6189c0ec6",
        "sender.pub": "491786bdb05fd5d48b42c58c6119ce61332755326c02c14a68027d114798fef4",
        "sender.sec": "fa6b4b91a17259263d15b730d948dd63aca2ed2ab113ba968570fd86dec5de7b",
        "msg.cbsc": "c21ceea927fda7f5f33532a019a2442aee16a55e8883547f72b9bf340f642878",
    },
    "l1-8": {
        "receiver.pub": "3578ae4cf6a9266a303529fe0dbf2831eb99f4134bbd4a63f795807ca92c3bbf",
        "receiver.sec": "9dff39519b5295778e1bde12d5e4ddd6ab4c7db78a05d1864c186c9fc022930b",
        "sender.pub": "035069b92849ea53532e04fb6743bb003dffd6787415a10894d960f7ff6292cb",
        "sender.sec": "56e385288f0a603e4331e4b7b21f01fb2a6dd7929e7866f0392f261d793f9aaa",
        "msg.cbsc": "a2e69f01a203f8f19d1ee7e11ea64acc18ef66cce6782902fecec4ecf3ed2d12",
    },
    "paper-l1": {
        "receiver.pub": "e4399b3ef672dfce016e816d9df99920539c7d3948fc4e1acccb8b3e1ff185b5",
        "receiver.sec": "0ac49920d76cd963241cbcd5c4b2c66cbe43dc7f374ae32e78b75629ff4619b7",
        "sender.pub": "c790cf4c712e9d75d17907f2192ea3a831d2cf3a8eae2862f54fbd7765b38f53",
        "sender.sec": "fe3f5c06e0e89540c3b70def47d52b29acbae48806a8c5dbbf924dbaa9ba0e21",
        "msg.cbsc": "16f6d85b6e230940ccdcf95fab07f62fbee78094d49db74e682c4938e282a5a8",
    },
}


def median_ms(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * median(times)


def peak_mib(fn) -> float:
    """The peak that `tracemalloc` sees allocated while fn runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TracedRuns:
    """One span-tracer session: installed on entry and uninstalled on
    exit.  The tracer patches module attributes, so the runs reach cbsc
    through its modules, where its wrappers are seen."""

    def __init__(self):
        self.tracer = spans.Tracer()
        self.seconds = {}  # run name -> wall s

    def __enter__(self):
        self.tracer.install()
        return self

    def __exit__(self, *exc):
        self.tracer.uninstall()

    def run(self, name, fn):
        """fn() under a root span named name, timed; returns its result."""
        t0 = perf_counter()
        with self.tracer.root(name):
            out = fn()
        self.seconds[name] = perf_counter() - t0
        return out

    def aggregate(self) -> dict:
        """`spans.aggregate` of every run, keyed by the run's name."""
        return spans.aggregate(self.tracer.spans, {span[4]: 1.0 for span in self.tracer.spans})


@contextmanager
def solve_rows():
    """Counts, in the yielded [rows], the rows of free values that
    `linalg.AffineSolver.solve` is given: two per signing attempt, one
    per half."""
    solve, rows = linalg.AffineSolver.solve, [0]

    def counted(solver, w, free_values):
        rows[0] += len(free_values)
        return solve(solver, w, free_values)
    linalg.AffineSolver.solve = counted
    try:
        yield rows
    finally:
        linalg.AffineSolver.solve = solve


def run_phases(params, rng) -> tuple[dict, dict, bytes, object, object]:
    """The six traced phases; returns their record, the key blobs, the
    roundtrip's message and the loaded receiver and sender secret
    keys."""
    with TracedRuns() as traced:
        sk_r, pk_r = traced.run("receiver keygen",
                                lambda: sctkem.keygen_receiver_params(params, rng))
        blobs = {"receiver_sec": serial.ser_receiver_sec(params, sk_r),
                 "receiver_pub": serial.ser_receiver_pub(params, pk_r)}
        del sk_r, pk_r  # the loaded keys are used, and one copy is held
        (_, sk_r), (_, pk_r) = traced.run(
            "receiver load", lambda: (serial.par_receiver_sec(blobs["receiver_sec"]),
                                      serial.par_receiver_pub(blobs["receiver_pub"])))
        sk_s, pk_s = traced.run("sender keygen",
                                lambda: sctkem.keygen_sender_params(params, rng))
        blobs |= {"sender_sec": serial.ser_sender_sec(params, sk_s),
                  "sender_pub": serial.ser_sender_pub(params, pk_s)}
        del sk_s, pk_s
        (_, sk_s), (_, pk_s) = traced.run(
            "sender load", lambda: (serial.par_sender_sec(blobs["sender_sec"]),
                                    serial.par_sender_pub(blobs["sender_pub"])))
        traced.run("sender solvers", lambda: sk_s.solvers)
        wire = []

        def roundtrip():
            sc = hybrid.signcrypt(params, sk_s, pk_r, MESSAGE, rng)
            wire.append(serial.ser_message(params, sc))
            _, sc = serial.par_message(wire[0])
            return hybrid.unsigncrypt(params, sk_r, pk_s, sc)
        if traced.run("roundtrip", roundtrip) != MESSAGE:
            raise RuntimeError("the roundtrip returned other bytes")
    # {phase: {(span name, caller): [calls, inclusive s, self s]}}
    tables = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for (phase, _top, name, caller), values in traced.aggregate().items():
        if name != phase:
            row = tables[phase][name, caller]
            for k, v in enumerate(values):
                row[k] += v
    record = {}
    for title, seconds in traced.seconds.items():
        steps = sorted(((*key, *v) for key, v in tables[title].items()), key=lambda r: -r[4])
        record[title] = {"s": seconds,
                         "steps": [{"name": name, "caller": caller, "calls": calls,
                                    "incl_s": incl, "self_s": self_s}
                                   for name, caller, calls, incl, self_s in steps]}
    return record, blobs, wire[0], sk_r, sk_s


def decoder(params, sk, pk) -> dict:
    """The `decoder` record of the module docstring."""
    rng = np.random.default_rng((SEED, 1))
    errors = np.zeros((DECODES, params.n_r), dtype=np.uint8)
    for error in errors:
        error[rng.choice(params.n_r, size=params.t, replace=False)] = 1
    msgs = rng.integers(0, 2, size=(DECODES, params.k_tilde), dtype=np.uint8)
    words = linalg.matmul(msgs, pk.G, 2) ^ errors
    ms = defaultdict(list)
    for word, error in zip(words, errors):
        inner = linalg.mono_apply_inv(word, sk.P, 2)
        for name, decode, want in (
                ("decode_permuted", lambda: goppa.decode_permuted(sk, word), error),
                ("patterson_decode", lambda: goppa.patterson_decode(sk.code, inner),
                 linalg.mono_apply_inv(error, sk.P, 2))):
            t0 = perf_counter()
            got = decode()
            ms[name].append(1e3 * (perf_counter() - t0))
            if got is None or not np.array_equal(got, want):
                raise RuntimeError(f"{name} did not return the error drawn")
    nones = dict.fromkeys(ms, 0)
    for word in rng.integers(0, 2, size=(DECODES, params.n_r), dtype=np.uint8):
        got = goppa.decode_permuted(sk, word)
        want = goppa.patterson_decode(sk.code, linalg.mono_apply_inv(word, sk.P, 2))
        if (got is None) != (want is None) or (
                got is not None and not np.array_equal(got, linalg.mono_apply(want, sk.P, 2))):
            raise RuntimeError("decode_permuted and patterson_decode disagree")
        nones["decode_permuted"] += got is None
        nones["patterson_decode"] += want is None
    return {"decodes": DECODES} | {name: {"median_ms": median(v), "max_ms": max(v),
                                          "uniform_none": nones[name]}
                                   for name, v in ms.items()}


def parse_record(blobs: dict, wire: bytes) -> dict:
    """The `parse` record of the module docstring."""
    out = {"par_message_ms": median_ms(lambda: serial.par_message(wire))}
    for key, blob in blobs.items():
        parser = getattr(serial, f"par_{key}")
        out[f"par_{key}_ms"] = median_ms(lambda: parser(blob), KEY_PARSE_REPEATS)
    out["par_sender_pub_peak_mib"] = peak_mib(
        lambda: serial.par_sender_pub(blobs["sender_pub"]))
    return out


def run_cli(*args) -> dict:
    """One `cbsc` command in a child process: its exit code, wall time
    and peak RSS.  Linux starts a child's ru_maxrss at its parent's peak
    RSS, copied at exec, so the reading is the child's own only while
    this process is smaller than the child: `main` runs the CLI before
    it benches any profile."""
    argv = [sys.executable, "-m", "cbsc.cli", *map(str, args)]
    t0 = perf_counter()
    _, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
    # ru_maxrss is in KiB on Linux
    return {"exit": os.waitstatus_to_exitcode(status), "s": perf_counter() - t0,
            "peak_rss_mib": usage.ru_maxrss / 1024}


def cli_sequence(name: str, profile) -> dict:
    """The CLI sequence of the module docstring; raises on an unexpected
    exit code, output or digest."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "msg.bin").write_bytes(MESSAGE)

        def cbsc_cli(command, expect, *args):
            rows.append({"command": command} | run_cli(*args))
            if rows[-1]["exit"] != expect:
                raise RuntimeError(f"cbsc {command} exited {rows[-1]['exit']}, not {expect}")
        for role, seed in (("receiver", "0a"), ("sender", "0b")):
            cbsc_cli(f"keygen {role}", 0, "keygen", "--role", role, "--profile", profile,
                     "--out", tmp / role, "--seed", seed)
        cbsc_cli("signcrypt", 0, "signcrypt", "--sender-sec", tmp / "sender.sec",
                 "--receiver-pub", tmp / "receiver.pub", "--in", tmp / "msg.bin",
                 "--out", tmp / "msg.cbsc", "--seed", "0c")
        keys = ("--receiver-sec", tmp / "receiver.sec", "--sender-pub", tmp / "sender.pub")
        cbsc_cli("unsigncrypt", 0, "unsigncrypt", *keys, "--in", tmp / "msg.cbsc",
                 "--out", tmp / "msg.out")
        if (tmp / "msg.out").read_bytes() != MESSAGE:
            raise RuntimeError("cbsc unsigncrypt returned other bytes")
        blob = bytearray((tmp / "msg.cbsc").read_bytes())
        blob[-1] ^= 1
        (tmp / "bad.cbsc").write_bytes(blob)
        cbsc_cli("unsigncrypt tampered", 4, "unsigncrypt", *keys, "--in", tmp / "bad.cbsc",
                 "--out", tmp / "bad.out")
        digests = {f: hashlib.sha256((tmp / f).read_bytes()).hexdigest() for f in CLI_FILES}
    if digests != CLI_SHA256.get(name, digests):
        raise RuntimeError(f"the CLI sequence of {name} wrote other bytes: {digests}")
    return {"commands": rows, "sha256": digests}


def elimination(params, sk_r, sk) -> dict:
    """The `elimination` record of the module docstring."""
    out = {}
    for name, (call, p, M) in {
        "receiver parity check": (linalg.mat_reduce, 2, goppa.goppa_parity_check(sk_r.code)),
        "S": (linalg.mat_rank, 2, linalg.unpack_rows(sk_r.S_rows, params.k_r)),
        "sender square": (linalg.mat_rank, 3,
                          uuvsign.hsk_p_columns(sk.H_U, sk.H_V, sk.P, params.r_s)),
        "H_U": (linalg.mat_reduce, 3, sk.H_U),
        "H_V": (linalg.mat_reduce, 3, sk.H_V),
        "H_sk·P": (linalg.mat_reduce, 3, uuvsign.hsk_p_columns(sk.H_U, sk.H_V, sk.P, params.n_s)),
    }.items():
        out[name] = {"call": call.__name__, "p": p, "shape": list(M.shape),
                     "median_ms": median_ms(lambda: call(M, p), KEY_PARSE_REPEATS)}
    return out


def batch_products(sk, rng) -> dict:
    out = {}
    solver_U, solver_V = sk.solvers
    for half, solver in (("V", solver_V), ("U", solver_U)):
        diff = rng.integers(0, 3, size=(uuvsign.BATCH, len(solver.free)), dtype=np.uint8)
        R_T, diff32 = solver.R_free.T, diff.astype(np.float32)
        out[half] = {"shape": [*diff.shape, R_T.shape[1]],
                     "product_ms": median_ms(lambda: linalg.matmul(diff, R_T, 3)),
                     "blas_ms": median_ms(lambda: diff32 @ R_T)}
    return out


def irreducible(params, g) -> dict:
    """The `irreducible` record of the module docstring."""
    is_irreducible, candidates, ms = fields.poly_is_irreducible, [], []

    def counted(p, m):
        candidates[-1] += 1
        return is_irreducible(p, m)
    fields.poly_is_irreducible = counted
    try:
        for i in range(REPEATS):
            candidates.append(0)
            rng = np.random.default_rng((SEED, 2, i))
            t0 = perf_counter()
            fields.random_irreducible(params.t, params.m, rng)
            ms.append(1e3 * (perf_counter() - t0))
    finally:
        fields.poly_is_irreducible = is_irreducible
    return {"candidates": candidates, "ms": ms, "ms_per_search": sum(ms) / len(ms),
            "load_check_ms": median_ms(lambda: is_irreducible(g, params.m))}


def signatures(params, sk, rng) -> dict:
    attempts, ms, failed = [], [], 0
    for _ in range(SIGNATURES):
        y = rng.integers(0, 3, size=params.r_s, dtype=np.uint8)
        with solve_rows() as rows:
            t0 = perf_counter()
            try:
                uuvsign.sign_syndrome(sk, y, params.omega, rng)
            except uuvsign.RetryExhausted:
                failed += 1
            ms.append(1e3 * (perf_counter() - t0))
        attempts.append(rows[0] // 2)
    return {"count": SIGNATURES, "failed": failed, "attempts": attempts,
            "mean_attempts": float(np.mean(attempts)), "median_attempts": median(attempts),
            "median_ms": median(ms), "max_ms": max(ms)}


def bench(params, rng) -> dict:
    record = {"params": {f: getattr(params, f) for f in
                         ("n_s", "k_U", "k_V", "omega", "m", "n_r", "t", "k_tilde")}}
    record["phases"], blobs, wire, sk_r, sk = run_phases(params, rng)
    record["parse"] = parse_record(blobs, wire)
    record["decoder"] = decoder(params, sk_r, serial.par_receiver_pub(blobs["receiver_pub"])[1])
    S, code = linalg.unpack_rows(sk_r.S_rows, params.k_r), sk_r.code
    record["receiver_keygen_peak_mib"] = peak_mib(lambda: goppa._key_pair(code, S, sk_r.P))
    record["receiver_secret_key_peak_mib"] = peak_mib(lambda: goppa.receiver_secret_key(
        code.m, code.t, code.g, code.support, S, sk_r.P))
    record["elimination"] = elimination(params, sk_r, sk)
    record["code_tables_ms"] = {
        "GoppaCode": median_ms(lambda: goppa.GoppaCode(code.m, code.t, code.g, code.support)),
        "goppa_parity_check": median_ms(lambda: goppa.goppa_parity_check(code))}
    record["irreducible"] = irreducible(params, code.g)
    del sk_r, code, S
    record["batch_products"] = batch_products(sk, rng)
    record["hsk_p_columns_ms"] = median_ms(
        lambda: uuvsign.hsk_p_columns(sk.H_U, sk.H_V, sk.P, params.n_s))
    bits = rng.integers(0, 2, size=params.kappa, dtype=np.uint8)
    record["phi_ms"] = median_ms(lambda: cwencode.phi(bits, params.n_r, params.t))
    record["signatures"] = signatures(params, sk, rng)
    formula = {r.name: r.value for r in estimator.sizes(params)}
    record["sizes"] = [{"key": key, "file_bytes": len(blob),
                        "estimator_bits": formula[key + "_bits"]} for key, blob in blobs.items()]
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def report(name: str, rec: dict) -> None:
    print(f"\n== {name}: " + " ".join(f"{k}={v}" for k, v in rec["params"].items())
          + f", seed {SEED}")
    print(f"\n  {'cbsc command':22s} {'exit':>4s} {'s':>7s} {'peak RSS MiB':>13s}")
    for row in rec["cli"]["commands"]:
        print(f"  {row['command']:22s} {row['exit']:4d} {row['s']:7.2f} "
              f"{row['peak_rss_mib']:13.1f}")
    print("  sha256: " + ", ".join(f"{f} {d[:12]}…" for f, d in rec["cli"]["sha256"].items()))
    for title, ph in rec["phases"].items():
        print(f"\n{title}: {ph['s']:.3f} s")
        print(f"  {'step':30s} {'caller':30s} {'calls':>6s} {'incl ms':>10s} {'self ms':>10s}")
        for st in ph["steps"]:
            print(f"  {st['name']:30s} {st['caller']:30s} {st['calls']:6d} "
                  f"{1e3 * st['incl_s']:10.2f} {1e3 * st['self_s']:10.2f}")
    print()
    for half, bp in rec["batch_products"].items():
        print(f"batch product {half} {bp['shape']}: {bp['product_ms']:.3f} ms "
              f"(BLAS alone {bp['blas_ms']:.3f} ms)")
    print(f"\n  {'elimination':22s} {'call':10s} {'p':>2s} {'shape':>12s} {'median ms':>10s}")
    for name, el in rec["elimination"].items():
        print(f"  {name:22s} {el['call']:10s} {el['p']:2d} {'x'.join(map(str, el['shape'])):>12s} "
              f"{el['median_ms']:10.2f}")
    tables = rec["code_tables_ms"]
    print(f"receiver code tables: GoppaCode {tables['GoppaCode']:.2f} ms, "
          f"goppa_parity_check {tables['goppa_parity_check']:.2f} ms")
    irr = rec["irreducible"]
    print(f"{len(irr['ms'])} irreducible searches: {sum(irr['candidates'])} candidates, "
          f"{irr['ms_per_search']:.2f} ms per search; load check of g "
          f"{irr['load_check_ms']:.2f} ms")
    print(f"hsk_p_columns of all n_s columns: {rec['hsk_p_columns_ms']:.2f} ms; "
          f"phi: {rec['phi_ms']:.3f} ms")
    sig = rec["signatures"]
    print(f"{sig['count']} signatures, {sig['failed']} failed: attempts mean "
          f"{sig['mean_attempts']:.1f}, median {sig['median_attempts']}, max "
          f"{max(sig['attempts'])}; median {sig['median_ms']:.1f} ms, max {sig['max_ms']:.1f} ms")
    dec = rec["decoder"]
    print(f"\n{dec['decodes']} decodings of weight-t errors, ms:")
    print(f"  {'decoder':16s} {'median':>8s} {'max':>8s}")
    for name, row in dec.items():
        if name != "decodes":
            print(f"  {name:16s} {row['median_ms']:8.3f} {row['max_ms']:8.3f}"
                  f"   None on {row['uniform_none']} of {dec['decodes']} uniform words")
    parse = rec["parse"]
    print("\nparse, median ms: " + ", ".join(
        f"{name[:-3]} {ms:.3f}" for name, ms in parse.items() if name.endswith("_ms"))
        + f"; par_sender_pub allocates {parse['par_sender_pub_peak_mib']:.1f} MiB")
    print(f"\n{'key':14s} {'file bytes':>11s} {'file bits':>11s} {'estimator bits':>15s}")
    for s in rec["sizes"]:
        print(f"{s['key']:14s} {s['file_bytes']:11d} {8 * s['file_bytes']:11d} "
              f"{s['estimator_bits']:15.0f}")
    print(f"\nreceiver keygen (_key_pair) allocates {rec['receiver_keygen_peak_mib']:.1f} MiB; "
          f"receiver_secret_key allocates {rec['receiver_secret_key_peak_mib']:.1f} MiB; "
          f"peak RSS so far {rec['peak_rss_mib']:.0f} MiB")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the records to this JSON file")
    ap.add_argument("profiles", nargs="*", default=list(BENCH_PROFILES))
    args = ap.parse_args(argv)
    out = {"seed": SEED, "python": platform.python_version(), "numpy": np.__version__,
           "machine": platform.machine(), "cpus": os.cpu_count(),
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "profiles": {}}
    profiles = {name: BENCH_PROFILES.get(name, name) for name in args.profiles}
    cli = {name: cli_sequence(name, profile) for name, profile in profiles.items()}
    for name, profile in profiles.items():
        rec = out["profiles"][name] = bench(setup(profile), np.random.default_rng(SEED))
        rec["cli"] = cli[name]
        report(name, rec)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The closed-loop signcryption workloads and their correctness gate.

One process, one client, no threads: each call waits for the previous
one, so no work ever waits in a queue.  A run does a fixed number of
operations, ``round(seconds * ops_per_second)``, so two runs at one seed
do identical work; ``--seconds`` sizes a run, it never cuts one short.
Every input comes from ``--seed``.

Times are reported at a reference host speed.  A shared 2-vCPU VM
(Intel Xeon, 2.1 GHz) runs the same code up to 1.5x slower for minutes
at a time, which no repetition inside a run can average out: a warm
L1/20 unsigncrypt and a toy 256 KiB unsigncrypt, alternated for 200 s,
had 20-second medians from 146 to 218 ms and from 14.4 to 23.7 ms.  So a
fixed pure-Python kernel with the workload's dominant loop shape runs
before every timed activity, and each activity's time is multiplied by
``REF_MS`` over the mean kernel time just before and just after it.  Over those same 200 s
the scaled medians stayed within 2.8% (L1/20, `arithmetic_reference`)
and 3.4% (toy, an 8 KiB `byte_xor_reference`) of each other.  A scaled
time is what the activity would take on a host where the kernel takes
``REF_MS``; the raw median kernel time is printed with each run.  The
kernels never change, so parent and child commits are scaled alike.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from cbsc import hybrid, params, sctkem, serial
from cbsc.uuvsign import RetryExhausted

import spans

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


# Reference host speed: reported times are scaled to a host on which the
# workload's reference kernel takes this long.
REF_MS = 2.0

_REF_A = bytes(range(256)) * 128
_REF_B = bytes(reversed(range(256))) * 128


def byte_xor_reference() -> int:
    """A bytewise XOR generator over 32 KiB, the loop shape of the DEM."""
    return len(bytes(a ^ b for a, b in zip(_REF_A, _REF_B)))


def arithmetic_reference() -> int:
    """Bit-serial GF(2^10) multiplies, big-integer arithmetic and an 8 KiB
    bytewise XOR: the loop shapes of Patterson decoding and UUV signing."""
    acc = 0
    for b in range(1, 400):
        r, x, y = 0, 0x2AB, b
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x >> 10:
                x ^= 0x409
        acc ^= r
    x = 12345
    for _ in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc ^= x >> 3
    return acc ^ len(bytes(a ^ b for a, b in zip(_REF_A[:8192], _REF_B[:8192])))


@dataclass(frozen=True)
class Workload:
    profile: str           # argument to params.setup
    payload_bytes: int     # one size per workload, never a mix
    ops_per_second: float  # operations per requested second
    warmup: int            # untimed operations before the measured ones
    setups: int            # set-ups timed for setup_s; the first one's keys are used
    reference: Callable[[], object]  # kernel with the workload's dominant loop shape


# Why each workload exists:
# - l1-20-stream: warm L1/20 keys; Patterson decoding (goppa, fields) and
#   uuv_decode dominate, so decoder and signer changes show here.
# - toy-bulk: toy keys make the KEM negligible, so the DEM, the keystream
#   and message framing dominate; a Patterson change should not move it.
WORKLOADS = {
    "l1-20-stream": Workload(str(HERE / "l1-20.profile"), 1024, 9.6, 2, 3,
                             arithmetic_reference),
    "toy-bulk": Workload("toy", 256 * 1024, 12.0, 5, 24, byte_xor_reference),
}

# Signcrypt calls per roundtrip before it counts as failed.  A rare toy
# sender key has syndromes with no reachable weight-omega solution;
# `uuv_decode` then raises `RetryExhausted` after its 10,000 attempts.  Signcrypt is randomised, so the client calls it again, as a
# CLI user would with another seed.  The failed calls stay in the timed
# signcrypt and are counted in `hybrid.signcrypt_retries`.
SIGNCRYPT_TRIES = 3

# Independent random streams derived from the seed.
SETUP_STREAM, PAYLOAD_STREAM, WARMUP_STREAM, OPS_STREAM, TAMPER_STREAM = range(5)


@dataclass
class Keys:
    sk_r: object
    pk_r: object
    sk_s: object
    pk_s: object
    receiver_sec: bytes
    receiver_pub: bytes
    sender_sec: bytes
    sender_pub: bytes


def make_keys(P, rng) -> Keys:
    """Both key pairs and their serialisations."""
    sk_r, pk_r = sctkem.keygen_receiver_params(P, rng)
    sk_s, pk_s = sctkem.keygen_sender_params(P, rng)
    return Keys(sk_r, pk_r, sk_s, pk_s,
                serial.ser_receiver_sec(P, sk_r), serial.ser_receiver_pub(P, pk_r),
                serial.ser_sender_sec(P, sk_s), serial.ser_sender_pub(P, pk_s))


def key_check(keys: Keys) -> list[bool]:
    """Load each key from its bytes; whether it re-serialises to the same bytes."""
    pairs = ((serial.par_receiver_sec, serial.ser_receiver_sec, keys.receiver_sec),
             (serial.par_receiver_pub, serial.ser_receiver_pub, keys.receiver_pub),
             (serial.par_sender_sec, serial.ser_sender_sec, keys.sender_sec),
             (serial.par_sender_pub, serial.ser_sender_pub, keys.sender_pub))
    return [ser(*parse(data)) == data for parse, ser, data in pairs]


def roundtrip(P, keys: Keys, payload: bytes, rng):
    """signcrypt -> ser_message -> par_message -> unsigncrypt.

    Returns (wire bytes, plaintext or None, signcrypt s, unsigncrypt s,
    signcrypt retries).
    """
    t0 = perf_counter()
    for retries in range(SIGNCRYPT_TRIES):
        try:
            sc = hybrid.signcrypt(P, keys.sk_s, keys.pk_r, payload, rng)
            break
        except RetryExhausted:
            if retries == SIGNCRYPT_TRIES - 1:
                raise
    wire = serial.ser_message(P, sc)
    t1 = perf_counter()
    _, sc = serial.par_message(wire)
    out = hybrid.unsigncrypt(P, keys.sk_r, keys.pk_s, sc)
    t2 = perf_counter()
    return wire, out, t1 - t0, t2 - t1, retries


def tamper_probes(P, keys: Keys, wire: bytes, rng) -> list[bool]:
    """Alter one message four ways; whether each altered copy was rejected.

    One flipped bit in the DEM ciphertext C, in c0 and in c1, and one
    nonzero trit of e changed to the other nonzero value, so the weight
    check passes and the signature check must catch it.
    """
    rejected = []
    for target in ("C", "c0", "c1", "e"):
        _, sc = serial.par_message(wire)
        if target == "C":
            C = bytearray(sc.C)
            C[int(rng.integers(len(C)))] ^= 1 << int(rng.integers(8))
            sc.C = bytes(C)
        elif target == "e":
            i = int(rng.choice(np.flatnonzero(sc.E.e)))
            sc.E.e[i] = 3 - sc.E.e[i]
        else:
            bits = getattr(sc.E.c, target)
            bits[int(rng.integers(len(bits)))] ^= 1
        rejected.append(hybrid.unsigncrypt(P, keys.sk_r, keys.pk_s, sc) is None)
    return rejected


class Run:
    """One workload at one seed; counts every checked operation.

    With a tracer, everything is traced; then the first half of the
    measured operations runs again untraced, on the same inputs, which
    gives the tracing overhead.
    """

    def __init__(self, name: str, seed: int, seconds: int, tracer):
        self.name, self.seed = name, seed
        self.w = WORKLOADS[name]
        self.n_ops = max(1, round(seconds * self.w.ops_per_second))
        self.P = params.setup(self.w.profile)
        self.tracer = tracer
        self.attempted = 0
        self.retries = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.payload = self.rng(PAYLOAD_STREAM).bytes(self.w.payload_bytes)
        self.host: list[float] = []          # reference kernel times, s
        self.root_sample: dict[int, int] = {}  # root span id -> its host sample

    def rng(self, stream: int, i: int = 0):
        return np.random.default_rng((self.seed, stream, i))

    @contextlib.contextmanager
    def activity(self, name: str):
        """One timed activity: a host sample, then a root span if tracing.

        Yields the index of the host sample; see `scale`."""
        t0 = perf_counter()
        self.w.reference()
        self.host.append(perf_counter() - t0)
        sample = len(self.host) - 1
        if self.tracer is None:
            yield sample
            return
        with self.tracer.root(name) as root:
            self.root_sample[root] = sample
            yield sample

    def scale(self, sample: int) -> float:
        """Factor to the reference host speed, from the kernel times just
        before and just after the activity of this host sample."""
        return REF_MS / 1e3 / statistics.mean(self.host[sample: sample + 2])

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# FAILED: {what}", file=sys.stderr)

    def setup(self) -> tuple[Keys, list[tuple[int, float]]]:
        """Keygen, serialisation, and loading every key back from its bytes,
        once per set-up seed.  Returns the first keys and (sample, s) per set-up."""
        first, times = None, []
        for i in range(self.w.setups):
            rng = self.rng(SETUP_STREAM, i)
            with self.activity(spans.SETUP) as sample:
                t0 = perf_counter()
                keys = make_keys(self.P, rng)
                same = key_check(keys)
                times.append((sample, perf_counter() - t0))
            for ok in same:
                self.check(ok, "key bytes do not re-serialise identically")
            if first is None:
                first = keys
        return first, times

    def ops(self, keys: Keys, n: int, stream: int, root: str):
        """n checked roundtrips: a list of (wire sha256, host sample,
        signcrypt s, unsigncrypt s, signcrypt retries), and the last wire bytes."""
        rng = self.rng(stream)
        done, wire = [], b""
        gc.collect()
        for i in range(n):
            try:
                with self.activity(root) as sample:
                    wire, out, ts, tu, retries = roundtrip(self.P, keys, self.payload, rng)
            except Exception:
                traceback.print_exc()
                self.check(False, f"{root} {i} raised")
                continue
            self.check(out == self.payload, f"{root} {i} did not return its plaintext")
            done.append((hashlib.sha256(wire).digest(), sample, ts, tu, retries))
        return done, wire

    def execute(self) -> dict[str, tuple[float, str]]:
        keys, setups = self.setup()
        for data in (keys.receiver_sec, keys.receiver_pub, keys.sender_sec, keys.sender_pub):
            self.digest.update(data)
        warm, _ = self.ops(keys, self.w.warmup, WARMUP_STREAM, "bench.warmup")
        measured, last_wire = self.ops(keys, self.n_ops, OPS_STREAM, spans.OP)
        for op in warm + measured:
            self.digest.update(op[0])
        self.retries = sum(op[4] for op in measured)
        with self.activity("bench.tamper"):
            rejected = tamper_probes(self.P, keys, last_wire, self.rng(TAMPER_STREAM))
        for ok in rejected:
            self.check(ok, "a tampered message was accepted")
        print(f"# host: {self.w.reference.__name__} median "
              f"{1e3 * statistics.median(self.host):.3f} ms (REF_MS {REF_MS})")
        if self.tracer:
            return self.traced_metrics(keys, measured)
        return self.end_to_end(measured, setups)

    def end_to_end(self, measured, setups) -> dict[str, tuple[float, str]]:
        sc_ms = [1e3 * ts * self.scale(s) for _, s, ts, _, _ in measured]
        uc_ms = [1e3 * tu * self.scale(s) for _, s, _, tu, _ in measured]
        n, busy = len(sc_ms), (sum(sc_ms) + sum(uc_ms)) / 1e3
        print(f"# samples={n} setups={len(setups)}")
        return {
            "roundtrips_per_s": (n / busy, "1/s"),
            "payload_mb_per_s": (n * len(self.payload) / 1e6 / busy, "MB/s"),
            "signcrypt_ms.p50": (float(np.percentile(sc_ms, 50)), "ms"),
            "signcrypt_ms.p90": (float(np.percentile(sc_ms, 90)), "ms"),
            "unsigncrypt_ms.p50": (float(np.percentile(uc_ms, 50)), "ms"),
            "unsigncrypt_ms.p90": (float(np.percentile(uc_ms, 90)), "ms"),
            "setup_s": (statistics.median(t * self.scale(s) for s, t in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }

    def traced_metrics(self, keys, measured) -> dict[str, tuple[float, str]]:
        tracer, self.tracer = self.tracer, None
        tracer.uninstall()
        # The first half of the operations again, untraced: the overhead base.
        again, _ = self.ops(keys, max(1, self.n_ops // 2), OPS_STREAM, spans.OP)
        measured = measured[:len(again)]
        self.check([op[0] for op in measured] == [op[0] for op in again],
                   "the untraced pass did not reproduce the traced pass's wire bytes")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{self.name}-{self.seed}.jsonl"
        tracer.write(path)
        print(f"# spans={len(tracer.spans)} written to {path.relative_to(HERE.parent)}")

        def per_op(ops):
            return sum((ts + tu) * self.scale(s) for _, s, ts, tu, _ in ops) / len(ops)

        scale = {root: self.scale(s) for root, s in self.root_sample.items()}
        metrics = spans.layer_metrics(spans.aggregate(tracer.spans, scale))
        # The self times below a root sum to the durations of its children.
        half = sorted(r for r in self.root_sample if tracer.spans[r][0] == spans.OP)
        half = set(half[:len(again)])
        layer_self = sum((t1 - t0) * scale[root]
                         for _, t0, t1, parent, root in tracer.spans if parent in half)
        metrics["trace.layer_self_ms"] = (1e3 * layer_self / len(half), "ms")
        metrics["trace.untraced_op_ms"] = (1e3 * per_op(again), "ms")
        metrics["trace.overhead"] = (per_op(measured) / per_op(again) - 1, "ratio")
        metrics["hybrid.signcrypt_retries"] = (self.retries, "count")
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    run = Run(args.workload, args.seed, args.seconds, tracer)
    metrics = run.execute()
    print(f"# workload={args.workload} seed={args.seed} ops={run.n_ops} "
          f"error_rate={run.failed / run.attempted:g} "
          f"signcrypt_retries={run.retries} "
          f"wire_sha256={run.digest.hexdigest()}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0

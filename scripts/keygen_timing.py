#!/usr/bin/env python3
"""Per-step times of key generation, key loading and signing attempts,
with key sizes and the peak RSS.

Usage: keygen_timing.py PROFILE     (a profile name or a profile file)

For each role, generates a key pair at a fixed seed, serialises it and
loads both keys back from their bytes.  Then the loaded sender key runs
the signer's decoder, `uuv_decode`, on a random word with at most
SIGN_ATTEMPTS attempts, and the ms per attempt are printed.  The decoder
runs its attempts in batches, one row of free values per attempt and
half, so the attempts are counted as the rows that `uuvsign._free_values`
draws, halved.  Every traced function called inside
each of these five phases is listed with its call count, its inclusive
time and its self time (inclusive minus traced callees).  The steps of
interest are:

    receiver keygen  fields.random_irreducible (irreducible search),
                     goppa.goppa_parity_check (parity check),
                     goppa.generator_matrix self (kernel),
                     linalg.mat_rank (the full-row-rank check of S in
                     goppa.receiver_secret_key, once per drawn S),
                     linalg.matmul (S·G over the mt columns of G that
                     are not unit columns; the others are gathered
                     from S)
    receiver load    fields.poly_is_irreducible, the parity check, the
                     kernel, the rank check of S and S·G again
    sender keygen    uuvsign.keygen_sender self (one untraced
                     mat_reduce of H_sk·P per draw whose H_V has no
                     zero column, H_sk built from the drawn H_U and
                     H_V: the pivot check and A),
                     linalg.AffineSolver (the two solvers)
    sender load      serial.par_sender_sec self (unpacking H_U and H_V),
                     linalg.mat_rank (the rank of the first r_s columns
                     of H_sk·P; A is not recomputed), linalg.AffineSolver
    signing attempts linalg.AffineSolver.solve (a product with each
                     solver's R_free per batch), uuvsign.uuv_decode self
                     (drawing the free values and the weight check)

The functions are timed by the span tracer of perfbench/spans.py.  Then
the serialised key sizes are printed next to the `estimator.sizes` rows
they correspond to.  The two need not agree: files carry a header and
store five trits per byte where the formulas count log2(3) bits per
trit, and the sender secret key formula counts S, H_sk and a dense P,
where the file holds only H_U, H_V, perm and scalars.  Last comes the
peak RSS of the process, which holds one sender key at a time.

Run from anywhere with `src` on PYTHONPATH:

    PYTHONPATH=src python scripts/keygen_timing.py perfbench/l1-20.profile
"""

import os

# One BLAS thread, as in the benchmark: the products are timed, and
# threads would contend on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import resource
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from cbsc import estimator, serial, uuvsign
from cbsc.params import setup
from cbsc.sctkem import keygen_receiver_params, keygen_sender_params

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

SEED = 0
SIGN_ATTEMPTS = 2 * uuvsign.BATCH


def phase_tables(tracer: spans.Tracer, roots: dict[str, int]) -> dict[str, list]:
    """{phase: [(span name, calls, inclusive s, self s), ...]} for the
    spans under each phase's root span, largest self time first."""
    agg = spans.aggregate(tracer.spans, {root: 1.0 for root in roots.values()})
    tables = {title: defaultdict(lambda: [0, 0.0, 0.0]) for title in roots}
    for (phase, _top, name, _parent), values in agg.items():
        if name != phase:
            row = tables[phase][name]
            for k, v in enumerate(values):
                row[k] += v
    return {title: sorted(((name, *v) for name, v in rows.items()), key=lambda r: -r[3])
            for title, rows in tables.items()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    params = setup(argv[0])
    rng = np.random.default_rng(SEED)
    tracer = spans.Tracer()
    tracer.install()
    phases = []  # (title, root span id, seconds)
    try:
        def phase(title, fn):
            t0 = perf_counter()
            with tracer.root(title) as root:
                out = fn()
            phases.append((title, root, perf_counter() - t0))
            return out

        sk_r, pk_r = phase("receiver keygen", lambda: keygen_receiver_params(params, rng))
        blobs = {"receiver_sec": serial.ser_receiver_sec(params, sk_r),
                 "receiver_pub": serial.ser_receiver_pub(params, pk_r)}
        phase("receiver load", lambda: (serial.par_receiver_sec(blobs["receiver_sec"]),
                                        serial.par_receiver_pub(blobs["receiver_pub"])))
        sk_s, pk_s = phase("sender keygen", lambda: keygen_sender_params(params, rng))
        blobs |= {"sender_sec": serial.ser_sender_sec(params, sk_s),
                  "sender_pub": serial.ser_sender_pub(params, pk_s)}
        del sk_s, pk_s  # the loaded key signs, and one key is held at a time
        (_, sk_s), _ = phase("sender load",
                             lambda: (serial.par_sender_sec(blobs["sender_sec"]),
                                      serial.par_sender_pub(blobs["sender_pub"])))
        word = rng.integers(0, 3, size=params.n_s, dtype=np.uint8)
        free_values, rows = uuvsign._free_values, []

        def counting_free_values(other, p_two, rng):
            rows.append(len(other))
            return free_values(other, p_two, rng)

        def attempts():
            uuvsign._free_values = counting_free_values
            try:
                uuvsign.uuv_decode(sk_s, word, params.omega, rng,
                                   max_attempts=SIGN_ATTEMPTS)
            except uuvsign.RetryExhausted:
                pass
            finally:
                uuvsign._free_values = free_values
        phase("signing attempts", attempts)
    finally:
        tracer.uninstall()

    print(f"profile {params.name}: n_s={params.n_s} k_U={params.k_U} k_V={params.k_V} "
          f"m={params.m} n_r={params.n_r} t={params.t} k_tilde={params.k_tilde}, "
          f"seed {SEED}")
    tables = phase_tables(tracer, {title: root for title, root, _ in phases})
    for title, _, seconds in phases:
        print(f"\n{title}: {seconds:.3f} s")
        print(f"  {'step':34s} {'calls':>6s} {'incl s':>9s} {'self s':>9s}")
        for name, calls, incl, self_s in tables[title]:
            print(f"  {name:34s} {calls:6d} {incl:9.3f} {self_s:9.3f}")
    attempts_run = sum(rows) // 2
    print(f"\n{attempts_run} signing attempts (of at most {SIGN_ATTEMPTS}): "
          f"{1e3 * phases[-1][2] / attempts_run:.2f} ms per attempt")

    formula = {r.name: r.value for r in estimator.sizes(params)}
    print(f"\n{'key':14s} {'file bytes':>11s} {'file bits':>11s} {'estimator bits':>15s}")
    for key, blob in blobs.items():
        print(f"{key:14s} {len(blob):11d} {8 * len(blob):11d} "
              f"{formula[key + '_bits']:15.0f}")
    # ru_maxrss is in KiB on Linux
    print(f"\npeak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

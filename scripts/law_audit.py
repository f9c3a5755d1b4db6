#!/usr/bin/env python3
"""Exact audit of the signer's output law over several syndromes per key.

Usage: law_audit.py [SIGNATURES]     (per syndrome, default 5000, > 0)

Wave's signer is a trapdoor preimage sampler: for a uniform syndrome y
it should return a near-uniform word of weight omega in the coset of y,
whatever the trapdoor.  A single y may be atypical, for example in its
number of solutions, so each key is audited on several.  At sizes where
the coset can be enumerated this is checked directly.  For each profile
and key seed, the script draws a sender key and then SYNDROMES
syndromes y from default_rng(seed); for each y it lists every weight-
omega solution of e @ [I | A].T = y with `tests/oracles.coset_solutions`
(3^k_s candidates) and signs y SIGNATURES times with `sign_syndrome`,
drawing from the same generator.  It prints per key:

    solutions    the fewest and the most weight-omega words in a coset
    TV mean      the mean over the syndromes of the total variation
                 between the signatures' empirical law and the uniform
                 law on the solutions
    TV max       the largest of those total variations
    bound        next to each: the 99.9th percentile of the same
                 statistic for a uniform sampler with the same number of
                 draws on the same cosets, over 200 draws: the bound a
                 signer that samples each coset uniformly meets
    chi2/df      Pearson's chi-square against uniform over its degrees
                 of freedom (solutions - 1), averaged over the syndromes;
                 about 1 for a uniform law
    never        solutions that no signature produced, summed over the
                 syndromes

The profiles are toy (n_s = 16, k_s = 8: 6,561 candidates) and n24, toy
with n_s = 24, k_U = k_V = 6, omega = 22 (531,441 candidates).  Every
signature must lie in the enumerated set; the script raises otherwise.
It asserts nothing about the law.

Run from anywhere with `src` on PYTHONPATH:

    PYTHONPATH=src python scripts/law_audit.py
"""

import os

# One BLAS thread: the products are small, and threads would contend on
# a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from cbsc.params import TOY
from cbsc.uuvsign import keygen_sender, sign_syndrome

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import coset_solutions, toy_with  # noqa: E402

PROFILES = {"toy": TOY, "n24": toy_with(n_s=24, k_U=6, k_V=6, omega=22)}
KEY_SEEDS = (0, 1, 2)
SYNDROMES = 8
UNIFORM_DRAWS = 200


def _codes(E: np.ndarray) -> np.ndarray:
    """Each row of trits as one base-3 integer."""
    return E.astype(np.int64) @ 3 ** np.arange(E.shape[1], dtype=np.int64)


def _tv(counts: np.ndarray, n: int) -> np.ndarray:
    return 0.5 * np.abs(counts / n - 1 / counts.shape[-1]).sum(axis=-1)


def audit(params, seed: int, n: int) -> dict:
    rng = np.random.default_rng(seed)
    uniform_rng = np.random.default_rng(1000 + seed)
    sk, pk = keygen_sender(params, rng)
    sizes, tv, chi2_df, never, uniform_tv = [], [], [], 0, []
    for _ in range(SYNDROMES):
        y = rng.integers(0, 3, params.r_s, dtype=np.uint8)
        solutions = np.sort(_codes(coset_solutions(pk, y, params.omega)))
        signatures = _codes(np.array([sign_syndrome(sk, y, params.omega, rng)
                                      for _ in range(n)]))
        idx = np.searchsorted(solutions, signatures)
        if not np.array_equal(solutions[np.minimum(idx, len(solutions) - 1)],
                              signatures):
            raise AssertionError("a signature is not a weight-omega solution")
        s = len(solutions)
        counts = np.bincount(idx, minlength=s)
        mean = n / s
        sizes.append(s)
        tv.append(_tv(counts, n))
        chi2_df.append(((counts - mean) ** 2 / mean).sum() / (s - 1))
        never += int((counts == 0).sum())
        uniform_tv.append(_tv(uniform_rng.multinomial(
            n, np.full(s, 1 / s), size=UNIFORM_DRAWS), n))
    uniform_tv = np.array(uniform_tv)    # SYNDROMES x UNIFORM_DRAWS
    return dict(smin=min(sizes), smax=max(sizes),
                tv_mean=np.mean(tv), bound_mean=np.percentile(uniform_tv.mean(axis=0), 99.9),
                tv_max=max(tv), bound_max=np.percentile(uniform_tv.max(axis=0), 99.9),
                chi2_df=np.mean(chi2_df), never=never)


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and not (argv[0].isdigit() and int(argv[0]) > 0)):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    n = int(argv[0]) if argv else 5_000
    print(f"{n} signatures of each of {SYNDROMES} syndromes per key")
    print(f"{'profile':<8}{'seed':>5}{'solutions':>14}{'TV mean':>9}{'bound':>7}"
          f"{'TV max':>8}{'bound':>7}{'chi2/df':>9}{'never':>7}{'time':>8}")
    for name, params in PROFILES.items():
        for seed in KEY_SEEDS:
            t0 = perf_counter()
            r = audit(params, seed, n)
            print(f"{name:<8}{seed:>5}{r['smin']:>8}-{r['smax']:<5}{r['tv_mean']:>9.3f}"
                  f"{r['bound_mean']:>7.3f}{r['tv_max']:>8.3f}{r['bound_max']:>7.3f}"
                  f"{r['chi2_df']:>9.2f}{r['never']:>7}{perf_counter() - t0:>7.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

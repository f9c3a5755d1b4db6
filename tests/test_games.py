"""Games against what a signcrypted message binds, each with a named
adversary, run at the toy profile and at L1/20 (the passive outsider's
game at toy only).

Each test asserts today's outcome, and its docstring names the model that
the outcome speaks to.  The models are those of An, Dodis and Rabin, "On
the security of joint signature and encryption" (Eurocrypt 2002): in the
two-user setting one sender and one receiver are fixed, in the
multi-user setting the adversary picks among many users' keys, and an
insider holds one of the two parties' secret keys where an outsider
holds neither.
"""

from pathlib import Path

import numpy as np
import pytest

from cbsc import hybrid, linalg
from cbsc.cwencode import phi_inv
from cbsc.hashes import H0, H3, hash_bits
from cbsc.hybrid import SigncryptedMessage
from cbsc.mceliece import pke_decrypt, pke_encrypt
from cbsc.params import setup
from cbsc.sctkem import Encapsulation, keygen_receiver_params, keygen_sender_params

L1_20 = str(Path(__file__).resolve().parent.parent / "perfbench" / "l1-20.profile")


@pytest.fixture(scope="module", params=["toy", L1_20], ids=["toy", "l1-20"])
def users(request):
    """A profile with two receivers and two senders, and a message from
    sender 0 to receiver 0."""
    params = setup(request.param)
    rng = np.random.default_rng(2002)
    receivers = [keygen_receiver_params(params, rng) for _ in range(2)]
    senders = [keygen_sender_params(params, rng) for _ in range(2)]
    return params, receivers, senders, rng


def _signcrypt(users, m: bytes) -> SigncryptedMessage:
    params, receivers, senders, rng = users
    return hybrid.signcrypt(params, senders[0][0], receivers[0][1], m, rng)


def test_receiver_re_addresses_a_message_to_another_receiver(users):
    """Surreptitious forwarding, an insider attack of the multi-user
    setting: receiver 0 decrypts the encapsulation's PKE ciphertext to
    its (x, y), encrypts them again to receiver 1 under the same coin, and
    keeps the signature e and the DEM ciphertext C.  Receiver 1 accepts
    the result as sender 0's message, because the signed hash covers
    neither public key nor the PKE ciphertext.  This succeeds today: the
    scheme is not secure against this insider in the multi-user model,
    whatever it gives in the two-user one."""
    params, receivers, senders, _ = users
    m = b"for receiver 0 only"
    sc = _signcrypt(users, m)
    x, y = pke_decrypt(receivers[0][0], sc.E.c)
    forwarded = SigncryptedMessage(
        E=Encapsulation(e=sc.E.e, c=pke_encrypt(receivers[1][1], x, y, params.t)), C=sc.C)
    assert hybrid.unsigncrypt(params, receivers[1][0], senders[0][1], forwarded) == m


def test_message_cannot_be_re_attributed_to_another_sender(users):
    """Unforgeability in the multi-user setting, against an adversary
    without sender 1's secret key that does not search: sender 0's
    message, unchanged, is presented to its receiver as sender 1's.  The
    signature e verifies only under sender 0's public key, so this
    fails.  It says nothing against a searching forger: at L1/20 a
    large-weight Prange forger working from a sender's public key alone
    got 3 of 3 messages that the sender never sent past `unsigncrypt`."""
    params, receivers, senders, _ = users
    m = b"signed by sender 0"
    sc = _signcrypt(users, m)
    assert hybrid.unsigncrypt(params, receivers[0][0], senders[0][1], sc) == m
    assert hybrid.unsigncrypt(params, receivers[0][0], senders[1][1], sc) is None


def test_swapped_dem_ciphertexts_are_rejected(users):
    """Integrity of the two-user outsider model: an adversary that holds
    no secret key swaps the DEM ciphertexts of two messages from sender
    0 to receiver 0.  The DEM ciphertext is the tag-KEM's tag, which
    the signature and the PKE ciphertext both bind, so each mixed
    message is rejected."""
    params, receivers, senders, _ = users
    first, second = _signcrypt(users, b"message one"), _signcrypt(users, b"message two")
    for E, C in ((first.E, second.C), (second.E, first.C)):
        mixed = SigncryptedMessage(E=E, C=C)
        assert hybrid.unsigncrypt(params, receivers[0][0], senders[0][1], mixed) is None


def test_message_replays_to_its_own_receiver(users):
    """Replay, in every model here: an adversary that holds no secret key
    delivers a message from sender 0 to receiver 0 a second time.
    Nothing in the scheme gives freshness (no counter, timestamp or
    receiver state), so receiver 0 accepts it again, with the same
    plaintext.  This succeeds today; freshness is left to the
    application."""
    params, receivers, senders, _ = users
    m = b"pay 10 units"
    sc = _signcrypt(users, m)
    for _ in range(2):
        assert hybrid.unsigncrypt(params, receivers[0][0], senders[0][1], sc) == m


# random codewords that the mauling game adds to a signature
MAUL_CODEWORDS = 40_000


def test_outsider_mauls_e_by_a_public_codeword(users):
    """Strong unforgeability (sUF-CMA, the paper's claim) in the two-user
    outsider model: an adversary with the public keys only adds a random
    codeword c = (-A x, x) of the sender's public code, whose syndrome
    under [I | A] is zero, to the signature e of one message, signcrypted
    at seed 31, and keeps c and C.  When wt(e + c) = omega the result
    is a second valid encapsulation of the same message.  x is drawn
    MAUL_CODEWORDS = 40,000 times at seed 32, and the zero draws are
    dropped.  At toy, 1,427 of the 39,996 codewords keep the weight, so
    toy sizes are not strongly unforgeable, and the first of them passes
    `unsigncrypt`.  At L1/20 none of the 40,000 keeps it.  The cost of
    the attack at real sizes is not measured here."""
    params, receivers, senders, _ = users
    pk = senders[0][1]
    m = b"mauled"
    sc = hybrid.signcrypt(params, senders[0][0], receivers[0][1], m,
                          np.random.default_rng(31))
    x = np.random.default_rng(32).integers(
        0, 3, size=(MAUL_CODEWORDS, pk.A.shape[1]), dtype=np.uint8)
    x = x[x.any(axis=1)]
    c = np.concatenate([(3 - linalg.matmul(x, pk.A.T, 3)) % 3, x], axis=1)
    mauled = (sc.E.e + c) % 3
    kept = mauled[np.count_nonzero(mauled, axis=1) == params.omega]
    if params.name == "toy":
        assert len(kept) > 0
        forged = SigncryptedMessage(E=Encapsulation(e=kept[0], c=sc.E.c), C=sc.C)
        assert not np.array_equal(kept[0], sc.E.e)
        assert hybrid.unsigncrypt(params, receivers[0][0], pk, forged) == m
    else:
        assert len(kept) == 0


# Prange iterations the passive outsider may spend on one c0
PRANGE_ITERATIONS = 1_000


@pytest.mark.parametrize("users", ["toy"], indirect=True)
def test_passive_outsider_reads_a_toy_message(users):
    """Confidentiality against an outsider, in the two-user model: an
    eavesdropper that holds only the public keys reads a message from
    sender 0 to receiver 0, signcrypted at seed 19.  c0 is a codeword of
    the receiver's public subcode plus sigma, of weight t, so Prange's
    information-set decoding on the public S·G·P alone finds sigma: each
    iteration (columns in random order, seed 20) takes the pivots of the
    reordered generator's RREF as the information set and keeps the
    candidate error when its weight is t.  A share
    `isd_ratio(32, 16, 2)` = C(30, 16) / C(32, 16), about 2^-2.05, of
    the information sets avoid sigma; at these seeds the ninth iteration
    finds it.  Then y = phi^-1(sigma), x = c1 + H3(sigma), its last ell
    bits are varpi, K = H0(varpi), and the DEM gives the plaintext.
    This succeeds today: toy sizes are not confidential.  L1/20 falls
    the same way in about 1,200 iterations, too slow for this suite."""
    params, receivers, senders, _ = users
    m = b"read by an eavesdropper"
    sc = hybrid.signcrypt(params, senders[0][0], receivers[0][1], m,
                          np.random.default_rng(19))
    G, (c0, c1) = receivers[0][1].G, sc.E.c
    rng = np.random.default_rng(20)
    for _ in range(PRANGE_ITERATIONS):
        perm = rng.permutation(params.n_r)
        pivots, free, R_free = linalg.mat_reduce(G[:, perm], 2)
        # c0 minus the codeword that agrees with c0 on the information set
        error = c0[perm]
        error[free] ^= linalg.vecmat(error[pivots], R_free, 2)
        error[pivots] = 0
        if np.count_nonzero(error) == params.t:
            break
    sigma = np.empty_like(error)
    sigma[perm] = error
    x, y = c1 ^ hash_bits(H3, [sigma], len(c1)), phi_inv(sigma, params.t)
    # (x, y) is the PKE plaintext: it encrypts to c again
    again = pke_encrypt(receivers[0][1], x, y, params.t)
    assert np.array_equal(again.c0, c0) and np.array_equal(again.c1, c1)
    K = hash_bits(H0, [x[params.k_tilde:]], params.ell)
    assert hybrid.dem_encrypt(K, sc.C) == m

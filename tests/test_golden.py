"""Golden vectors: serialised keys and signcrypted messages at fixed seeds.

The key digests were recorded before GF(2^m) arithmetic moved to
log/antilog tables, so they pin that the field representation, the
randomness each key generator consumes and the wire formats are
unchanged.  The message digests were re-recorded when the signer came to
draw its free variables with one uniform each, which changed how much
of the signing generator's stream a signature consumes.  The
mid-size profile (m=8, n_r=256, t=10) exercises a multi-step key
equation and the square root in GF(2^m)[x]/(g), which t = 2 does not.
"""

import hashlib

import numpy as np
import pytest

from cbsc import serial
from cbsc.hybrid import signcrypt, unsigncrypt
from cbsc.params import TOY, custom_params
from cbsc.sctkem import keygen_receiver_params, keygen_sender_params

MID = custom_params(dict(n_s=16, k_U=4, k_V=4, omega=14, m=8, n_r=256, t=10,
                         k_tilde=100, ell=16, salt_bits=16))

# (profile, keygen seed) -> sha256 of (receiver-pub, receiver-sec,
# sender-pub, sender-sec); the receiver key is drawn first from the
# same generator, so the sender digests pin its randomness consumption.
KEY_DIGESTS = {
    (TOY, 1): ("a50bab27b8dc7830f1e314b2cc04522ce4a5fa99b7507d95bf932c9ee11585ad",
               "8e4e6f352a20cc771e18ea91390423a3911907e40e2c016eadc4c7eca96d0dc6",
               "e18e5e78bdd855ac0257ff58fad7fae6725e00567ebf864a51caeecf032fdc07",
               "1de840f5458fae28162199cb052a0f00987ce9c60034daa869100add9ed28920"),
    (TOY, 2): ("1c76d389d0a0feefca43b427602da8903ebc8bb26345f2ea6f702d347a02134a",
               "6d417cbdaf115994c2cf9ea5672dddec89d92e9686c3f1ceb27b295a767b37e7",
               "47854ba43678a6daeb55a09d2f4e89a4bb968f7114a1fb7e72846132970e9b45",
               "888016e6a153037128e0bda145a7de8ae0738d624cc572bb5486a9702807f29f"),
    (MID, 3): ("bdc9eac6b865940c21a1127e76b3ed7d78ccb2902956b03d662c5dfe06a3be17",
               "c1e14b1e8dac9918189881bef402785ab73118a59276886808f28e24607ce7a2",
               "7d7cebe6de7b63659397adae6693692bb8d907b7914c1fcf5cc6f6420b6cbf2e",
               "8f05e932eb4aa000dac31c568f492e3d54cdaf63dd584cd23b7b12472f0d4289"),
    (MID, 4): ("25b3f8b0cc976f3268c4aa5f56137f4e5de4a242cd7f27b68fd995441919e3e2",
               "d0a35da7fd4f4f0737b9c053fc9aa2fed92b80127d10de6dc6d3d7525f2aae56",
               "b7ba7afc8f4c159374869d880b800794d22915444b4f5b620b1a26d88b2d1a1d",
               "f55049fe256a5f661763985a7c44c35f21a0e4611786798ae7295e7550d3380c"),
}

# (profile, keygen seed) -> sha256 of ser_message for the payload
# b"golden <s>" signcrypted with default_rng(s), s = 10, 11, 12.
MESSAGE_DIGESTS = {
    (TOY, 1): ("bedfd711ea0a976a5ce18b5231f0d2ca9cd8b43972c824dc4b9f049541902177",
               "52a986253ab09e832a785773356bf2eaf68ece0880d8aa90af541a78c0047632",
               "3d41c4646b46352704f1b7e7c0de8e59b5fd5910acec98bd2c8fe51a2d63ed5c"),
    (TOY, 2): ("c3d13a04922fafe27d3cb9b2d294639b249406d0b72f6a2172b591336feb6ff2",
               "7f511a1a36069e89d50e72bfc4e9f9c06f16a170404176ec0ab23e6ecf326600",
               "42ffc3cfbfb093aa2467ed23a320034dc22ec57231dc045dcf8712a1d7bcff3a"),
    (MID, 3): ("4678623a1fe51dd2d25fcb81da9cd10aba3e6c94d87104c2e57dc1c403a1e6e5",
               "d1e6fbed32a1a3732ecaa06f0cad0eb7d269b1857e8a8e115b4b8ea01eedecb9",
               "c608d2527b39f3174b8446760281f633b50bda23d0f86bac4b3fda4b3db4fb46"),
    (MID, 4): ("39b5e2b9d0451649b21cdfbfae652efb458b04b608f18a518d2a704252d0aa77",
               "945092cc3425a01fc570b7132eb4aa953298025e1d4a5d543c2f9ae3ff553c62",
               "35da29e0cc221f56b8f7ac818586117d900fb5e3fc33fe04498ba8806c7f4aa8"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("params,seed", list(KEY_DIGESTS),
                         ids=[f"{p.name}-{s}" for p, s in KEY_DIGESTS])
def test_golden_keys_and_messages(params, seed):
    rng = np.random.default_rng(seed)
    sk_r, pk_r = keygen_receiver_params(params, rng)
    sk_s, pk_s = keygen_sender_params(params, rng)
    blobs = (serial.ser_receiver_pub(params, pk_r),
             serial.ser_receiver_sec(params, sk_r),
             serial.ser_sender_pub(params, pk_s),
             serial.ser_sender_sec(params, sk_s))
    assert tuple(_sha(b) for b in blobs) == KEY_DIGESTS[params, seed]

    _, sk_r2 = serial.par_receiver_sec(blobs[1])
    for s, digest in zip((10, 11, 12), MESSAGE_DIGESTS[params, seed]):
        msg = b"golden %d" % s
        sc = signcrypt(params, sk_s, pk_r, msg, np.random.default_rng(s))
        wire = serial.ser_message(params, sc)
        assert _sha(wire) == digest
        _, sc2 = serial.par_message(wire)
        assert unsigncrypt(params, sk_r, pk_s, sc2) == msg
        assert unsigncrypt(params, sk_r2, pk_s, sc2) == msg

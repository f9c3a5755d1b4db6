"""Golden vectors: serialised keys and signcrypted messages at fixed seeds.

The digests were recorded before GF(2^m) arithmetic moved to log/antilog
tables, so they pin that the field representation, the randomness each
key generator consumes and the wire formats are unchanged.  The
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
    (TOY, 1): ("cb6756200cade43286e69fcd39c6bbae9e0b609f5b896818190e5d20d1d3e052",
               "fd59162928f604a251b97d79ca7e5a8391495ad1a6697e86218f5b01cf6726bd",
               "a73da98a72a72311b94f3397388f7e937ea61fb8347f48f432e2cc732370e1b6"),
    (TOY, 2): ("e55fc05ed66c043df197e81ae132839cad9a0d9c36bdb06d37a6e417092bd18d",
               "5e8f4afa3ee699ad53ced9665181da98995d3152c9734ecdbafde0cef53b9651",
               "d3cbd7383b595f2167f43e40647bee3843d229da996ac1a7a8f01500e9e5c6d9"),
    (MID, 3): ("8717bdd1aba66c8b073dd12b7747dd7af9bea440addd43eedbe4375bbd84b16f",
               "7d6be18d7376f45264504533c84c79d171b555a61e917cd34dc9baf75232e83d",
               "c9c76c238621d19aea576ed94b555268ab9900c8596499014fe9507c920805a5"),
    (MID, 4): ("163572f0970f1c099152d05b5455abd755e3f068e57c5e84547e29194c917251",
               "8002c6241bcd072ced17d054ce67499c74866b36f5a7a37bf9ba4919d2dd87aa",
               "c124f1cb77301ef3d4a90443d55c2203c3875967a880acda58442d57b1e201dc"),
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

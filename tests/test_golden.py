"""Golden vectors: serialised keys and signcrypted messages at fixed seeds.

The key digests were recorded before GF(2^m) arithmetic moved to
log/antilog tables, so they pin that the field representation, the
randomness each key generator consumes and the wire formats are
unchanged.  The message digests were re-recorded when the signer came to
draw its free variables with one uniform each, which changed how much
of the signing generator's stream a signature consumes.  The sender key
and message digests of the mid-size seeds 3 and 4 were re-recorded when
sender keygen came to draw H_U, H_V, S and P together and redraw all
four until `sender_secret_key` accepts them: at those seeds a first draw
is rejected, so the accepted key comes from a later part of the stream.
The toy seeds accept their first draw, so their digests did not change.
The mid-size profile (m=8, n_r=256, t=10) exercises a multi-step key
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
               "fbbf5ef9f59fb6f2989f775e7fb0a1c7c855f42eebf431790e3f7c3452d1effa",
               "40ab23244121a6ea3877ba6068f373a629a25b8fdf1fc2a3935bf262b7c3848c"),
    (MID, 4): ("25b3f8b0cc976f3268c4aa5f56137f4e5de4a242cd7f27b68fd995441919e3e2",
               "d0a35da7fd4f4f0737b9c053fc9aa2fed92b80127d10de6dc6d3d7525f2aae56",
               "52f2aa9e9a87550d7942e3ccd2635e62150c3a6ccb70d40c14ce435b5f832530",
               "3a2e4ae702f7cf22395d7d85d94c8263809dedb0ee6365718b89af431711ac44"),
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
    (MID, 3): ("50042cf502556a6cfae144c802250db187fabcee11a22a79aca2aa1833f27fc4",
               "974e8f3fcc084c6eabf2bbb4971b578a4b855a80da10a63f94821495cd0a2609",
               "3afe4c8e0d77f8f534c147822cdf349d3a27e35439f68ce1dae0cf1151f2cb9e"),
    (MID, 4): ("03f253c2b4c12172046c8f34b2cfcb2ac6239c2b1835ef1c249e82ec874a4030",
               "7408f0c50a28c87ab17e30f34038603c160743db744782fa678b4133d077e026",
               "557af3a029df0e8dd2f887dfc2861ca6f531efa3ff0fa767e6b2266d64afca83"),
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

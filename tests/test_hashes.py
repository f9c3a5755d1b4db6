"""Hash roles: frozen regression vectors, framing unambiguity, and
statistical sanity of the uniform trit extraction."""

import numpy as np
import pytest

from cbsc import hashes
from cbsc.hashes import (
    DEM,
    H0,
    H1,
    H2,
    H3,
    hash_bits,
    hash_bytes,
    hash_trits,
    keystream,
)

import oracles

# regression vectors computed with an independent SHAKE-256 framing
# implementation and frozen
V_H0_ABC = "bb8765472c920d70bd82db89a712576e"
V_H1_ABC = "eaa12361c94f2df9bd63290d662dd9ea"
V_H1_AB_C = "b6fed7cb0fe1dddf7a3f3fdbed405102"
V_H3_BITS = [1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1]
V_H2_TRITS = [2, 0, 1, 2, 2, 2, 1, 2, 2, 2, 1, 0, 0, 2, 1, 2, 1, 2, 1, 1,
              0, 2, 1, 2]


def test_frozen_vectors():
    assert hash_bytes(H0, [b"abc"], 16).hex() == V_H0_ABC
    assert hash_bytes(H1, [b"abc"], 16).hex() == V_H1_ABC
    assert hash_bytes(H1, [b"ab", b"c"], 16).hex() == V_H1_AB_C
    bits = hash_bits(H3, [np.array([1, 0, 1, 1, 0], dtype=np.uint8), b"xy"], 19)
    assert list(bits) == V_H3_BITS
    trits = hash_trits([b"tag", np.array([1, 1, 0, 0], dtype=np.uint8)], 24)
    assert list(trits) == V_H2_TRITS


def test_domains_separate():
    outs = {hash_bytes(d, [b"same input"], 16) for d in (H0, H1, H2, H3, DEM)}
    assert len(outs) == 5


def test_field_framing_unambiguous():
    # same concatenated bytes, different field boundaries
    assert hash_bytes(H0, [b"ab", b"c"], 8) != hash_bytes(H0, [b"abc"], 8)
    assert hash_bytes(H0, [b"a", b"bc"], 8) != hash_bytes(H0, [b"ab", b"c"], 8)


def test_bit_length_disambiguates():
    # 12 zero bits and 16 zero bits pack to the same bytes but hash apart
    a = hash_bytes(H0, [np.zeros(12, dtype=np.uint8)], 8)
    b = hash_bytes(H0, [np.zeros(16, dtype=np.uint8)], 8)
    assert a != b


def test_bit_array_vs_equivalent_bytes():
    # an 8-bit array frames identically to its packed byte
    arr = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
    assert hash_bytes(H0, [arr], 8) == hash_bytes(H0, [b"\x03"], 8)


def test_hash_bits_length_and_determinism():
    for n in (1, 7, 8, 9, 64, 513):
        out = hash_bits(H1, [b"x"], n)
        assert out.shape == (n,) and out.dtype == np.uint8
        assert set(np.unique(out)) <= {0, 1}
        assert np.array_equal(out, hash_bits(H1, [b"x"], n))


def test_hash_trits_length_and_range():
    for n in (1, 4, 5, 6, 100, 2887):
        out = hash_trits([b"y"], n)
        assert out.shape == (n,)
        assert set(np.unique(out)) <= {0, 1, 2}


def test_hash_trits_prefix_stable():
    long = hash_trits([b"prefix"], 500)
    short = hash_trits([b"prefix"], 60)
    assert np.array_equal(long[:60], short)


def test_hash_trits_uniform_chi_square():
    # 30k trits over many inputs; chi-square with 2 dof, reject at p=0.001
    counts = np.zeros(3)
    total = 0
    for i in range(100):
        t = hash_trits([i.to_bytes(2, "big")], 300)
        counts += np.bincount(t, minlength=3)
        total += 300
    expected = total / 3
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < 13.82, f"chi-square {stat} (counts {counts})"


def test_hash_trits_matches_oracle():
    # at r_s = 2887 the oracle's first (r_s + 4) // 5 + 8 bytes seldom hold
    # enough accepted ones, so its digest-doubling path is taken too
    doubled = 0
    for r_s in (1, 2, 5, 24, 145, 500, 2887):
        for i in range(300):
            fields = [b"trits", i.to_bytes(2, "big")]
            assert np.array_equal(hash_trits(fields, r_s),
                                  oracles.hash_trits(fields, r_s)), (r_s, i)
            head = np.frombuffer(hash_bytes(H2, fields, (r_s + 4) // 5 + 8), np.uint8)
            doubled += 5 * int(np.count_nonzero(head < 243)) < r_s
    assert doubled > 0


class _Reads:
    """Stands in for the H2 XOF: serves digests of `source`, counting them."""

    def __init__(self, source):
        self.source, self.reads = source, 0

    def digest(self, n):
        self.reads += 1
        return self.source(n)


@pytest.mark.parametrize("r_s", [145, 688, 2887])
def test_hash_trits_reads_once(monkeypatch, r_s):
    # a first read of (r_s + 4) // 5 + 8 bytes was read again on a third of
    # these inputs at r_s = 688 and on all of them at 2887
    real, xofs = hashes._shake, []

    def shake(domain, fields):
        xofs.append(_Reads(real(domain, fields).digest))
        return xofs[-1]

    monkeypatch.setattr(hashes, "_shake", shake)
    for i in range(300):
        hash_trits([b"reads", i.to_bytes(2, "big")], r_s)
    assert len(xofs) == 300
    assert sum(xof.reads > 1 for xof in xofs) <= 3        # at most 1%


def test_hash_trits_reads_again_until_enough_accepted(monkeypatch):
    # a stream in which three bytes in four are rejected
    stream = bytes(x for i in range(4096) for x in (i % 243, 243, 250, 255))
    xof = _Reads(lambda n: stream[:n])
    monkeypatch.setattr(hashes, "_shake", lambda domain, fields: xof)
    expected = [(i % 243) // 3**j % 3 for i in range(100) for j in range(5)]
    assert hash_trits([b"short"], 500).tolist() == expected
    assert xof.reads > 1


def test_hash_trits_rejects_bad_length():
    with pytest.raises(ValueError):
        hash_trits([b"z"], 0)


def test_keystream_matches_dem_domain():
    K = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    assert keystream(K, 32) == hash_bytes(DEM, [K], 32)
    assert keystream(K, 32)[:8] == keystream(K, 8)

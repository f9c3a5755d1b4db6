import dataclasses

import numpy as np
import pytest

from cbsc import serial
from cbsc.goppa import generator_matrix, random_goppa_code
from cbsc.linalg import Monomial
from cbsc.params import TOY, custom_params
from cbsc.sctkem import keygen_receiver_params, keygen_sender_params


@pytest.fixture(scope="session")
def toy_params():
    return TOY


@pytest.fixture(scope="session")
def receiver_keys(toy_params):
    rng = np.random.default_rng(0xC0FFEE)
    return keygen_receiver_params(toy_params, rng)


@pytest.fixture(scope="session")
def sender_keys(toy_params):
    rng = np.random.default_rng(0xBEEF)
    return keygen_sender_params(toy_params, rng)


@pytest.fixture(scope="session")
def rank_deficient_receiver_sec():
    """A well-formed receiver secret key whose code has dimension 5, not
    n_r - mt = 4: the 24th code drawn from default_rng(1) has a parity
    check of rank 15 < mt = 16.  S and P come from a valid key."""
    params = custom_params(dict(n_s=16, k_U=4, k_V=4, omega=14, m=8, n_r=20,
                                t=2, k_tilde=2, ell=16, salt_bits=16))
    sk, _ = keygen_receiver_params(params, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for _ in range(24):
        code = random_goppa_code(params.m, params.n_r, params.t, rng)
    assert len(generator_matrix(code)) == 5
    return serial.ser_receiver_sec(params, dataclasses.replace(sk, code=code))


@pytest.fixture(scope="session")
def malformed_sender_secs():
    """Well-formed sender secret keys that are not a valid trapdoor, from
    the toy sender key of default_rng(7): row 1 of H_U equal to row 0 (an
    H_U without full row rank), column 3 of H_V zeroed (a malleable
    signature trit), and a P that sends the right half of H_sk to the
    first r_s columns, which are zero in the top r_U rows (no systematic
    form [I | A])."""
    rng = np.random.default_rng(7)
    keygen_receiver_params(TOY, rng)
    sk, _ = keygen_sender_params(TOY, rng)
    repeated_row = sk.H_U.copy()
    repeated_row[1] = repeated_row[0]
    zero_column = sk.H_V.copy()
    zero_column[:, 3] = 0
    right_half_first = Monomial(np.roll(np.arange(TOY.n_s), TOY.n_s // 2),
                                sk.P.scalars)
    keys = {"repeated-row": dataclasses.replace(sk, H_U=repeated_row),
            "zero-column": dataclasses.replace(sk, H_V=zero_column),
            "singular-first-columns": dataclasses.replace(sk, P=right_half_first)}
    return {name: serial.ser_sender_sec(TOY, key) for name, key in keys.items()}


@pytest.fixture(scope="session")
def malformed_receiver_secs(receiver_keys, toy_params):
    """Well-formed receiver secret keys whose S lacks full row rank, from
    the toy receiver key: S zeroed (a zero public generator, so c0 would
    be the encoded coin in the clear) and row 1 of S equal to row 0."""
    sk, _ = receiver_keys
    repeated_row = sk.S_rows.copy()
    repeated_row[1] = repeated_row[0]
    keys = {"zero-S": dataclasses.replace(sk, S_rows=np.zeros_like(sk.S_rows)),
            "repeated-row": dataclasses.replace(sk, S_rows=repeated_row)}
    return {name: serial.ser_receiver_sec(toy_params, key) for name, key in keys.items()}

"""Command-line interface: keygen, signcrypt, unsigncrypt, estimate.

Exit codes: 0 success, 2 usage or parameter errors, 3 file I/O errors,
4 cryptographic rejection (verification failure, malformed or truncated
cryptographic payloads).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import estimator, serial
from .hybrid import SigncryptedMessage, signcrypt, unsigncrypt
from .params import ParameterError, setup
from .sctkem import keygen_receiver_params, keygen_sender_params
from .uuvsign import RetryExhausted

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CRYPTO = 4

_ROLE_BY_NAME = {
    "sender-pub": serial.ROLE_SENDER_PUB,
    "sender-sec": serial.ROLE_SENDER_SEC,
    "receiver-pub": serial.ROLE_RECEIVER_PUB,
    "receiver-sec": serial.ROLE_RECEIVER_SEC,
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc}") from exc


def _write_file(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def _rng(seed: str | None):
    if seed is None:
        return np.random.default_rng()
    try:
        return np.random.default_rng(int(seed, 16))
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"seed must be hex: {seed!r}") from exc


def _setup(profile: str):
    try:
        return setup(profile)
    except ParameterError as exc:
        raise CliError(EXIT_USAGE, f"bad profile: {exc}") from exc


def _load_key(path: str, role_name: str):
    data = _read_file(path)
    try:
        return serial.KEY_PARSERS[_ROLE_BY_NAME[role_name]](data)
    except serial.FormatError as exc:
        raise CliError(EXIT_CRYPTO, f"bad {role_name} key file {path}: {exc}") from exc


def _cmd_keygen(args) -> int:
    params = _setup(args.profile)
    rng = _rng(args.seed)
    role = args.role
    if role == "receiver":
        sk, pk = keygen_receiver_params(params, rng)
        _write_file(args.out + ".pub", serial.ser_receiver_pub(params, pk))
        _write_file(args.out + ".sec", serial.ser_receiver_sec(params, sk))
    else:
        sk, pk = keygen_sender_params(params, rng)
        _write_file(args.out + ".pub", serial.ser_sender_pub(params, pk))
        _write_file(args.out + ".sec", serial.ser_sender_sec(params, sk))
    print(f"wrote {args.out}.pub and {args.out}.sec ({role}, {params.name})")
    return EXIT_OK


def _cmd_signcrypt(args) -> int:
    params_s, sk_s = _load_key(args.sender_sec, "sender-sec")
    params_r, pk_r = _load_key(args.receiver_pub, "receiver-pub")
    if params_s != params_r:
        raise CliError(EXIT_USAGE, "sender and receiver keys use different profiles")
    m = _read_file(args.infile)
    try:
        sc = signcrypt(params_s, sk_s, pk_r, m, _rng(args.seed))
    except RetryExhausted as exc:
        raise CliError(EXIT_CRYPTO, f"signing failed: {exc}") from exc
    _write_file(args.out, serial.ser_message(params_s, sc))
    print(f"signcrypted {len(m)} bytes -> {args.out}")
    return EXIT_OK


def _cmd_unsigncrypt(args) -> int:
    params_r, sk_r = _load_key(args.receiver_sec, "receiver-sec")
    params_s, pk_s = _load_key(args.sender_pub, "sender-pub")
    if params_s != params_r:
        raise CliError(EXIT_USAGE, "sender and receiver keys use different profiles")
    data = _read_file(args.infile)
    try:
        params_m, sc = serial.par_message(data)
    except serial.FormatError as exc:
        raise CliError(EXIT_CRYPTO, f"malformed ciphertext: {exc}") from exc
    if params_m != params_r:
        raise CliError(EXIT_USAGE, "ciphertext profile does not match keys")
    m = unsigncrypt(params_r, sk_r, pk_s, sc)
    if m is None:
        raise CliError(EXIT_CRYPTO, "rejected: decapsulation failed")
    _write_file(args.out, m)
    print(f"recovered {len(m)} bytes -> {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    params = _setup(args.profile)
    rows = estimator.full_report(params)
    if args.report == "csv":
        sys.stdout.write(estimator.format_csv(rows))
    else:
        print(estimator.format_text(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbsc")
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--role", choices=["sender", "receiver"], required=True)
    kg.add_argument("--profile", default="toy")
    kg.add_argument("--out", required=True, help="output path prefix")
    kg.add_argument("--seed", help="hex seed for deterministic generation")
    kg.set_defaults(func=_cmd_keygen)

    sc = sub.add_parser("signcrypt", help="signcrypt a file")
    sc.add_argument("--sender-sec", required=True)
    sc.add_argument("--receiver-pub", required=True)
    sc.add_argument("--in", dest="infile", required=True)
    sc.add_argument("--out", required=True)
    sc.add_argument("--seed", help="hex seed for deterministic output")
    sc.set_defaults(func=_cmd_signcrypt)

    us = sub.add_parser("unsigncrypt", help="verify and decrypt a file")
    us.add_argument("--receiver-sec", required=True)
    us.add_argument("--sender-pub", required=True)
    us.add_argument("--in", dest="infile", required=True)
    us.add_argument("--out", required=True)
    us.set_defaults(func=_cmd_unsigncrypt)

    est = sub.add_parser("estimate", help="size and attack-cost report")
    est.add_argument("--profile", default="toy")
    est.add_argument("--report", choices=["text", "csv"], default="text")
    est.set_defaults(func=_cmd_estimate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

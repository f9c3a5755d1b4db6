"""Command-line interface: keygen, signcrypt, unsigncrypt, estimate.

Exit codes: 0 success, 2 usage or parameter errors, 3 file I/O errors
(a closed stdout included), 4 cryptographic rejection (verification
failure, malformed or truncated cryptographic payloads).  The commands
only raise; `main` prints one `error:` line and picks the code from
EXIT_CODES.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import estimator, serial
from .hybrid import signcrypt, unsigncrypt
from .params import ParameterError, setup
from .sctkem import keygen_receiver_params, keygen_sender_params
from .uuvsign import RetryExhausted

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CRYPTO = 4


class Rejected(Exception):
    """Unsigncryption returned the paper's rejection symbol."""


# The one place where a failure becomes an exit code; the most specific
# class in an exception's MRO wins.  Any other exception is a bug and
# propagates.
EXIT_CODES = {
    ParameterError: EXIT_USAGE,
    OSError: EXIT_IO,                   # BrokenPipeError included
    serial.FormatError: EXIT_CRYPTO,
    RetryExhausted: EXIT_CRYPTO,
    Rejected: EXIT_CRYPTO,
}


def _rng(seed: str | None):
    try:
        return np.random.default_rng(None if seed is None else int(seed, 16))
    except ValueError as exc:
        raise ParameterError(f"seed must be hex: {seed!r}") from exc


def _load(*files):
    """(params, objects) parsed from (path, parse, role) files that must
    share one profile; FormatError and ParameterError name the file."""
    loaded = []
    for path, parse, role in files:
        try:
            loaded.append(parse(Path(path).read_bytes()))
        except serial.FormatError as exc:
            raise serial.FormatError(f"bad {role} file {path}: {exc}") from exc
        if loaded[-1][0] != loaded[0][0]:
            raise ParameterError(f"{role} file {path} and {files[0][2]} file "
                                 f"{files[0][0]} use different profiles")
    return loaded[0][0], [obj for _, obj in loaded]


def _cmd_keygen(args) -> None:
    params = setup(args.profile)
    if args.role == "receiver":
        sk, pk = keygen_receiver_params(params, _rng(args.seed))
        pub, sec = serial.ser_receiver_pub(params, pk), serial.ser_receiver_sec(params, sk)
    else:
        sk, pk = keygen_sender_params(params, _rng(args.seed))
        pub, sec = serial.ser_sender_pub(params, pk), serial.ser_sender_sec(params, sk)
    Path(args.out + ".pub").write_bytes(pub)
    Path(args.out + ".sec").write_bytes(sec)
    print(f"wrote {args.out}.pub and {args.out}.sec ({args.role}, {params.name})")


def _cmd_signcrypt(args) -> None:
    params, (sk_s, pk_r) = _load(
        (args.sender_sec, serial.par_sender_sec, "sender-sec key"),
        (args.receiver_pub, serial.par_receiver_pub, "receiver-pub key"))
    m = Path(args.infile).read_bytes()
    sc = signcrypt(params, sk_s, pk_r, m, _rng(args.seed))
    Path(args.out).write_bytes(serial.ser_message(params, sc))
    print(f"signcrypted {len(m)} bytes -> {args.out}")


def _cmd_unsigncrypt(args) -> None:
    params, (sk_r, pk_s, sc) = _load(
        (args.receiver_sec, serial.par_receiver_sec, "receiver-sec key"),
        (args.sender_pub, serial.par_sender_pub, "sender-pub key"),
        (args.infile, serial.par_message, "message"))
    m = unsigncrypt(params, sk_r, pk_s, sc)
    if m is None:
        raise Rejected(f"message file {args.infile} rejected: decapsulation failed")
    Path(args.out).write_bytes(m)
    print(f"recovered {len(m)} bytes -> {args.out}")


def _cmd_estimate(args) -> None:
    rows = estimator.full_report(setup(args.profile))
    if args.report == "csv":
        sys.stdout.write(estimator.format_csv(rows))
    else:
        print(estimator.format_text(rows))


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
    try:
        try:
            args = build_parser().parse_args(argv)
            args.func(args)
            code = EXIT_OK
        except SystemExit as exc:       # --help, or a usage error
            code = EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        sys.stdout.flush()              # a closed stdout fails here, not at exit
        return code
    except tuple(EXIT_CODES) as exc:
        if isinstance(exc, BrokenPipeError):
            # the interpreter flushes stdout again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of cbsc from outside the package, and the per-layer metrics.

`Tracer.install` replaces each traced function with a wrapper everywhere
the function is looked up: the modules import functions by name, so
``cbsc.sctkem.vecmat`` and ``cbsc.mceliece.vecmat`` are patched as well
as ``cbsc.linalg.vecmat``.  Spans stay in memory as
``[name, start, end, parent, root]``; ``root`` is the id of the span
that opened the operation (set-up, warm-up, measured op, ...) and so
identifies the operation.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

# Functions timed as spans, by defining module.  Per-element helpers
# (gf_mul, poly_eval, pack_bits, ...) are left out: they run millions of
# times and a wrapper would cost more than they do.
TRACED = {
    "fields": ("poly_inv_mod", "poly_sqrt_mod", "random_irreducible",
               "poly_is_irreducible"),
    "goppa": ("random_goppa_code", "goppa_parity_check", "generator_matrix",
              "_key_equation", "patterson_decode", "keygen_receiver",
              "decode_permuted"),
    "linalg": ("mat_rank", "random_full_rank", "invert_matrix", "matmul",
               "vecmat", "mono_apply", "mono_apply_inv"),
    "cwencode": ("phi", "phi_inv"),
    "hashes": ("hash_bits", "hash_trits", "keystream"),
    "mceliece": ("pke_encrypt", "pke_decrypt"),
    "uuvsign": ("keygen_sender", "uuv_decode"),
    "sctkem": ("sym", "encap", "decap"),
    "hybrid": ("dem_encrypt", "signcrypt", "unsigncrypt"),
    "serial": ("ser_message", "par_message", "par_receiver_pub",
               "par_receiver_sec", "par_sender_pub", "par_sender_sec"),
}

# Methods timed as spans: (module, class, method) -> span name.
TRACED_METHODS = {
    ("linalg", "AffineSolver", "__init__"): "linalg.AffineSolver",
    ("linalg", "AffineSolver", "solve"): "linalg.AffineSolver.solve",
}

OP = "bench.op"
SETUP = "bench.setup"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_codes = weakref.WeakSet()

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent,
                self.spans[parent][4] if parent >= 0 else idx]
        self.spans.append(span)
        self._stack.append(idx)
        return span

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """Span for one benchmark activity; every span inside it is its
        descendant.  Yields the span's id."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        span = self._open(name)
        span[1] = perf_counter()
        try:
            yield self._stack[-1]
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _syndrome_wrapper(self, fn):
        # The first syndrome call on a code object builds its lazy
        # 1/(x - alpha) table; it gets its own span name so the one-off
        # cost stays apart from warm syndromes.
        first = self.wrap("goppa.syndrome_table", fn)
        warm = self.wrap("goppa.syndrome_poly", fn)
        seen = self._seen_codes

        @functools.wraps(fn)
        def syndrome_poly(code, word):
            if code in seen:
                return warm(code, word)
            seen.add(code)
            return first(code, word)
        return syndrome_poly

    def install(self) -> None:
        mods = {name: importlib.import_module(f"cbsc.{name}") for name in TRACED}
        replace = {}
        for mod, names in TRACED.items():
            for fname in names:
                fn = getattr(mods[mod], fname)
                replace[id(fn)] = (fn, self.wrap(f"{mod}.{fname}", fn))
        loaded = [m for k, m in sys.modules.items()
                  if k == "cbsc" or k.startswith("cbsc.")]
        for module in loaded:
            for attr, val in list(vars(module).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(module, attr, hit[1])
        for (mod, cls, meth), name in TRACED_METHODS.items():
            klass = getattr(mods[mod], cls)
            self._patch(klass, meth, self.wrap(name, vars(klass)[meth]))
        goppa_code = mods["goppa"].GoppaCode
        self._patch(goppa_code, "syndrome_poly",
                    self._syndrome_wrapper(vars(goppa_code)["syndrome_poly"]))

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, root) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "op": root}) + "\n")


def aggregate(spans, scale: dict[int, float]) -> dict:
    """{(root, top, span, parent): [calls, inclusive s, self s]} by span name.

    ``top`` is the outermost span inside the root (the call the benchmark
    made, such as goppa.keygen_receiver or serial.par_receiver_sec).
    Durations are multiplied by ``scale[root id]``.
    """
    child = [0.0] * len(spans)
    top = [None] * len(spans)
    for i, (name, t0, t1, parent, root) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            top[i] = name if parent == root else top[parent]
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, t0, t1, parent, root) in enumerate(spans):
        key = (spans[root][0], top[i], name,
               spans[parent][0] if parent >= 0 else None)
        entry = agg[key]
        entry[0] += 1
        entry[1] += (t1 - t0) * scale[root]
        entry[2] += (t1 - t0 - child[i]) * scale[root]
    return agg


CALLS, INCL, SELF = 0, 1, 2


def layer_metrics(agg) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Operation-path times are ms per measured operation, key-loading times
    ms per call, key-generation times ms per set-up; counts are totals
    over the measured operations or over the set-ups.
    """
    def total(scope, name, field, parent=None, top=None):
        return sum(v[field] for (s, t, n, p), v in agg.items()
                   if n == name and (scope is None or s == scope)
                   and (parent is None or p == parent)
                   and (top is None or t == top))

    n_ops = total(OP, OP, CALLS)
    n_setups = total(SETUP, SETUP, CALLS)

    def per_op(name, field=SELF, parent=None):
        return 1e3 * total(OP, name, field, parent) / n_ops

    def per_setup(name, field=INCL, parent=None, top=None):
        return 1e3 * total(SETUP, name, field, parent, top) / n_setups

    def per_call(name, parent=None):
        calls = total(None, name, CALLS, parent)
        return 1e3 * total(None, name, INCL, parent) / calls if calls else 0.0

    attempts = total(OP, "linalg.AffineSolver.solve", CALLS) // 2
    uuv_ms = (per_op("uuvsign.uuv_decode", INCL)
              - per_op("linalg.AffineSolver", INCL, "uuvsign.uuv_decode"))
    ms, count = "ms", "count"
    return {
        # Patterson decoding, phase by phase
        "goppa.syndrome_ms": (per_op("goppa.syndrome_poly"), ms),
        "fields.poly_inv_mod_ms": (
            per_op("fields.poly_inv_mod", parent="goppa.patterson_decode"), ms),
        "fields.poly_sqrt_mod_ms": (per_op("fields.poly_sqrt_mod"), ms),
        "goppa.key_equation_ms": (per_op("goppa._key_equation"), ms),
        "goppa.root_find_ms": (per_op("goppa.patterson_decode"), ms),
        # the rest of decapsulation
        "goppa.decode_ms": (per_op("goppa.decode_permuted", INCL), ms),
        "mceliece.pke_decrypt_self_ms": (per_op("mceliece.pke_decrypt"), ms),
        "sctkem.decap_self_ms": (per_op("sctkem.decap"), ms),
        "cwencode.phi_inv_ms": (per_op("cwencode.phi_inv"), ms),
        # signing
        "uuvsign.uuv_decode_ms": (uuv_ms, ms),
        "uuvsign.solver_build_ms": (
            per_op("linalg.AffineSolver", INCL, "uuvsign.uuv_decode"), ms),
        "uuvsign.attempts": (attempts, count),
        "uuvsign.ms_per_attempt": (uuv_ms * n_ops / attempts, ms),
        # encryption
        "mceliece.pke_encrypt_ms": (per_op("mceliece.pke_encrypt"), ms),
        "cwencode.phi_ms": (per_op("cwencode.phi"), ms),
        "linalg.vecmat_ms": (per_op("linalg.vecmat"), ms),
        "linalg.vecmat_calls": (total(OP, "linalg.vecmat", CALLS), count),
        "linalg.mono_apply_ms": (per_op("linalg.mono_apply")
                                 + per_op("linalg.mono_apply_inv"), ms),
        # DEM, hashing and message framing
        "hybrid.dem_ms": (per_op("hybrid.dem_encrypt"), ms),
        "hashes.keystream_ms": (per_op("hashes.keystream"), ms),
        "serial.ser_message_ms": (per_op("serial.ser_message"), ms),
        "serial.par_message_ms": (per_op("serial.par_message"), ms),
        "hashes.hash_bits_ms": (per_op("hashes.hash_bits"), ms),
        "hashes.hash_bits_calls": (total(OP, "hashes.hash_bits", CALLS), count),
        "hashes.hash_trits_ms": (per_op("hashes.hash_trits"), ms),
        "hashes.hash_trits_calls": (total(OP, "hashes.hash_trits", CALLS), count),
        # key loading, per call wherever it happens
        "serial.par_receiver_sec_ms": (per_call("serial.par_receiver_sec"), ms),
        "serial.par_sender_sec_ms": (per_call("serial.par_sender_sec"), ms),
        "serial.par_receiver_pub_ms": (per_call("serial.par_receiver_pub"), ms),
        "serial.par_sender_pub_ms": (per_call("serial.par_sender_pub"), ms),
        "goppa.generator_ms": (
            per_call("goppa.generator_matrix", "serial.par_receiver_sec"), ms),
        "linalg.matmul_ms": (per_call("linalg.matmul", "serial.par_receiver_sec"), ms),
        "goppa.syndrome_table_ms": (per_call("goppa.syndrome_table"), ms),
        # receiver key generation, per set-up
        "goppa.irreducible_ms": (per_setup("fields.random_irreducible"), ms),
        "goppa.irreducible_candidates": (
            total(SETUP, "fields.poly_is_irreducible", CALLS), count),
        "goppa.code_tries": (total(SETUP, "goppa.random_goppa_code", CALLS), count),
        "goppa.parity_check_ms": (
            per_setup("goppa.goppa_parity_check", top="goppa.keygen_receiver"), ms),
        "goppa.rank_ms": (per_setup("linalg.mat_rank", parent="goppa.keygen_receiver"), ms),
        "goppa.keygen_kernel_ms": (
            per_setup("goppa.generator_matrix", SELF, top="goppa.keygen_receiver"), ms),
        "goppa.keygen_product_ms": (
            per_setup("linalg.matmul", parent="goppa.keygen_receiver"), ms),
        # sender key generation, per set-up
        "uuvsign.keygen_full_rank_ms": (
            per_setup("linalg.random_full_rank", parent="uuvsign.keygen_sender"), ms),
        "uuvsign.keygen_invert_ms": (
            per_setup("linalg.invert_matrix", parent="uuvsign.keygen_sender"), ms),
        "uuvsign.keygen_product_ms": (
            per_setup("linalg.matmul", parent="uuvsign.keygen_sender"), ms),
    }

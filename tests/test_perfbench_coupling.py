"""The benchmark's span tracer (perfbench/spans.py) patches cbsc functions
and methods by name, and `Tracer.install` raises when one is missing.
These tests make a renamed or dropped traced name fail here too, and
check that a signcryption roundtrip still passes through the spans the
per-layer metrics are derived from.  They also hold `src/cbsc` to what
the scheme runs: a public function or class that neither the package
nor its scripts reference is kept only when the tracer names it."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cbsc import hybrid, linalg

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(spans):
    """id of every attribute of the cbsc modules the tracer patches."""
    modules = [importlib.import_module(f"cbsc.{name}") for name in spans.TRACED]
    return {(mod.__name__, attr): id(val)
            for mod in modules for attr, val in vars(mod).items()}


def test_tracer_install_then_uninstall_restores_cbsc():
    spans = _spans_module()
    before = _snapshot(spans)
    solve = linalg.AffineSolver.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert id(linalg.vecmat) != before[("cbsc.linalg", "vecmat")]
        assert linalg.AffineSolver.solve is not solve
    finally:
        tracer.uninstall()
    assert _snapshot(spans) == before
    assert linalg.AffineSolver.solve is solve


def test_traced_roundtrip_passes_through_the_metric_spans(
        toy_params, receiver_keys, sender_keys):
    spans = _spans_module()
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    # a key builds its solvers at its first signature, which the
    # benchmark's warm-up roundtrips make before any traced operation
    hybrid.signcrypt(toy_params, sk_s, pk_r, b"warm-up", np.random.default_rng(0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root(spans.OP):
            sc = hybrid.signcrypt(toy_params, sk_s, pk_r, b"traced",
                                  np.random.default_rng(1))
            assert hybrid.unsigncrypt(toy_params, sk_r, pk_s, sc) == b"traced"
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for name in ("uuvsign.uuv_decode", "linalg.mono_apply", "linalg.mono_apply_inv",
                 "hybrid.dem_encrypt", "goppa.decode_permuted", "sctkem.decap"):
        assert name in names
    assert names.count("linalg.AffineSolver.solve") % 2 == 0
    # a key that has signed keeps its solvers: signing builds none
    assert not [span for span in tracer.spans if span[0] == "linalg.AffineSolver"
                and tracer.spans[span[3]][0] == "uuvsign.uuv_decode"]
    assert names.count("hybrid.dem_encrypt") == 2
    # the receiver decodes with Berlekamp-Massey; Patterson is the
    # reference that tests compare it against, off the scheme's path
    assert "goppa.patterson_decode" not in names


def test_traced_long_tag_roundtrip_keeps_every_span_in_its_parent(
        toy_params, receiver_keys, sender_keys):
    # a 256 KiB tag has its H1 absorbed on the hash worker thread; the
    # tracer keeps one span stack, so a traced call there would interleave
    # with the caller's spans and break their nesting (a traced hash_bits
    # on the worker broke it in 19 of 20 single roundtrips, hence three)
    spans = _spans_module()
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    payload = np.random.default_rng(2).bytes(256 * 1024)
    hybrid.signcrypt(toy_params, sk_s, pk_r, b"warm-up", np.random.default_rng(0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for seed in range(3):
            with tracer.root(spans.OP):
                sc = hybrid.signcrypt(toy_params, sk_s, pk_r, payload,
                                      np.random.default_rng(seed))
                assert hybrid.unsigncrypt(toy_params, sk_r, pk_s, sc) == payload
    finally:
        tracer.uninstall()
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2], name
    dem = [root for name, _, _, _, root in tracer.spans if name == "hybrid.dem_encrypt"]
    roots = [i for i, span in enumerate(tracer.spans) if span[3] < 0]
    assert dem == sorted(2 * roots)


def test_every_public_cbsc_name_has_a_caller_or_is_traced():
    # references are AST names, attributes and imported names, so a
    # name that only a docstring or a comment mentions has no caller
    defined, referenced = set(), set()
    for path in sorted((ROOT / "src" / "cbsc").glob("*.py")):
        defined |= {(path.stem, node.name) for node in ast.parse(path.read_text()).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
    for path in [*(ROOT / "src" / "cbsc").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    traced = {(mod, name) for mod, names in _spans_module().TRACED.items() for name in names}
    unreferenced = {(mod, name) for mod, name in defined if name not in referenced}
    assert unreferenced <= traced, sorted(unreferenced - traced)

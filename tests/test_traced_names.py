"""The benchmark tracer (perfbench/spans.py) wraps pfalab functions under
the module attribute each caller looks up at call time.  These tests
read its WRAPPED list, without changing it, and check that every name
still exists where the tracer looks and that calls still go through it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from pfalab import classic, guard
from pfalab.aes import BLOCK_SIZE, key_expand
from pfalab.classic import IDDMR, REDMR, DmrConfig, dmr_encrypt_blocks
from pfalab.faults import FaultSpec, inject
from pfalab.sbox import AES_SBOX

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for owner_name, attr, _, _ in wrapped:
        module_name, _, class_name = owner_name.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        # The tracer reads owner.__dict__[attr], so an inherited or
        # re-exported name would not do.
        assert callable(owner.__dict__.get(attr)), (owner_name, attr)


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_dmr_calls_go_through_the_classic_names(monkeypatch):
    calls = {}
    for name in ("encrypt_blocks", "decrypt_blocks"):
        _counting(monkeypatch, classic, name, calls)
    rk = key_expand(bytes(BLOCK_SIZE))
    pts = np.zeros((3, BLOCK_SIZE), dtype=np.uint8)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    dmr_encrypt_blocks(pts, rk, AES_SBOX, faulted, DmrConfig(mode=REDMR))
    assert calls == {"encrypt_blocks": 2}
    dmr_encrypt_blocks(pts, rk, AES_SBOX, faulted, DmrConfig(mode=IDDMR))
    dmr_encrypt_blocks(pts[:1], rk, AES_SBOX, faulted, DmrConfig(mode=IDDMR))
    assert calls == {"encrypt_blocks": 4, "decrypt_blocks": 2}


def test_bs_calls_go_through_the_classic_names(monkeypatch):
    calls = {}
    _counting(monkeypatch, classic, "encrypt_blocks", calls)
    rk = key_expand(bytes(BLOCK_SIZE))
    pts = np.zeros((3, BLOCK_SIZE), dtype=np.uint8)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    classic.bs_encrypt_blocks(pts, rk, faulted, faulted)
    assert calls == {"encrypt_blocks": 1}
    classic.bs_encrypt_blocks(pts, rk, faulted, AES_SBOX)
    assert calls == {"encrypt_blocks": 3}


def test_correct_rechecks_through_the_guard_name(monkeypatch, pair, tables):
    calls = {}
    _counting(monkeypatch, guard, "detect", calls)
    faulted = inject(AES_SBOX, FaultSpec(((0x42, 0x00),)))
    guard.correct(faulted, tables, pair)
    assert calls["detect"] >= 1

"""The scan gradient gate passes on the package and fails on a wrong backward."""

from mambarec import autodiff
from perfbench import harness


def _gates(length=12, seed=0):
    ledger = harness.Ledger()
    harness._scan_gradient_check(ledger, length, seed)
    return ledger.gates


def test_scan_gradient_gate_passes():
    gates = _gates()
    assert len(gates) == 5
    assert all(g["ok"] for g in gates), gates


def test_scan_gradient_gate_catches_a_scaled_backward(monkeypatch):
    original = autodiff.Tape.backward

    def scaled(self, loss):
        original(self, loss)
        leaves = {id(t): t for rec in self._records for t in rec.inputs if t.grad is not None}
        for t in leaves.values():
            t.grad *= 0.99

    monkeypatch.setattr(autodiff.Tape, "backward", scaled)
    assert not any(g["ok"] for g in _gates())

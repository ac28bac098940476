"""Extension: graceful degradation under injected deployment faults."""

import numpy as np

from repro.eval.robustness import DEFAULT_FAULT_KINDS, DEFAULT_SEVERITIES


def test_ext_robustness_degradation(run_experiment):
    record = run_experiment("ext-robustness")
    measured = record.measured_by_name()

    # The sweep must cover the full kind x severity grid (>= 4 kinds).
    assert len(DEFAULT_FAULT_KINDS) >= 4
    for kind in DEFAULT_FAULT_KINDS:
        for severity in DEFAULT_SEVERITIES:
            assert f"{kind} s={severity:.1f}" in measured
            assert f"{kind} s={severity:.1f} abstain" in measured

    # Severity zero is the clean baseline: injectors are exact no-ops,
    # so every fault kind reports the identical clean accuracy.
    clean = {measured[f"{kind} s=0.0"] for kind in DEFAULT_FAULT_KINDS}
    assert len(clean) == 1
    clean_acc = clean.pop()
    assert clean_acc > 0.5  # the pipeline must be competent on clean data
    assert all(
        measured[f"{kind} s=0.0 abstain"] == 0.0 for kind in DEFAULT_FAULT_KINDS
    )

    # Faults must not crash the serving path: every cell reports a
    # finite abstain rate in [0, 1].
    rates = [
        measured[f"{kind} s={s:.1f} abstain"]
        for kind in DEFAULT_FAULT_KINDS
        for s in DEFAULT_SEVERITIES
    ]
    assert np.isfinite(rates).all()
    assert all(0.0 <= r <= 1.0 for r in rates)

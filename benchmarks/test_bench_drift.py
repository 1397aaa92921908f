"""Benchmark E8 — the potential-drift machinery behind the proofs.

Measures the realised potential decay and compares it with the analysis
constants:

* **Observation 4**: the resource-controlled potential never increases
  (checked on every recorded trace);
* **Lemma 5**: under tight thresholds the potential drops by at least a
  factor 1/4 per ``2 H(G)``-round phase — measured drops are far larger;
* **Lemma 10**: the user-controlled per-round drift exceeds the
  theoretical ``alpha eps/(2(1+eps)) wmin/wmax`` — by orders of
  magnitude, which is exactly why the proofs' constants are loose.
"""

from __future__ import annotations

from conftest import scaled

from repro.experiments import EXPERIMENTS


def test_drift_check(benchmark, show):
    config = scaled("drift_check")
    run = EXPERIMENTS["drift_check"].run
    result = benchmark.pedantic(lambda: run(config), rounds=1, iterations=1)
    show(result.format_table())

    rows = {r["scenario"]: r for r in result.rows}

    # Lemma 10 scenario: measured per-round drift beats the bound
    user = next(v for k, v in rows.items() if k.startswith("user"))
    assert user["delta_measured"] > user["delta_theory"]
    # drift-theorem prediction is an upper bound on the measured time
    assert user["mean_rounds"] <= user["drift_pred_rounds"] * 1.5

    # Lemma 5 scenarios: per-phase drop >= 1/4, Phi monotone (Obs. 4)
    for key, row in rows.items():
        if not key.startswith("resource"):
            continue
        assert row["monotone_phi"], f"Observation 4 violated in {key}"
        assert row["phase_drop_measured"] >= 0.25, (
            f"{key}: phase drop {row['phase_drop_measured']:.3f} < 1/4"
        )

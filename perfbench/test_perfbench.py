"""Self-tests of the benchmark: wrapper binding, predicted bypasses, the gate.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import bench
from juntatester import boolfn, distribution, harness, quantum, tester
from juntatester.oracles import QueryLedger
from juntatester.tester import Decision, Variant
from spans import Tracer, layer_stats

SEED = 3
TRIALS = 2

# Span names that must record calls on a workload, and those that must not.
FIRES = {
    "completeness-classical": (
        "harness.build_fixture", "distribution.Distribution", "boolfn.from_junta",
        "tester.run_tester", "tester.step", "tester.generate_cube",
        "distribution.sample_indices", "quantum.fourier_sample",
        "boolfn.restricted_spectrum", "boolfn.walsh_hadamard",
    ),
    "completeness-amplified": (
        "harness.build_fixture", "tester.step", "quantum.amplified_generate_cube",
        "quantum.attempt_success_probability", "distribution.sample_indices",
    ),
    "soundness-planted": (
        "harness.build_fixture", "harness.gen_far_fixture", "distribution.Distribution",
        "distribution.distance_to_k_junta", "distribution.best_junta_on",
        "boolfn.from_junta", "tester.generate_cube", "quantum.fourier_sample",
        "boolfn.restricted_spectrum", "boolfn.walsh_hadamard",
    ),
}
BYPASSED = {
    "completeness-classical": (
        "quantum.attempt_success_probability", "quantum.amplified_generate_cube",
        "distribution.distance_to_k_junta",
    ),
    "completeness-amplified": ("tester.generate_cube", "distribution.distance_to_k_junta"),
    "soundness-planted": (
        "quantum.attempt_success_probability", "quantum.amplified_generate_cube",
    ),
}


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def traced(request):
    w = bench.WORKLOADS[request.param]
    tracer, fixture, traced_trials, untraced_trials = bench.traced_run(w, SEED, TRIALS)
    return w, layer_stats(tracer.spans), fixture, traced_trials, untraced_trials


def test_wrappers_fire_and_bypasses_are_zero(traced):
    w, stats, *_ = traced
    for name in FIRES[w.name]:
        assert stats.get(name, {}).get("calls", 0) > 0, name
    for name in BYPASSED[w.name]:
        assert name not in stats, name


def test_distance_certificate_scans_every_subset(traced):
    w, stats, *_ = traced
    if w.name == "soundness-planted":
        assert stats["distribution.best_junta_on"]["calls"] == 1820  # C(16, 4)
        assert stats["distribution.distance_to_k_junta"]["calls"] == 1


def test_tracing_changes_no_result(traced):
    w, _, fixture, traced_trials, untraced_trials = traced
    cert = fixture[2]
    assert (bench.report_of(traced_trials, cert).to_json_str()
            == bench.report_of(untraced_trials, cert).to_json_str())
    theirs = harness.run_trials(w.config(SEED, TRIALS)).to_json_str()
    assert bench.report_of(untraced_trials, cert).to_json_str() == theirs


def test_tracer_restores_every_binding():
    before = {
        (m.__name__, k): v
        for m in (boolfn, distribution, harness, quantum, tester)
        for k, v in vars(m).items()
    }
    methods = (distribution.Distribution.__dict__["uniform"],
               distribution.Distribution.__init__,
               boolfn.BooleanFunction.__dict__["from_junta"])
    tracer = Tracer()
    with tracer.installed():
        assert getattr(tester.fourier_sample, "__wrapped__", None) is not None
        assert getattr(quantum.restricted_spectrum, "__wrapped__", None) is not None
        assert getattr(harness.distance_to_k_junta, "__wrapped__", None) is not None
    after = {
        (m.__name__, k): v
        for m in (boolfn, distribution, harness, quantum, tester)
        for k, v in vars(m).items()
    }
    assert after == before
    assert methods == (distribution.Distribution.__dict__["uniform"],
                       distribution.Distribution.__init__,
                       boolfn.BooleanFunction.__dict__["from_junta"])


def test_self_time_subtracts_children():
    spans = [
        ["a", 0, 100, -1, 0, None],
        ["b", 10, 40, 0, 0, None],
        ["b", 50, 60, 0, 0, None],
        ["a", 55, 58, 2, 0, None],  # same name nested: a call, not more time
    ]
    stats = layer_stats(spans)
    assert stats["a"]["calls"] == 2 and stats["a"]["s"] == pytest.approx(100e-9)
    assert stats["a"]["self_s"] == pytest.approx((100 - 40 + 3) * 1e-9)
    assert stats["b"]["self_s"] == pytest.approx((30 + 10 - 3) * 1e-9)


def test_budgets_match_the_readme_table():
    assert bench.budgets(4, 0.1, Variant.CLASSICAL) == {
        "classical_queries": 72 * 42, "classical_samples": 72 * 20, "quantum_queries": 72,
    }
    assert bench.budgets(4, 0.1, Variant.AMPLIFIED)["quantum_queries"] == 72 * 13


def test_gate_marks_a_rejected_junta_and_an_overdrawn_ledger(monkeypatch):
    w = bench.WORKLOADS["completeness-classical"]
    small = bench.Workload(w.name, 8, 2, 0.25, w.variant, w.fixture, 4, 1)
    fixture = harness.build_fixture(small.config(SEED, 1), harness.derive_rng(SEED, 0))
    assert bench.run_trial(small, fixture, SEED, 0).failure is None

    class Rejected:
        decision = Decision.REJECT
        final_state = tester.TesterState()

    def reject(oracle, samples, *args):
        oracle.ledger.quantum_queries = 10**6
        return Rejected()

    monkeypatch.setattr(tester, "run_tester", reject)
    failure = bench.run_trial(small, fixture, SEED, 0).failure
    assert "junta rejected" in failure and "quantum_queries" in failure
    tally = bench.Tally()
    tally.add(bench.Trial(1.0, None, QueryLedger(), 0, 0, "raised"))
    problems = []
    bench.check_run(small, tally, [], problems)
    assert problems == ["1 failed trials; the first: raised"]

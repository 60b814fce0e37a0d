"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal (pytest hides passing-test output otherwise).
"""

from math import ceil, sqrt

import numpy as np
import pytest
from scipy.stats import chisquare

from juntatester.boolfn import (
    BitString,
    BooleanFunction,
    Cube,
    restricted_spectrum,
)
from juntatester.distribution import Distribution, distance_to_k_junta
from juntatester.harness import derive_rng, gen_far_fixture, gen_random_junta, gen_sparse_distribution
from juntatester.oracles import MembershipOracle, QueryLedger, SampleOracle
from juntatester.quantum import (
    amplification_schedule,
    _fourier_samples,
    attempt_success_probability,
)
from juntatester.tester import (
    Decision,
    TesterState,
    generate_cube,
    run_tester,
    step,
)

from reference import check_invariants, relevant_variables, subset_for_mask


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def fresh_oracles(f, dist):
    ledger = QueryLedger()
    return MembershipOracle(f, ledger), SampleOracle(dist, ledger), ledger


# ---------------------------------------------------------------- fixtures

SOUNDNESS_N, SOUNDNESS_K, SOUNDNESS_EPS = 12, 3, 0.25


@pytest.fixture(scope="module")
def soundness_fixture():
    f, dist, cert = gen_far_fixture(
        SOUNDNESS_N, SOUNDNESS_K, SOUNDNESS_EPS, derive_rng(2024, 0), "parity"
    )
    assert cert.distance == pytest.approx(0.5)
    return f, dist, cert


@pytest.fixture(scope="module")
def soundness_runs(soundness_fixture):
    """2000 seeded tester runs on the certified-far parity fixture."""
    f, dist, _ = soundness_fixture
    verdicts, ledgers = [], []
    for i in range(2000):
        rng = derive_rng(555, i + 1)
        mo, so, ledger = fresh_oracles(f, dist)
        verdicts.append(run_tester(mo, so, SOUNDNESS_K, SOUNDNESS_EPS, rng))
        ledgers.append(ledger)
    return verdicts, ledgers


@pytest.fixture(scope="module")
def far_suite():
    """The certified-far fixtures exercised by criteria 4 and 5."""
    fixtures = []
    f, d, cert = gen_far_fixture(12, 3, 0.25, derive_rng(2024, 0), "parity")
    fixtures.append(("parity", f, d, cert, 3, 0.25))
    f, d, cert = gen_far_fixture(10, 2, 0.1, derive_rng(2025, 0), "random_function")
    fixtures.append(("random_function", f, d, cert, 2, 0.1))
    f, d, cert = gen_far_fixture(12, 3, 0.25, derive_rng(2026, 0), "planted")
    fixtures.append(("planted", f, d, cert, 3, 0.25))
    return fixtures


@pytest.fixture(scope="module")
def completeness_ledgers():
    return []


# ---------------------------------------------------------------- criteria

def test_criterion_01_completeness(completeness_ledgers):
    """Theorem-level one-sided error: k-juntas are never rejected."""
    rejections = 0
    trials_per_k = 1000
    for k in (1, 2, 4):
        for i in range(trials_per_k):
            rng = derive_rng(16_000 + k, i + 1)
            f = gen_random_junta(16, k, rng)
            dist = gen_sparse_distribution(16, 64, rng)
            mo, so, ledger = fresh_oracles(f, dist)
            verdict = run_tester(mo, so, k, 0.1, rng)
            completeness_ledgers.append((k, 0.1, ledger))
            if verdict.decision is Decision.REJECT:
                rejections += 1
    assert rejections == 0
    report("1 completeness", f"{3 * trials_per_k} junta trials, 0 rejections")


def test_criterion_02_soundness(soundness_fixture, soundness_runs):
    _, _, cert = soundness_fixture
    verdicts, _ = soundness_runs
    rate = sum(v.decision is Decision.REJECT for v in verdicts) / len(verdicts)
    threshold = 0.5 - 3 * sqrt(0.25 / len(verdicts))
    assert cert.distance >= SOUNDNESS_EPS
    assert rate >= threshold
    report(
        "2 soundness",
        f"rejection rate {rate:.4f} >= {threshold:.4f} on distance-0.5 fixture",
    )


def cube_points(cube):
    """Every point x^T, T ⊆ I(B), of the cube as an integer, in increasing T."""
    d = cube.x.value ^ cube.y.value
    return [cube.x.value ^ t for t in range(d + 1) if t & ~d == 0]


def test_criterion_03_fourier_sampler_exactness():
    rng = np.random.default_rng(90210)
    checked = 0
    while checked < 10:
        n = int(rng.integers(3, 9))
        f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
        x = int(rng.integers(0, 1 << n))
        y = int(rng.integers(0, 1 << n))
        if x == y or (x ^ y).bit_count() > 8:
            continue
        cube = Cube(BitString(n, x), BitString(n, y))
        spectrum = restricted_spectrum(f, cube)
        probs = spectrum.coefficients ** 2
        # exact identities at 1e-9
        assert abs(probs.sum() - 1.0) <= 1e-9
        signs = 1.0 - 2.0 * f.table[cube_points(cube)]
        assert abs(spectrum.coefficients[0] - signs.mean()) <= 1e-9
        # chi-square goodness of fit over 1e5 draws at significance 0.001
        draws = _fourier_samples(MembershipOracle(f), cube, rng, 100_000)
        masks = np.zeros(probs.size, dtype=np.int64)
        mask_of = {subset_for_mask(spectrum, m): m for m in range(probs.size)}
        for subset in draws:
            masks[mask_of[subset]] += 1
        keep = probs > 1e-12
        assert masks[~keep].sum() == 0  # nothing lands outside the support
        if keep.sum() >= 2:
            stat, pvalue = chisquare(
                masks[keep], 100_000 * probs[keep] / probs[keep].sum()
            )
            assert pvalue > 0.001
        else:
            # spectrum is a point mass; exact agreement is the whole test
            assert masks[keep].sum() == 100_000
        checked += 1
    report("3 fourier sampler", "10 fixtures, chi-square p > 0.001, identities <= 1e-9")


def test_criterion_04_lemma_attempt_probability(far_suite):
    """Exact per-attempt success probability >= eps/2 for every S seen in 100 runs."""
    checked = 0
    for fixture_idx, (name, f, dist, cert, k, eps) in enumerate(far_suite):
        seen: set[frozenset] = set()
        for i in range(100):
            rng = derive_rng(40_000 + fixture_idx, i + 1)
            mo, so, _ = fresh_oracles(f, dist)
            state = TesterState()
            while len(state.trace) < 18 * k and len(state.s) + len(state.cubes) <= k:
                if not state.cubes and len(state.s) <= k:
                    seen.add(state.s)
                state = step(state, mo, so, k, eps, rng)
        for s in seen:
            p = attempt_success_probability(f, dist, s)
            assert p >= eps / 2, (name, sorted(s), p)
            checked += 1
    report("4 lemma bound", f"{checked} (fixture, S) pairs, all p >= eps/2 exactly")


def test_criterion_05_generate_cube_failure_bound(far_suite):
    for name, f, dist, cert, k, eps in far_suite:
        p = attempt_success_probability(f, dist, frozenset())
        attempts = ceil(2 / eps)
        exact_failure = (1 - p) ** attempts
        assert exact_failure < 0.5
        rng = derive_rng(424242, 1)
        runs = 5000
        failures = 0
        for _ in range(runs):
            mo, so, _ = fresh_oracles(f, dist)
            if generate_cube(mo, so, frozenset(), eps, rng) is None:
                failures += 1
        sigma = sqrt(0.25 / runs)
        assert failures / runs <= 0.5 + 3 * sigma, name
        # empirical rate should also track the exact failure probability
        assert abs(failures / runs - exact_failure) <= max(
            3 * sqrt(exact_failure * (1 - exact_failure) / runs), 0.01
        ), name
    report("5 generate-cube failure", "exact (1-p)^ceil(2/eps) < 1/2 and empirical <= 0.5+3s")


def test_criterion_06_growth_property(soundness_fixture, soundness_runs):
    verdicts = list(soundness_runs[0])
    # pool further traced soundness runs until the 1e4-iteration floor is met
    f, dist, _ = soundness_fixture
    extra = 0
    while sum(len(v.final_state.trace) for v in verdicts) < 10_000:
        extra += 1
        rng = derive_rng(555, 2000 + extra)
        mo, so, _ = fresh_oracles(f, dist)
        verdicts.append(run_tester(mo, so, SOUNDNESS_K, SOUNDNESS_EPS, rng))
    increases = 0
    iterations = 0
    for verdict in verdicts:
        prev = 0
        for rec in verdict.final_state.trace:
            iterations += 1
            if rec.potential > prev:
                increases += 1
            prev = rec.potential
    assert iterations >= 10_000
    sigma = sqrt((1 / 3) * (2 / 3) / iterations)
    rate = increases / iterations
    assert rate >= 1 / 3 - 3 * sigma
    report(
        "6 growth property",
        f"{iterations} pooled iterations, growth rate {rate:.4f} >= {1/3 - 3*sigma:.4f}",
    )


def test_criterion_07_budget_invariants(completeness_ledgers, soundness_runs):
    assert completeness_ledgers, "completeness suite must run first"
    _, soundness_ledgers = soundness_runs
    checked = 0
    for k, eps, ledger in completeness_ledgers:
        assert ledger.quantum_queries <= 18 * k
        assert ledger.classical_samples <= 18 * k * ceil(2 / eps)
        assert ledger.classical_queries <= 18 * k * (2 * ceil(2 / eps) + 2)
        checked += 1
    for ledger in soundness_ledgers:
        k, eps = SOUNDNESS_K, SOUNDNESS_EPS
        assert ledger.quantum_queries <= 18 * k
        assert ledger.classical_samples <= 18 * k * ceil(2 / eps)
        assert ledger.classical_queries <= 18 * k * (2 * ceil(2 / eps) + 2)
        checked += 1
    report("7 budget invariants", f"{checked} completed runs within all three budgets")


def test_criterion_08_state_invariants(soundness_fixture):
    far_f, far_d, _ = soundness_fixture
    rng0 = derive_rng(808, 0)
    fixtures = [
        (gen_random_junta(12, 3, rng0), gen_sparse_distribution(12, 32, rng0), 3, 0.25),
        (far_f, far_d, SOUNDNESS_K, SOUNDNESS_EPS),
        (
            BooleanFunction(10, rng0.integers(0, 2, size=1 << 10, dtype=np.int64)),
            Distribution.point_mass(BitString(10, int(rng0.integers(0, 1 << 10)))),
            2,
            0.25,
        ),
    ]
    runs = 0
    iterations = 0
    for idx, (f, dist, k, eps) in enumerate(fixtures):
        for i in range(34):
            rng = derive_rng(808 + idx, i + 1)
            mo, so, _ = fresh_oracles(f, dist)
            state = TesterState()
            while len(state.trace) < 18 * k and len(state.s) + len(state.cubes) <= k:
                state = step(state, mo, so, k, eps, rng)
                assert check_invariants(state, f)
                iterations += 1
            runs += 1
    assert runs >= 100
    report("8 state invariants", f"{runs} traced runs, {iterations} iterations all pass")


def test_criterion_09_amplified_variant(soundness_fixture):
    f, dist, cert = soundness_fixture
    eps = 0.04
    assert cert.distance >= eps
    budget = 18 * SOUNDNESS_K * ceil(4 / sqrt(eps))
    rejects = 0
    runs = 2000
    for i in range(runs):
        rng = derive_rng(9009, i + 1)
        mo, so, ledger = fresh_oracles(f, dist)
        verdict = run_tester(mo, so, SOUNDNESS_K, eps, rng, "amplified")
        assert ledger.quantum_queries <= budget
        if verdict.decision is Decision.REJECT:
            rejects += 1
    rate = rejects / runs
    threshold = 0.5 - 3 * sqrt(0.25 / runs)
    assert rate >= threshold
    report(
        "9 amplified variant",
        f"rejection rate {rate:.4f} >= {threshold:.4f}, quantum charge <= {budget}/run",
    )


def test_criterion_10_distance_oracle_self_consistency():
    rng = np.random.default_rng(1010)
    for _ in range(50):
        n = int(rng.integers(4, 11))
        f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
        if rng.random() < 0.5:
            dist = Distribution.dense(n, rng.random(1 << n))
        else:
            dist = gen_sparse_distribution(n, int(rng.integers(1, 1 << n)), rng)
        k = int(rng.integers(1, min(n - 1, 4) + 1))
        cert = distance_to_k_junta(f, dist, k)
        w = dist.dense_weights()
        direct = float(np.sum(w * (cert.best_junta.table != f.table)))
        assert abs(cert.distance - direct) <= 1e-9
        assert len(cert.best_subset) <= k
        assert relevant_variables(cert.best_junta) <= cert.best_subset
        cert_next = distance_to_k_junta(f, dist, k + 1)
        assert cert_next.distance <= cert.distance + 1e-9
    report("10 distance oracle", "50 instances: re-evaluation exact, monotone in k")

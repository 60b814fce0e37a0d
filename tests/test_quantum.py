import itertools
from math import ceil, sqrt

import numpy as np
import pytest

from juntatester.boolfn import (
    BitString, BooleanFunction, Cube, cube_point_indices, restricted_spectrum
)
from juntatester.distribution import Distribution
from juntatester.oracles import MembershipOracle, QueryLedger, SampleOracle
from juntatester.quantum import (
    DegenerateCubeError,
    amplification_schedule,
    amplified_generate_cube,
    attempt_success_probability,
    fourier_sample,
    fourier_sample_many,
    stage_success_probability,
)


def brute_force_attempt_probability(f, dist, fixed):
    """Independent oracle: enumerate support(D) x all subsets of the free variables."""
    free = [i for i in range(1, f.n + 1) if i not in fixed]
    total = 0.0
    for idx, p in zip(dist.support, dist.probs):
        hits = 0
        for bits in itertools.product([0, 1], repeat=len(free)):
            flipped = idx
            for v, b in zip(free, bits):
                if b:
                    flipped ^= 1 << (v - 1)
            if f.table[idx] != f.table[flipped]:
                hits += 1
        total += p * hits / (1 << len(free))
    return total


class TestFourierSample:
    def test_constant_always_empty(self):
        oracle = MembershipOracle(BooleanFunction(3, np.ones(8)))
        B = Cube(BitString.from_str("000"), BitString.from_str("110"))
        rng = np.random.default_rng(0)
        assert all(fourier_sample(oracle, B, rng) == frozenset() for _ in range(50))

    def test_parity_always_full(self):
        oracle = MembershipOracle(BooleanFunction.parity(4, [1, 2, 4]))
        B = Cube(BitString.from_str("0000"), BitString.from_str("1101"))
        rng = np.random.default_rng(1)
        assert all(
            fourier_sample(oracle, B, rng) == frozenset({1, 2, 4}) for _ in range(50)
        )

    def test_charges_one_quantum_query(self):
        ledger = QueryLedger()
        oracle = MembershipOracle(BooleanFunction.parity(2, [1]), ledger)
        B = Cube(BitString.from_str("00"), BitString.from_str("11"))
        fourier_sample(oracle, B, np.random.default_rng(2))
        assert ledger.to_json() == {
            "classical_queries": 0,
            "classical_samples": 0,
            "quantum_queries": 1,
        }

    def test_degenerate_cube_rejected(self):
        oracle = MembershipOracle(BooleanFunction(2, np.zeros(4)))
        x = BitString.from_str("01")
        with pytest.raises(DegenerateCubeError):
            fourier_sample(oracle, Cube(x, x), np.random.default_rng(0))

    def test_and_frequencies(self):
        # AND spectrum is (1/2, 1/2, 1/2, -1/2): each subset has probability 1/4;
        # 1e5 draws, binomial 3-sigma bound ~0.0041 < 0.006
        ledger = QueryLedger()
        oracle = MembershipOracle(BooleanFunction(2, np.array([0, 0, 0, 1])), ledger)
        B = Cube(BitString.from_str("00"), BitString.from_str("11"))
        draws = fourier_sample_many(oracle, B, np.random.default_rng(3), 100000)
        assert ledger.quantum_queries == 100000
        for subset in [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]:
            freq = sum(1 for d in draws if d == subset) / 100000
            assert abs(freq - 0.25) < 0.006

    def test_nonempty_outcomes_are_relevant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            x = int(rng.integers(0, 1 << n))
            y = int(rng.integers(0, 1 << n))
            if x == y:
                continue
            oracle = MembershipOracle(f)
            B = Cube(BitString(n, x), BitString(n, y))
            relevant = f.relevant_variables()
            for subset in fourier_sample_many(oracle, B, rng, 200):
                assert subset <= relevant

    def test_empty_probability_identity(self):
        # Pr[T = empty] equals the squared average of (-1)^f over the cube
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            x, y = 0, int(rng.integers(1, 1 << n))
            B = Cube(BitString(n, x), BitString(n, y))
            sp = restricted_spectrum(f, B)
            signs = [(-1) ** int(f.table[v]) for v in cube_point_indices(B)[1]]
            avg = sum(signs) / len(signs)
            assert sp.squared()[0] == pytest.approx(avg**2, abs=1e-9)

    def test_far_from_constant_gives_nonempty_often(self):
        # if f restricted to B is 1/3-far from constant on B, Pr[T != empty] >= 8/9
        rng = np.random.default_rng(9)
        found = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            B = Cube(BitString(n, 0), BitString(n, (1 << n) - 1))
            ones = int(f.table.sum())
            dist_const = min(ones, (1 << n) - ones) / (1 << n)
            if dist_const < 1 / 3:
                continue
            found += 1
            sp = restricted_spectrum(f, B)
            assert 1.0 - sp.squared()[0] >= 8 / 9 - 1e-9
        assert found > 0


class TestAttemptSuccessProbability:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            d = Distribution.dense(n, rng.random(1 << n))
            fixed = frozenset(
                int(v) for v in rng.choice(np.arange(1, n + 1), size=n // 2, replace=False)
            )
            assert attempt_success_probability(f, d, fixed) == pytest.approx(
                brute_force_attempt_probability(f, d, fixed), abs=1e-12
            )

    def test_parity_with_free_parity_variable(self):
        f = BooleanFunction.parity(4, [1, 2])
        d = Distribution.uniform(4)
        assert attempt_success_probability(f, d, frozenset()) == pytest.approx(0.5)
        # once all parity variables are fixed, no flip can change the value
        assert attempt_success_probability(f, d, frozenset({1, 2})) == pytest.approx(0.0)


class TestAmplification:
    def test_schedule_respects_budget(self):
        for eps in (0.04, 0.1, 0.25, 0.5, 1.0):
            stages, budget = amplification_schedule(eps)
            assert budget == ceil(4 / sqrt(eps))
            assert sum(stages) <= budget
            assert stages == [ceil(2 ** (j / 2)) for j in range(len(stages))]

    def test_stage_success_at_p_one(self):
        # arcsin(1) = pi/2, so any odd multiple keeps the amplitude at 1
        assert stage_success_probability(1, 1.0) == pytest.approx(1.0)
        assert stage_success_probability(7, 1.0) == pytest.approx(1.0)

    def test_guarantee_holds_for_small_eps(self):
        # design constant 4: overall success >= 1/2 whenever p >= eps/2,
        # verified on the regime the suite uses (eps <= 0.25)
        for eps in (0.01, 0.04, 0.1, 0.25):
            stages, _ = amplification_schedule(eps)
            for p in np.linspace(eps / 2, 1.0, 4001):
                fail = np.prod([1 - stage_success_probability(r, p) for r in stages])
                assert 1 - fail >= 0.5, (eps, p)

    def test_constant_function_always_fails(self):
        ledger = QueryLedger()
        f = BooleanFunction(4, np.zeros(16))
        oracle = MembershipOracle(f, ledger)
        samples = SampleOracle(Distribution.uniform(4), ledger)
        rng = np.random.default_rng(17)
        for _ in range(20):
            assert amplified_generate_cube(oracle, samples, frozenset(), 0.25, rng) is None
        stages, budget = amplification_schedule(0.25)
        assert ledger.quantum_queries == 20 * sum(stages)
        assert ledger.quantum_queries <= 20 * budget

    def test_quantum_charge_bounded_per_invocation(self):
        f = BooleanFunction.parity(5, [1, 2, 3])
        dist = Distribution.uniform(5)
        rng = np.random.default_rng(19)
        for eps in (0.04, 0.2, 0.7):
            ledger = QueryLedger()
            oracle = MembershipOracle(f, ledger)
            samples = SampleOracle(dist, ledger)
            amplified_generate_cube(oracle, samples, frozenset(), eps, rng)
            assert ledger.quantum_queries <= ceil(4 / sqrt(eps))

    def test_returned_cube_is_relevant_and_disjoint(self):
        f = BooleanFunction.parity(5, [1, 2, 3])
        dist = Distribution.uniform(5)
        rng = np.random.default_rng(23)
        fixed = frozenset({4})
        oracle = MembershipOracle(f)
        samples = SampleOracle(dist)
        got = 0
        for _ in range(50):
            cube = amplified_generate_cube(oracle, samples, fixed, 0.25, rng)
            if cube is None:
                continue
            got += 1
            assert f.eval(cube.x) != f.eval(cube.y)
            assert not cube.disagreement & fixed
        assert got > 0

    def test_success_rate_on_far_fixture(self):
        # p computed exactly; analytic success rate from the stage formula;
        # empirical agreement within 3 sigma over 2000 runs
        f = BooleanFunction.parity(6, [1, 2, 3])
        dist = Distribution.uniform(6)
        eps = 0.25
        p = attempt_success_probability(f, dist, frozenset())
        assert p >= eps / 2
        stages, _ = amplification_schedule(eps)
        analytic = 1 - np.prod([1 - stage_success_probability(r, p) for r in stages])
        assert analytic >= 0.5
        rng = np.random.default_rng(29)
        oracle = MembershipOracle(f)
        samples = SampleOracle(dist)
        runs = 2000
        hits = sum(
            amplified_generate_cube(oracle, samples, frozenset(), eps, rng) is not None
            for _ in range(runs)
        )
        sigma = sqrt(analytic * (1 - analytic) / runs)
        assert abs(hits / runs - analytic) <= max(3 * sigma, 0.01)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            amplification_schedule(0.0)
        with pytest.raises(ValueError):
            amplification_schedule(1.5)

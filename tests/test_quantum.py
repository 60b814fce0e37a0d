import gc
import itertools
import tracemalloc
import weakref
from math import ceil, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juntatester import quantum
from juntatester.boolfn import (
    BitString, BooleanFunction, Cube, cube_point_indices, restricted_spectrum
)
from juntatester.distribution import Distribution
from juntatester.oracles import MembershipOracle, QueryLedger, SampleOracle
from juntatester.quantum import (
    DegenerateCubeError,
    _absorbing,
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


def reference_attempt_probability(f, dist, fixed):
    """The formula of `attempt_success_probability`, recomputed with no memo."""
    vars_ = tuple(sorted(fixed))
    points = np.arange(1 << f.n, dtype=np.int64)
    proj = np.zeros(1 << f.n, dtype=np.int64)  # bit j: the point's value of vars_[j]
    for j, v in enumerate(vars_):
        proj |= (points >> (v - 1) & 1) << j
    table = f.table.astype(np.float64)
    mean = np.bincount(proj, weights=table, minlength=1 << len(vars_)) / (
        1 << (f.n - len(vars_))
    )
    fx = table[dist.support]
    mu = mean[proj[dist.support]]
    return float(np.sum(dist.probs * (fx * (1.0 - mu) + (1.0 - fx) * mu)))


def brute_force_absorbing(f, dist, fixed):
    """No support point x, whatever its weight, and no T ⊆ [n]\\S with f(x) != f(x^T)."""
    free = [v for v in range(1, f.n + 1) if v not in fixed]
    tmasks = np.array([sum(1 << (v - 1) for v, b in zip(free, bits) if b)
                       for bits in itertools.product([0, 1], repeat=len(free))])
    return all(np.all(f.table[x ^ tmasks] == f.table[x]) for x in dist.support)


@st.composite
def fixtures_with_sets(draw):
    """(f, D, S) on n <= 6: a junta or a random table; a sparse D whose weights
    may be 0, the last one included."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        variables = draw(st.lists(st.integers(1, n), max_size=n, unique=True))
        inner = draw(st.lists(st.integers(0, 1), min_size=1 << len(variables),
                              max_size=1 << len(variables)))
        f = BooleanFunction.from_junta(n, variables, inner)
    else:
        f = BooleanFunction(n, np.array(draw(st.lists(st.integers(0, 1), min_size=1 << n,
                                                       max_size=1 << n))))
    support = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n,
                            unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(support), max_size=len(support))
                   .filter(any))
    fixed = draw(st.sets(st.integers(1, n)))
    return f, Distribution(n, support, weights), frozenset(fixed)


class TestAbsorbing:
    @settings(max_examples=150, deadline=None)
    @given(fixtures_with_sets())
    def test_matches_brute_force(self, fixture):
        f, dist, fixed = fixture
        assert _absorbing(f, dist, fixed) == brute_force_absorbing(f, dist, fixed)

    def test_every_set_of_small_fixtures(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n) * (rng.random(1 << n) < 0.3))
            size = int(rng.integers(1, (1 << n) + 1))
            weights = rng.integers(0, 2, size=size)
            weights[0] = 1
            dist = Distribution(n, rng.permutation(1 << n)[:size], weights)
            for r in range(n + 1):
                for fixed in itertools.combinations(range(1, n + 1), r):
                    fixed = frozenset(fixed)
                    absorbing = _absorbing(f, dist, fixed)
                    assert absorbing == brute_force_absorbing(f, dist, fixed)
                    if absorbing:
                        assert attempt_success_probability(f, dist, fixed) == 0.0

    def test_a_zero_weight_last_support_point_counts(self):
        """`sample_indices` can return the last support entry whatever its weight."""
        f = BooleanFunction.from_junta(3, [1, 2], [0, 0, 0, 1])  # x1 AND x2
        # the weighted point has x1 = 0, where f is 0; the last one has x1 = 1
        dist = Distribution(3, np.array([0, 1]), np.array([1.0, 0.0]))
        assert attempt_success_probability(f, dist, frozenset({1})) == 0.0
        assert not _absorbing(f, dist, frozenset({1}))
        assert _absorbing(f, dist, frozenset({1, 2}))

    def test_memory_per_point_on_a_miss(self):
        """At n = 16 under uniform D a miss peaks at <= 2 bytes per point: the class
        counts need no full-size copy, and the support mark is one uint8 per point."""
        n = 16
        f = BooleanFunction.from_junta(n, [3, 9], [0, 1, 1, 0])
        dist = Distribution.uniform(n)
        tracemalloc.start()
        try:
            assert not _absorbing(f, dist, frozenset({9}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << n


class TestAttemptMemo:
    def test_entries_die_with_f_and_dist(self):
        gc.collect()
        before = len(quantum._MEMO)
        f, g = BooleanFunction.parity(5, [1, 2]), BooleanFunction.parity(5, [3])
        dist = Distribution.uniform(5)
        for h in (f, g):
            attempt_success_probability(h, dist, frozenset({1}))
            _absorbing(h, dist, frozenset({1}))
        assert len(quantum._MEMO) == before + 1 and len(quantum._MEMO[dist]) == 2
        del g, h
        gc.collect()
        assert len(quantum._MEMO[dist]) == 1
        refs = weakref.ref(f), weakref.ref(dist)
        del f, dist
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(quantum._MEMO) == before

    def test_fixtures_never_share_an_entry(self):
        """Equal arrays in distinct objects are distinct fixtures."""
        rng = np.random.default_rng(5)
        table = rng.integers(0, 2, size=1 << 6)
        weights = rng.random(1 << 6)
        fs = [BooleanFunction(6, table), BooleanFunction(6, table),
              BooleanFunction(6, 1 - table)]
        dists = [Distribution.dense(6, weights), Distribution.dense(6, weights),
                 Distribution.uniform(6)]
        memos = [quantum._memo(f, d) for f in fs for d in dists]
        assert len({id(m) for m in memos}) == len(memos)
        for fixed in (frozenset(), frozenset({2, 5})):
            for f in fs:
                for d in dists:
                    assert attempt_success_probability(f, d, fixed) == (
                        reference_attempt_probability(f, d, fixed)
                    )

    def test_memoized_p_equals_the_formula(self):
        rng = np.random.default_rng(7)
        f = BooleanFunction(7, rng.integers(0, 2, size=1 << 7))
        dist = Distribution.dense(7, rng.random(1 << 7))
        for fixed in ({1}, {1, 4}, {1, 4, 6}, {1}):
            first = attempt_success_probability(f, dist, set(fixed))
            again = attempt_success_probability(f, dist, frozenset(fixed))
            assert first == again == reference_attempt_probability(f, dist, fixed)


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


    def test_draws_match_the_out_of_place_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
            B = Cube(BitString(n, 0), BitString(n, int(rng.integers(1, 1 << n))))
            seed = int(rng.integers(2**32))
            got = fourier_sample_many(MembershipOracle(f), B, np.random.default_rng(seed), 50)
            spectrum = restricted_spectrum(f, B)
            probs = spectrum.squared()
            cum = np.cumsum(probs / probs.sum())
            u = np.random.default_rng(seed).random(50)
            masks = np.minimum(np.searchsorted(cum, u, side="right"), probs.size - 1)
            assert got == [spectrum.subset_for_mask(int(m)) for m in masks]

    def test_memory_per_cube_point(self):
        """One sample on a 16-dimensional cube peaks at <= 28 bytes per point:
        the point indices are dropped after the gather, and the transform,
        the normalization and the cumulative sum work in place."""
        n, m = 17, 16
        f = BooleanFunction(n, np.random.default_rng(2).integers(0, 2, size=1 << n))
        B = Cube(BitString(n, 1 << m), BitString(n, (1 << (m + 1)) - 1))
        oracle, rng = MembershipOracle(f), np.random.default_rng(3)
        fourier_sample(oracle, B, rng)
        tracemalloc.start()
        try:
            fourier_sample(oracle, B, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 << m


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
            stages, budget = amplification_schedule(eps), ceil(4 / sqrt(eps))
            assert sum(stages) <= budget < sum(stages) + ceil(2 ** (len(stages) / 2))
            assert stages == [ceil(2 ** (j / 2)) for j in range(len(stages))]

    def test_stage_success_at_p_one(self):
        # arcsin(1) = pi/2, so any odd multiple keeps the amplitude at 1
        assert stage_success_probability(1, 1.0) == pytest.approx(1.0)
        assert stage_success_probability(7, 1.0) == pytest.approx(1.0)

    def test_guarantee_holds_for_small_eps(self):
        # design constant 4: overall success >= 1/2 whenever p >= eps/2,
        # verified on the regime the suite uses (eps <= 0.25)
        for eps in (0.01, 0.04, 0.1, 0.25):
            stages = amplification_schedule(eps)
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
        stages = amplification_schedule(0.25)
        assert ledger.quantum_queries == 20 * sum(stages)
        assert ledger.quantum_queries <= 20 * ceil(4 / sqrt(0.25))

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
        stages = amplification_schedule(eps)
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

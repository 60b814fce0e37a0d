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
    N_MAX, BitString, BooleanFunction, Cube, DimensionMismatchError, restricted_spectrum
)
from juntatester.distribution import Distribution
from juntatester.oracles import MembershipOracle, QueryLedger, SampleOracle
from juntatester.quantum import (
    DegenerateCubeError,
    _absorbing,
    _fourier_samples,
    amplification_schedule,
    amplified_generate_cube,
    attempt_success_probability,
    first_relevant_attempt,
    fourier_sample,
    stage_success_probability,
)

from reference import reference_first_relevant_attempt, relevant_variables, subset_for_mask


def cube_points(cube):
    """Every point x^T, T ⊆ I(B), of the cube as an integer, in increasing T."""
    d = cube.x.value ^ cube.y.value
    return [cube.x.value ^ t for t in range(d + 1) if t & ~d == 0]


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
        """`_absorbing` counts a zero-weight support point, though `sample_indices`
        never draws one: a zero-weight last entry still makes S non-absorbing."""
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


class TestUniformForm:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_p_and_absorbing_match_the_dense_form(self, data, seed):
        """Pins p and `_absorbing` under `Distribution.uniform`, which reads the whole
        table with the scalar weight 2^-n, to `==` those under the explicit dense D."""
        n = data.draw(st.integers(1, 10))
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans()):
            variables = data.draw(st.lists(st.integers(1, n), max_size=n, unique=True))
            f = BooleanFunction.from_junta(
                n, variables, rng.integers(0, 2, size=1 << len(variables)))
        else:
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
        fixed = frozenset(data.draw(st.sets(st.integers(1, n))))
        uniform, dense = Distribution.uniform(n), Distribution.dense(n, np.ones(1 << n))
        assert attempt_success_probability(f, uniform, fixed) == (
            attempt_success_probability(f, dense, fixed))
        assert _absorbing(f, uniform, fixed) == _absorbing(f, dense, fixed)


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

    def test_memory_per_point_on_a_miss(self):
        """At n = 16 under uniform D a miss of p peaks at <= 17 bytes per point: μ
        expanded to every point and gathered at the support, 8 bytes each."""
        n = 16
        f = BooleanFunction.from_junta(n, [3, 9], [0, 1, 1, 0])
        dist = Distribution.uniform(n)
        tracemalloc.start()
        try:
            assert attempt_success_probability(f, dist, frozenset({9})) == 0.5
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 << n

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
        draws = _fourier_samples(oracle, B, np.random.default_rng(3), 100000)
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
            relevant = relevant_variables(f)
            for subset in _fourier_samples(oracle, B, rng, 200):
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
            signs = [(-1) ** int(f.table[v]) for v in cube_points(B)]
            avg = sum(signs) / len(signs)
            assert sp.coefficients[0] ** 2 == pytest.approx(avg**2, abs=1e-9)

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
            assert 1.0 - sp.coefficients[0] ** 2 >= 8 / 9 - 1e-9
        assert found > 0


    def test_draws_match_the_out_of_place_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
            B = Cube(BitString(n, 0), BitString(n, int(rng.integers(1, 1 << n))))
            seed = int(rng.integers(2**32))
            got = _fourier_samples(MembershipOracle(f), B, np.random.default_rng(seed), 50)
            spectrum = restricted_spectrum(f, B)
            probs = spectrum.coefficients ** 2
            cum = np.cumsum(probs / probs.sum())
            u = np.random.default_rng(seed).random(50)
            masks = np.minimum(np.searchsorted(cum, u, side="right"), probs.size - 1)
            assert got == [subset_for_mask(spectrum, int(m)) for m in masks]

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

    def test_memory_per_cube_point_of_a_junta(self):
        """With a junta backing, one sample on a 16-dimensional cube peaks at <= 1
        byte per point: f is read through a view slice, and only the cube
        variables the junta reads are transformed. The measured cube differs from
        the first in variable 17 of x, so its draw table is not memoized yet."""
        n, m = 17, 16
        inner = np.random.default_rng(2).integers(0, 2, size=16)
        f = BooleanFunction.from_junta(n, [3, 8, 13, 17], inner)
        B = Cube(BitString(n, 1 << m), BitString(n, (1 << (m + 1)) - 1))
        oracle, rng = MembershipOracle(f), np.random.default_rng(3)
        fourier_sample(oracle, B, rng)
        tracemalloc.start()
        try:
            fourier_sample(oracle, Cube(BitString(n, 0), BitString(n, (1 << m) - 1)), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << m


def reference_draws(f, cube, rng, count):
    """The Fourier draw with no memo: `restricted_spectrum`, the cumulative sum of
    its squares, and one binary search per uniform."""
    spectrum = restricted_spectrum(f, cube)
    masks = np.searchsorted(np.cumsum(spectrum.coefficients ** 2), rng.random(count), side="right")
    return [subset_for_mask(spectrum, int(m)) for m in masks]


class TestDrawMemo:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_a_warm_or_cold_memo_changes_no_draw(self, data, count, seed):
        """The same subsets, next `rng.random()` and ledger as the draw with no
        memo, for 1 and `count` samples, from a cold memo and from one warmed by
        every other cube with the same I(B), the one with every bit of x flipped first."""
        n = data.draw(st.integers(3, 9))
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans()):
            # r <= (n - 3)/2, so that the memo keeps this f's tables
            variables = data.draw(st.lists(st.integers(1, n), max_size=(n - 3) // 2, unique=True))
            f = BooleanFunction.from_junta(
                n, variables, rng.integers(0, 2, size=1 << len(variables)))
        else:
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
        x, d = int(rng.integers(0, 1 << n)), int(rng.integers(1, 1 << n))
        cube = Cube(BitString(n, x), BitString(n, x ^ d))
        others = [Cube(BitString(n, x ^ w), BitString(n, x ^ w ^ d))
                  for w in range((1 << n) - 1, 0, -1)]
        for warm, c in itertools.product((False, True), (1, count)):
            quantum._DRAWS.pop(f, None)
            for other in others if warm else ():
                _fourier_samples(MembershipOracle(f), other, rng, 1)
            ledger, mine, theirs = QueryLedger(), *map(np.random.default_rng, (seed, seed))
            got = _fourier_samples(MembershipOracle(f, ledger), cube, mine, c)
            assert got == reference_draws(f, cube, theirs, c)
            assert mine.random() == theirs.random()
            assert ledger.to_json() == {
                "classical_queries": 0, "classical_samples": 0, "quantum_queries": c}

    @pytest.mark.parametrize("n, variables", [(3, []), (5, [2]), (7, [3, 6])])
    def test_a_sweep_of_every_cube_stays_in_the_bound(self, n, variables):
        """3^r keys and 4^r floats for r junta variables, the bound, which a sweep
        of every cube reaches; here 8·4^r = 2^n bytes, the most the size rule
        allows at n."""
        r = len(variables)
        rng = np.random.default_rng(n)
        f = BooleanFunction.from_junta(n, variables, rng.integers(0, 2, size=1 << r))
        oracle = MembershipOracle(f)
        for x, y in itertools.permutations(range(1 << n), 2):
            _fourier_samples(oracle, Cube(BitString(n, x), BitString(n, y)), rng, 1)
        entries = quantum._DRAWS[f]
        assert len(entries) == 3**r
        assert sum(cum.size for _, cum in entries.values()) == 4**r

    @pytest.mark.parametrize("n, variables", [(6, None), (6, [1, 4]), (8, [2, 3, 5]), (2, [])])
    def test_no_entry_without_a_backing_or_past_the_size_rule(self, n, variables):
        """A plain table, or r > (n - 3)/2 junta variables, whose 8·4^r bytes of
        tables would exceed f's 2^n-byte table: the draw stores nothing."""
        rng = np.random.default_rng(n)
        if variables is None:
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
        else:
            f = BooleanFunction.from_junta(
                n, variables, rng.integers(0, 2, size=1 << len(variables)))
        full = Cube(BitString(n, 0), BitString(n, (1 << n) - 1))
        fourier_sample(MembershipOracle(f), full, rng)
        assert f not in quantum._DRAWS

    def test_a_cube_of_another_dimension_is_refused_on_a_warm_memo(self):
        f = BooleanFunction.parity(5, [2])
        oracle, rng = MembershipOracle(f), np.random.default_rng(0)
        fourier_sample(oracle, Cube(BitString(5, 0), BitString(5, 3)), rng)
        with pytest.raises(DimensionMismatchError):
            fourier_sample(oracle, Cube(BitString(6, 0), BitString(6, 3)), rng)

    def test_entries_die_with_f(self):
        gc.collect()
        before = len(quantum._DRAWS)
        f = BooleanFunction.parity(5, [2])
        fourier_sample(MembershipOracle(f), Cube(BitString(5, 0), BitString(5, 3)),
                       np.random.default_rng(0))
        assert len(quantum._DRAWS) == before + 1 and len(quantum._DRAWS[f]) == 1
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None
        assert len(quantum._DRAWS) == before


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


class TestAttemptDraw:
    def test_n_max_fits_a_float32_uniform(self):
        """`first_relevant_attempt` draws T as floor(u·2^n) for a float32 u,
        which has 24 random bits: that is exactly uniform on n-bit masks, and
        the same bits as `rng.integers`, only while n <= 24."""
        assert N_MAX <= 24

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 300), st.integers(0, 2**64 - 1),
           st.lists(st.tuples(st.sampled_from(["random", "float32", "integers"]),
                              st.integers(1, 24)), max_size=6))
    def test_float32_uniforms_are_the_integers_draw(self, n, count, seed, prefix):
        """floor(u·2^n) for float32 uniforms u gives the array of
        `integers(0, 2**n)` and leaves the same generator state, after a prefix
        of draws that leaves the stream's spare 32-bit half set or clear."""
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (mine, theirs):
            for kind, m in prefix:
                if kind == "random":
                    rng.random()
                elif kind == "float32":
                    rng.random(m, dtype=np.float32)
                else:
                    rng.integers(0, 2**m)
        got = (mine.random(count, dtype=np.float32) * (1 << n)).astype(np.int64)
        assert np.array_equal(got, theirs.integers(0, 2**n, size=count, dtype=np.int64))
        assert mine.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 10), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_matches_the_integers_reference(self, data, n, count, seed):
        """The same first hit (or None) and end state as the reference that
        draws T with `rng.integers`, under uniform, sparse and point-mass D."""
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans()):
            variables = data.draw(st.lists(st.integers(1, n), max_size=n, unique=True))
            f = BooleanFunction.from_junta(
                n, variables, rng.integers(0, 2, size=1 << len(variables)))
        else:
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
        kind = data.draw(st.sampled_from(["uniform", "sparse", "point mass"]))
        if kind == "uniform":
            dist = Distribution.uniform(n)
        elif kind == "sparse":
            support = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                         max_size=1 << n, unique=True))
            dist = Distribution(n, support, rng.random(len(support)) + 0.1)
        else:
            dist = Distribution.point_mass(BitString(n, int(rng.integers(0, 1 << n))))
        fixed = frozenset(data.draw(st.sets(st.integers(1, n))))
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert first_relevant_attempt(f, dist, fixed, count, mine) == \
            reference_first_relevant_attempt(f, dist, fixed, count, theirs)
        assert mine.bit_generator.state == theirs.bit_generator.state


class TestAmplification:
    def test_schedule_respects_budget(self):
        for eps in (0.04, 0.1, 0.25, 0.5, 1.0):
            stages, budget = amplification_schedule(eps), ceil(4 / sqrt(eps))
            assert sum(stages) <= budget < sum(stages) + ceil(2 ** (len(stages) / 2))
            assert stages == tuple(ceil(2 ** (j / 2)) for j in range(len(stages)))

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
            assert int(f.table[cube.x.value]) != int(f.table[cube.y.value])
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

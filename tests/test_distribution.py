import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juntatester.boolfn import BitString, BooleanFunction
from juntatester.distribution import (
    Distribution,
    WorkCapExceededError,
    best_junta_on,
    distance_to_k_junta,
)


def brute_force_distance(f, dist, k):
    """Independent oracle: try every k-subset and every inner table."""
    w = dist.dense_weights()
    best = 1.0
    for subset in itertools.combinations(range(1, f.n + 1), k):
        for inner_bits in itertools.product([0, 1], repeat=1 << k):
            h = BooleanFunction.from_junta(f.n, subset, inner_bits)
            err = float(np.sum(w * (h.table != f.table)))
            best = min(best, err)
    return best


def reference_certificate(f, dist, k):
    """Full-table scan: one `best_junta_on` call per k-subset, lexicographic order."""
    best = None
    for subset in itertools.combinations(range(1, f.n + 1), k):
        junta, error = best_junta_on(f, dist, subset)
        if best is None or error < best[0] - 1e-9:
            best = (error, subset, junta)
        if best[0] <= 0.0:
            break
    error, subset, junta = best
    return max(error, 0.0), frozenset(subset), junta


def _function(kind, n, rng):
    if kind == "parity":
        size = int(rng.integers(1, n + 1))
        return BooleanFunction.parity(n, rng.choice(np.arange(1, n + 1), size, replace=False))
    if kind == "random":
        table = rng.integers(0, 2, size=1 << n)
    elif kind == "few_ones":
        table = np.zeros(1 << n, dtype=np.int64)
        table[rng.integers(0, 1 << n, size=int(rng.integers(1, 4)))] = 1
    else:  # sparse random
        table = (rng.random(1 << n) < 0.05).astype(np.int64)
    return BooleanFunction(n, table)


def _distribution(kind, n, rng):
    if kind == "uniform":
        return Distribution.uniform(n)
    if kind == "dense":
        return Distribution.dense(n, rng.random(1 << n))
    if kind == "sparse":
        size = int(rng.integers(1, (1 << n) + 1))
        support = rng.choice(1 << n, size=size, replace=False)
        return Distribution(n, support, rng.random(size) + 1e-3)
    return Distribution.point_mass(BitString(n, int(rng.integers(0, 1 << n))))


@st.composite
def certificate_cases(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = _function(draw(st.sampled_from(["random", "parity", "few_ones", "sparse"])), n, rng)
    dist = _distribution(draw(st.sampled_from(["uniform", "dense", "sparse", "point"])), n, rng)
    return f, dist, k


class TestMakeDistribution:
    """Building a distribution from raw weights: a dense list or a sparse mapping."""

    def test_normalization(self):
        d = Distribution.dense(1, [2.0, 2.0])
        assert np.allclose(d.dense_weights(), [0.5, 0.5])

    def test_sparse_point_mass(self):
        d = Distribution.sparse(2, {"11": 1.0})
        assert d.dense_weights().tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Distribution.dense(1, [1.0, -1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Distribution.dense(2, [0.0, 0.0, 0.0, 0.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Distribution.dense(2, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        d = Distribution.dense(4, rng.random(16))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestBestJuntaOn:
    def test_junta_on_its_own_variables(self):
        f = BooleanFunction.from_junta(4, [1, 3], [0, 1, 1, 1])
        h, err = best_junta_on(f, Distribution.uniform(4), [1, 3])
        assert err == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(h.table, f.table)

    def test_parity_projected_to_one_variable(self):
        f = BooleanFunction.parity(2, [1, 2])
        h, err = best_junta_on(f, Distribution.uniform(2), [1])
        assert err == pytest.approx(0.5)
        # ties break toward 0
        assert np.array_equal(h.table, np.zeros(4, dtype=np.uint8))

    def test_support_only_where_f_is_one(self):
        f = BooleanFunction(2, np.array([0, 1, 0, 1]))
        d = Distribution.sparse(2, {"10": 0.3, "11": 0.7})  # f = 1 on both
        h, err = best_junta_on(f, d, [2])
        assert err == pytest.approx(0.0, abs=1e-12)
        assert all(h.eval(BitString.from_str(s)) == 1 for s in ("10", "11"))


    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_a_loop_over_each_class(self, data):
        """Integer weights give each class exact costs c0 (f = 1) and c1 (f = 0)."""
        n = data.draw(st.integers(1, 8))
        table = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
        uniform = data.draw(st.booleans())
        weights = [1] * (1 << n) if uniform else data.draw(
            st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n).filter(any))
        variables = data.draw(st.lists(st.integers(1, n), max_size=n + 2))
        f, dist = BooleanFunction(n, np.array(table)), Distribution.dense(n, weights)
        kept = sorted(set(variables))
        cells = [sum((x >> (v - 1) & 1) << j for j, v in enumerate(kept))
                 for x in range(1 << n)]
        costs = [[0, 0] for _ in range(1 << len(kept))]
        for x, cell in enumerate(cells):
            costs[cell][1 - table[x]] += weights[x]
        h, err = best_junta_on(f, dist, variables)
        assert err == pytest.approx(sum(min(c) for c in costs) / sum(weights), abs=1e-12)
        assert h.junta_vars == tuple(kept)
        for x, cell in enumerate(cells):
            c0, c1 = costs[cell]
            # a tie answers 0; float costs tie exactly only under dyadic weights
            if c0 != c1 or uniform:
                assert h.table[x] == (c1 < c0)


class TestDistanceToKJunta:
    def test_junta_has_distance_zero(self):
        f = BooleanFunction.from_junta(5, [2, 4], [1, 0, 0, 1])
        cert = distance_to_k_junta(f, Distribution.uniform(5), 2)
        assert cert.distance == pytest.approx(0.0, abs=1e-12)

    def test_parity_of_k_plus_one(self):
        f = BooleanFunction.parity(5, [1, 2, 3])
        cert = distance_to_k_junta(f, Distribution.uniform(5), 2)
        assert cert.distance == pytest.approx(0.5)

    def test_point_mass_distance_zero(self):
        rng = np.random.default_rng(3)
        f = BooleanFunction(4, rng.integers(0, 2, size=16, dtype=np.int64))
        d = Distribution.point_mass(BitString(4, 9))
        cert = distance_to_k_junta(f, d, 1)
        assert cert.distance == pytest.approx(0.0, abs=1e-12)

    def test_matches_exhaustive_inner_table_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(3, 6))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            d = Distribution.dense(n, rng.random(1 << n))
            k = int(rng.integers(1, 3))
            cert = distance_to_k_junta(f, d, k)
            assert cert.distance == pytest.approx(
                brute_force_distance(f, d, k), abs=1e-9
            )

    def test_certificate_self_consistency(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            d = Distribution.dense(n, rng.random(1 << n))
            k = int(rng.integers(1, n))
            cert = distance_to_k_junta(f, d, k)
            w = d.dense_weights()
            direct = float(np.sum(w * (cert.best_junta.table != f.table)))
            assert cert.distance == pytest.approx(direct, abs=1e-9)
            assert cert.best_junta.relevant_variables() <= cert.best_subset
            assert len(cert.best_subset) <= k

    def test_monotone_in_k(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(3, 7))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            d = Distribution.dense(n, rng.random(1 << n))
            k = int(rng.integers(0, n - 1))
            d_k = distance_to_k_junta(f, d, k).distance
            d_k1 = distance_to_k_junta(f, d, k + 1).distance
            assert d_k1 <= d_k + 1e-12

    def test_distance_zero_iff_agreement_on_support(self):
        f = BooleanFunction.parity(3, [1, 2, 3])
        # support confined to a line where parity matches a 1-junta
        d = Distribution.sparse(3, {"000": 0.5, "100": 0.5})
        cert = distance_to_k_junta(f, d, 1)
        assert cert.distance == pytest.approx(0.0, abs=1e-12)
        assert np.all(
            cert.best_junta.table[d.support] == f.table[d.support]
        )

    @settings(max_examples=150, deadline=None)
    @given(certificate_cases())
    def test_matches_full_table_reference(self, case):
        f, dist, k = case
        cert = distance_to_k_junta(f, dist, k)
        distance, subset, junta = reference_certificate(f, dist, k)
        assert cert.distance == distance
        assert cert.best_subset == subset
        assert np.array_equal(cert.best_junta.table, junta.table)

    def test_ties_pick_lexicographically_first_subset(self):
        f = BooleanFunction.parity(6, [2, 4, 6])
        cert = distance_to_k_junta(f, Distribution.uniform(6), 2)
        assert cert.best_subset == frozenset({1, 2})
        assert cert.distance == 0.5

    def test_work_cap(self):
        f = BooleanFunction(4, np.zeros(16))
        with pytest.raises(WorkCapExceededError):
            distance_to_k_junta(f, Distribution.uniform(4), 2, work_cap=10)


@st.composite
def distributions(draw):
    """A small distribution with dense or sparse support; some weights may be 0."""
    n = draw(st.integers(1, 6))
    weight = st.floats(0, 10, allow_subnormal=False)
    if draw(st.booleans()):
        weights = draw(st.lists(weight, min_size=1 << n, max_size=1 << n).filter(any))
        return Distribution.dense(n, weights)
    support = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n,
                            unique=True))
    weights = draw(st.lists(weight, min_size=len(support), max_size=len(support)).filter(any))
    return Distribution(n, np.array(support), np.array(weights))


class TestDistributionJson:
    @settings(max_examples=100, deadline=None)
    @given(distributions())
    def test_round_trip_property(self, d):
        d2 = Distribution.from_json(json.loads(json.dumps(d.to_json())))
        assert d2.n == d.n
        assert sorted(d2.support.tolist()) == sorted(d.support.tolist())
        assert np.allclose(d2.dense_weights(), d.dense_weights(), rtol=1e-12, atol=0)

    def test_dense_round_trip(self):
        rng = np.random.default_rng(1)
        d = Distribution.dense(3, rng.random(8))
        d2 = Distribution.from_json(d.to_json())
        assert np.allclose(d.dense_weights(), d2.dense_weights())

    def test_sparse_round_trip(self):
        d = Distribution.sparse(4, {"0011": 1.0, "1100": 3.0})
        d2 = Distribution.from_json(d.to_json())
        assert np.allclose(d.dense_weights(), d2.dense_weights())
        assert d2.support.size == 2

    def test_bad_document(self):
        with pytest.raises(ValueError):
            Distribution.from_json({"n": 2})

    def test_duplicate_support_point_rejected(self):
        doc = {"n": 2, "support": [{"x": "10", "w": 1.0}, {"x": "10", "w": 3.0}]}
        with pytest.raises(ValueError, match="duplicate"):
            Distribution.from_json(doc)


class TestMalformedWeights:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            Distribution.dense(2, [1.0, bad, 1.0, 1.0])
        with pytest.raises(ValueError):
            Distribution.sparse(2, {"01": bad})

    def test_overflowing_total_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            with np.errstate(over="ignore"):
                Distribution.dense(1, [1e308, 1e308])

    @pytest.mark.parametrize("key", ["1111", "111111111", BitString(4, 15)])
    def test_sparse_key_of_wrong_length_rejected(self, key):
        with pytest.raises(ValueError, match="8 bits"):
            Distribution.sparse(8, {key: 1.0})

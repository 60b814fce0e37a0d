import json

import numpy as np
import pytest

from juntatester.boolfn import BitString, BooleanFunction, DimensionMismatchError
from juntatester.distribution import Distribution
from juntatester.oracles import MembershipOracle, QueryLedger, SampleOracle


@pytest.fixture
def ledger():
    return QueryLedger()


def constant(n, value):
    return BooleanFunction(n, np.full(1 << n, value))


class TestMembershipOracle:
    def test_single_query_counts(self, ledger):
        oracle = MembershipOracle(constant(3, 1), ledger)
        assert oracle.query(BitString(3, 5)) == 1
        assert ledger.classical_queries == 1

    def test_no_caching(self, ledger):
        oracle = MembershipOracle(constant(3, 0), ledger)
        x = BitString(3, 2)
        oracle.query(x)
        oracle.query(x)
        assert ledger.classical_queries == 2

    def test_dimension_mismatch(self, ledger):
        oracle = MembershipOracle(constant(3, 0), ledger)
        with pytest.raises(DimensionMismatchError):
            oracle.query(BitString(4, 0))
        assert ledger.classical_queries == 0

    def test_charge_quantum(self, ledger):
        oracle = MembershipOracle(constant(2, 0), ledger)
        oracle.charge_quantum(1)
        oracle.charge_quantum(5)
        assert ledger.quantum_queries == 6

    def test_charge_quantum_rejects_zero(self, ledger):
        oracle = MembershipOracle(constant(2, 0), ledger)
        with pytest.raises(ValueError):
            oracle.charge_quantum(0)


class TestSampleOracle:
    def test_point_mass_always_returns_it(self):
        x0 = BitString.from_str("0110")
        draws = Distribution.point_mass(x0).sample_indices(np.random.default_rng(0), 20)
        assert draws.tolist() == [x0.value] * 20

    def test_draw_counts(self, ledger):
        oracle = SampleOracle(Distribution.uniform(3), ledger)
        for _ in range(5):
            oracle.note_samples(1)
        oracle.note_samples(0)
        assert ledger.classical_samples == 5
        with pytest.raises(ValueError):
            oracle.note_samples(-1)

    def test_uniform_frequencies(self):
        # binomial bound: 40000 draws at p=1/4, 3 sigma < 0.01
        draws = Distribution.uniform(2).sample_indices(np.random.default_rng(42), 40000)
        for c in np.bincount(draws, minlength=4):
            assert abs(c / 40000 - 0.25) < 0.01


class TestLedger:
    def test_json_round_trip(self):
        ledger = QueryLedger(classical_queries=3, classical_samples=2, quantum_queries=1)
        doc = json.loads(json.dumps(ledger.to_json()))
        assert doc == {
            "classical_queries": 3,
            "classical_samples": 2,
            "quantum_queries": 1,
        }
        assert ledger.total == 6

    def test_shared_ledger_accumulates_all_channels(self):
        ledger = QueryLedger()
        mo = MembershipOracle(constant(2, 0), ledger)
        so = SampleOracle(Distribution.uniform(2), ledger)
        mo.query(BitString(2, 0))
        so.note_samples(1)
        mo.charge_quantum(1)
        assert (ledger.classical_queries, ledger.classical_samples, ledger.quantum_queries) == (1, 1, 1)

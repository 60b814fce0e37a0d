import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juntatester.boolfn import (
    BitString,
    BooleanFunction,
    Cube,
    CubeTooLargeError,
    DimensionMismatchError,
    TOL_NORM,
    class_indices,
    cube_points,
    restricted_spectrum,
    walsh_hadamard,
)


def brute_force_spectrum(f, cube):
    """Independent O(4^m) double loop over subsets; the oracle for the transform."""
    positions = sorted(cube.disagreement)
    m = len(positions)
    coeffs = {}
    for s_bits in itertools.product([0, 1], repeat=m):
        subset = frozenset(p for p, b in zip(positions, s_bits) if b)
        total = 0.0
        for t_bits in itertools.product([0, 1], repeat=m):
            t = [p for p, b in zip(positions, t_bits) if b]
            point = cube.x.flip(t)
            overlap = sum(1 for p, b in zip(positions, t_bits) if b and p in subset)
            total += (-1) ** (f.eval(point) + overlap)
        coeffs[subset] = total / (1 << m)
    return coeffs


class TestBitString:
    def test_from_str_round_trip(self):
        s = "00100"
        x = BitString.from_str(s)
        assert x.n == 5
        assert x.to_str() == s
        assert x.bit(3) == 1 and x.bit(1) == 0

    def test_flip_examples(self):
        assert BitString.from_str("0000").flip([1, 3]).to_str() == "1010"
        assert BitString.from_str("1111").flip([]).to_str() == "1111"
        assert BitString.from_str("0101").flip([1, 2, 3, 4]).to_str() == "1010"

    def test_flip_out_of_range(self):
        with pytest.raises(IndexError):
            BitString.from_str("010").flip([4])

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_flip_is_involution(self, n, data):
        value = data.draw(st.integers(0, (1 << n) - 1))
        members = data.draw(st.sets(st.integers(1, n)))
        x = BitString(n, value)
        assert x.flip(members).flip(members) == x

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            BitString(3, 8)


class TestEval:
    def test_constant_zero(self):
        f = BooleanFunction.constant(4, 0)
        for v in range(16):
            assert f.eval(BitString(4, v)) == 0

    def test_dictator(self):
        f = BooleanFunction.dictator(5, 3)
        assert f.eval(BitString.from_str("00100")) == 1
        assert f.eval(BitString.from_str("11011")) == 0

    def test_and(self):
        f = BooleanFunction.from_table(2, [0, 0, 0, 1])
        assert f.eval(BitString.from_str("11")) == 1
        assert f.eval(BitString.from_str("01")) == 0

    def test_dimension_mismatch(self):
        f = BooleanFunction.constant(3, 1)
        with pytest.raises(DimensionMismatchError):
            f.eval(BitString(4, 0))


class TestRelevantVariables:
    def test_constant_has_none(self):
        assert BooleanFunction.constant(5, 1).relevant_variables() == frozenset()

    def test_dictator(self):
        assert BooleanFunction.dictator(5, 3).relevant_variables() == {3}

    def test_majority_by_exhaustive_oracle(self):
        inner = [1 if bin(v).count("1") >= 2 else 0 for v in range(8)]
        f = BooleanFunction.from_junta(5, [1, 2, 3], inner)
        # independent oracle: nested loops over all inputs and directions
        expected = set()
        for v in range(32):
            for i in range(1, 6):
                if f.table[v] != f.table[v ^ (1 << (i - 1))]:
                    expected.add(i)
        assert expected == {1, 2, 3}
        assert f.relevant_variables() == frozenset(expected)

    def test_is_k_junta_parity(self):
        f = BooleanFunction.parity(6, [1, 2, 4, 6])
        assert f.relevant_variables() == {1, 2, 4, 6}
        assert not f.is_k_junta(3)
        assert f.is_k_junta(4)

    def test_is_k_junta_constant(self):
        assert BooleanFunction.constant(4, 0).is_k_junta(0)


class TestCubes:
    def test_full_cube_points(self):
        B = Cube(BitString.from_str("00"), BitString.from_str("11"))
        assert {p.to_str() for p in cube_points(B)} == {"00", "01", "10", "11"}

    def test_degenerate_cube(self):
        x = BitString.from_str("101")
        B = Cube(x, x)
        assert B.disagreement == frozenset()
        assert cube_points(B) == [x]

    def test_one_dimensional_cube(self):
        B = Cube(BitString.from_str("000"), BitString.from_str("010"))
        assert {p.to_str() for p in cube_points(B)} == {"000", "010"}
        assert B.disagreement == {2}

    def test_point_count_and_distinctness(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            x = BitString(n, int(rng.integers(0, 1 << n)))
            y = BitString(n, int(rng.integers(0, 1 << n)))
            B = Cube(x, y)
            pts = cube_points(B)
            assert len(pts) == 1 << len(B.disagreement)
            assert len(set(pts)) == len(pts)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Cube(BitString(2, 0), BitString(3, 0))


class TestWalshHadamard:
    def test_against_definition(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(16)
        w = walsh_hadamard(v)
        for s in range(16):
            direct = sum(v[t] * (-1) ** bin(s & t).count("1") for t in range(16))
            assert w[s] == pytest.approx(direct)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            walsh_hadamard([1.0, 2.0, 3.0])


class TestRestrictedSpectrum:
    def test_constant_on_cube(self):
        f = BooleanFunction.constant(3, 1)
        B = Cube(BitString.from_str("000"), BitString.from_str("110"))
        sp = restricted_spectrum(f, B)
        assert sp.coefficient([]) ** 2 == pytest.approx(1.0)
        members = sorted(B.disagreement)
        for r in range(1, len(members) + 1):
            for subset in itertools.combinations(members, r):
                assert abs(sp.coefficient(subset)) < TOL_NORM

    def test_parity_single_character(self):
        f = BooleanFunction.parity(3, [1, 2, 3])
        B = Cube(BitString.from_str("000"), BitString.from_str("111"))
        sp = restricted_spectrum(f, B)
        assert sp.coefficient([1, 2, 3]) ** 2 == pytest.approx(1.0)

    def test_and_full_cube(self):
        f = BooleanFunction.from_table(2, [0, 0, 0, 1])
        B = Cube(BitString.from_str("00"), BitString.from_str("11"))
        sp = restricted_spectrum(f, B)
        expected = brute_force_spectrum(f, B)
        for subset, value in expected.items():
            assert sp.coefficient(subset) == pytest.approx(value, abs=TOL_NORM)
        assert sorted(abs(c) for c in sp.coefficients) == pytest.approx([0.5] * 4)

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            B = Cube(
                BitString(n, int(rng.integers(0, 1 << n))),
                BitString(n, int(rng.integers(0, 1 << n))),
            )
            sp = restricted_spectrum(f, B)
            for subset, value in brute_force_spectrum(f, B).items():
                assert sp.coefficient(subset) == pytest.approx(value, abs=TOL_NORM)

    def test_parseval_and_empty_coefficient(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            B = Cube(
                BitString(n, int(rng.integers(0, 1 << n))),
                BitString(n, int(rng.integers(0, 1 << n))),
            )
            sp = restricted_spectrum(f, B)
            assert (sp.coefficients ** 2).sum() == pytest.approx(1.0, abs=TOL_NORM)
            signs = [(-1) ** f.eval(p) for p in cube_points(B)]
            assert sp.coefficient([]) == pytest.approx(
                sum(signs) / len(signs), abs=TOL_NORM
            )

    def test_nonzero_coefficient_implies_relevance(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            B = Cube(
                BitString(n, int(rng.integers(0, 1 << n))),
                BitString(n, int(rng.integers(0, 1 << n))),
            )
            sp = restricted_spectrum(f, B)
            relevant = f.relevant_variables()
            for mask in range(sp.coefficients.size):
                if abs(sp.coefficients[mask]) > TOL_NORM:
                    assert sp.subset_for_mask(mask) <= relevant

    def test_corner_convention_is_immaterial_for_squares(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            x = BitString(n, int(rng.integers(0, 1 << n)))
            y = BitString(n, int(rng.integers(0, 1 << n)))
            sq_xy = restricted_spectrum(f, Cube(x, y)).squared()
            sq_yx = restricted_spectrum(f, Cube(y, x)).squared()
            assert np.allclose(sq_xy, sq_yx, atol=TOL_NORM)

    def test_cube_too_large(self):
        f = BooleanFunction.constant(2, 0)
        B = Cube(BitString(2, 0), BitString(2, 3))
        # shrink the cap via monkeypatching is invasive; check the guard directly
        from juntatester import boolfn

        positions, _ = boolfn.cube_point_indices(B)
        assert len(positions) <= boolfn.M_MAX
        with pytest.raises(CubeTooLargeError):
            # fabricate an oversized disagreement set by lowering the cap
            original = boolfn.M_MAX
            boolfn.M_MAX = 1
            try:
                boolfn.cube_point_indices(B)
            finally:
                boolfn.M_MAX = original


class TestJuntaBacking:
    def test_backing_agrees_exhaustively(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(0, min(n, 5) + 1))
            variables = sorted(
                rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()
            )
            inner = rng.integers(0, 2, size=1 << k, dtype=np.int64)
            f = BooleanFunction.from_junta(n, variables, inner)
            assert f.check_junta_backing()
            assert f.relevant_variables() <= set(variables)

    def test_inconsistent_backing_rejected_in_json(self):
        f = BooleanFunction.parity(3, [1])
        doc = f.to_json()
        doc["junta"] = {"vars": [2], "inner_table": "01"}
        with pytest.raises(ValueError):
            BooleanFunction.from_json(doc)


class TestFunctionJson:
    def test_round_trip_plain(self):
        rng = np.random.default_rng(2)
        f = BooleanFunction(5, rng.integers(0, 2, size=32, dtype=np.int64))
        g = BooleanFunction.from_json(f.to_json())
        assert np.array_equal(f.table, g.table) and g.n == 5

    def test_round_trip_with_junta(self):
        f = BooleanFunction.from_junta(6, [2, 5], [0, 1, 1, 0])
        g = BooleanFunction.from_json(f.to_json())
        assert np.array_equal(f.table, g.table)
        assert g.junta_vars == (2, 5)

    def test_accepts_raw_bit_string_table(self):
        g = BooleanFunction.from_json({"n": 2, "table": "0001"})
        assert g.eval(BitString.from_str("11")) == 1
        assert g.eval(BitString.from_str("10")) == 0

    def test_bit_indexing_convention(self):
        # bit i of the table is f at the point whose integer value is i,
        # variable 1 being the least significant bit
        f = BooleanFunction.dictator(3, 2)
        doc = f.to_json()
        g = BooleanFunction.from_json({"n": 3, "table": doc["table"]})
        for v in range(8):
            assert g.table[v] == (v >> 1) & 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 4, "table": "10010110"},  # 8 bits for a 16-entry table
            {"n": 3, "table": "100101101"},
            {"n": 3, "table": ""},
            {"n": 3, "table": "0x96ff"},  # an extra byte
            {"n": 4, "table": "0x96"},  # a byte short
            {"n": 3, "table": "0xzz"},
            {"n": 3, "table": "lv8="},  # base64 of two bytes
            {"n": 3, "table": "l*=="},
            {"n": 3, "table": 150},
            {"n": 3, "table": "0x96", "junta": {"vars": [1, 2, 3], "inner_table": "1001011"}},
            {"n": 3, "table": "0x96", "junta": {"vars": [1, 2, 3], "inner_table": "0x9600"}},
        ],
    )
    def test_rejects_malformed_tables(self, doc):
        with pytest.raises(ValueError):
            BooleanFunction.from_json(doc)

    def test_hex_and_base64_of_exact_length(self):
        for table in ("0x96", "0X96", "lg==", "01101001"):  # 0x96, low bit first
            g = BooleanFunction.from_json({"n": 3, "table": table})
            assert g.table.tolist() == [0, 1, 1, 0, 1, 0, 0, 1]


class TestClassIndices:
    def test_bit_j_is_the_jth_variable(self):
        proj = class_indices(4, (3, 1))
        for x in range(16):
            assert proj[x] == ((x >> 2) & 1) | ((x & 1) << 1)

    @pytest.mark.parametrize("n, variables", [(0, ()), (25, (1,)), (4, (5,)), (4, (0,))])
    def test_rejects_out_of_range(self, n, variables):
        with pytest.raises((ValueError, IndexError)):
            class_indices(n, variables)

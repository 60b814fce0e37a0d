import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juntatester.boolfn import (
    BitString,
    BooleanFunction,
    Cube,
    DimensionMismatchError,
    cube_point_indices,
    index_mask,
    restricted_spectrum,
    walsh_hadamard,
)

TOL = 1e-9


def constant(n, value):
    return BooleanFunction(n, np.full(1 << n, value))


def flipped(x, members):
    """x^T: the point with the variables in `members` flipped."""
    return BitString(x.n, x.value ^ index_mask(members, x.n))


def coefficient_of(spectrum, subset):
    """The coefficient of `subset` (a subset of I(B)), read through its mask."""
    assert set(subset) <= set(spectrum.positions)
    mask = sum(1 << j for j, i in enumerate(spectrum.positions) if i in subset)
    return float(spectrum.coefficients[mask])


def point_strings(cube):
    return [BitString(cube.n, int(v)).to_str() for v in cube_point_indices(cube)[1]]


@st.composite
def functions(draw):
    """A small function: a plain table, or a junta with its backing block."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        variables = draw(st.lists(st.integers(1, n), max_size=min(n, 4), unique=True))
        inner = draw(st.lists(st.integers(0, 1), min_size=1 << len(variables),
                              max_size=1 << len(variables)))
        return BooleanFunction.from_junta(n, variables, inner)
    table = draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    return BooleanFunction(n, np.array(table))


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
            point = flipped(cube.x, t)
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
        assert x.value == 0b00100

    def test_flip_examples(self):
        assert flipped(BitString.from_str("0000"), [1, 3]).to_str() == "1010"
        assert flipped(BitString.from_str("1111"), []).to_str() == "1111"
        assert flipped(BitString.from_str("0101"), [1, 2, 3, 4]).to_str() == "1010"

    def test_flip_out_of_range(self):
        with pytest.raises(IndexError):
            index_mask([4], 3)

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_flip_is_involution(self, n, data):
        value = data.draw(st.integers(0, (1 << n) - 1))
        members = data.draw(st.sets(st.integers(1, n)))
        x = BitString(n, value)
        assert flipped(flipped(x, members), members) == x

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            BitString(3, 8)


class TestEval:
    def test_constant_zero(self):
        f = constant(4, 0)
        for v in range(16):
            assert f.eval(BitString(4, v)) == 0

    def test_dictator(self):
        f = BooleanFunction.from_junta(5, [3], [0, 1])
        assert f.eval(BitString.from_str("00100")) == 1
        assert f.eval(BitString.from_str("11011")) == 0

    def test_and(self):
        f = BooleanFunction(2, np.array([0, 0, 0, 1]))
        assert f.eval(BitString.from_str("11")) == 1
        assert f.eval(BitString.from_str("01")) == 0

    def test_dimension_mismatch(self):
        f = constant(3, 1)
        with pytest.raises(DimensionMismatchError):
            f.eval(BitString(4, 0))


class TestRelevantVariables:
    def test_constant_has_none(self):
        assert constant(5, 1).relevant_variables() == frozenset()

    def test_dictator(self):
        assert BooleanFunction.from_junta(5, [3], [0, 1]).relevant_variables() == {3}

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

    def test_parity_junta_size(self):
        f = BooleanFunction.parity(6, [1, 2, 4, 6])
        assert f.relevant_variables() == {1, 2, 4, 6}
        assert len(f.relevant_variables()) > 3
        assert len(f.relevant_variables()) <= 4

    def test_constant_is_a_0_junta(self):
        assert len(constant(4, 0).relevant_variables()) <= 0


class TestCubes:
    def test_full_cube_point_indices(self):
        B = Cube(BitString.from_str("00"), BitString.from_str("11"))
        assert set(point_strings(B)) == {"00", "01", "10", "11"}

    def test_degenerate_cube(self):
        x = BitString.from_str("101")
        B = Cube(x, x)
        assert B.disagreement == frozenset()
        assert point_strings(B) == [x.to_str()]

    def test_one_dimensional_cube(self):
        B = Cube(BitString.from_str("000"), BitString.from_str("010"))
        assert set(point_strings(B)) == {"000", "010"}
        assert B.disagreement == {2}

    def test_point_count_and_distinctness(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            x = BitString(n, int(rng.integers(0, 1 << n)))
            y = BitString(n, int(rng.integers(0, 1 << n)))
            B = Cube(x, y)
            pts = point_strings(B)
            assert len(pts) == 1 << len(B.disagreement)
            assert len(set(pts)) == len(pts)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Cube(BitString(2, 0), BitString(3, 0))


def reference_walsh_hadamard(values):
    """The transform before its butterflies ran in place: two half copies per level."""
    v = np.array(values, dtype=np.float64)
    h = 1
    while h < v.size:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        h *= 2
    return v.reshape(-1)


def reference_spectrum(f, cube):
    """The restricted spectrum built out of place: point indices by concatenation,
    signs as 1 - 2f, the copying transform, then one division."""
    positions = tuple(sorted(cube.disagreement))
    idx = np.array([cube.x.value], dtype=np.int64)
    for i in positions:
        idx = np.concatenate([idx, idx ^ (1 << (i - 1))])
    signs = 1.0 - 2.0 * f.table[idx].astype(np.float64)
    return positions, idx, reference_walsh_hadamard(signs) / signs.size


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_bits_match_the_reference(self, m, seed):
        """Same bits as the out-of-place transform, signed zeros included; the
        input is left as it was."""
        rng = np.random.default_rng(seed)
        v = rng.choice([-1.0, -0.0, 0.0, 1.0, 0.5, -3.25, 1e-300], size=1 << m)
        v[rng.random(v.size) < 0.5] = rng.standard_normal()
        before = v.tobytes()
        assert walsh_hadamard(v).tobytes() == reference_walsh_hadamard(v).tobytes()
        assert v.tobytes() == before


class TestRestrictedSpectrum:
    def test_constant_on_cube(self):
        f = constant(3, 1)
        B = Cube(BitString.from_str("000"), BitString.from_str("110"))
        sp = restricted_spectrum(f, B)
        assert coefficient_of(sp, []) ** 2 == pytest.approx(1.0)
        members = sorted(B.disagreement)
        for r in range(1, len(members) + 1):
            for subset in itertools.combinations(members, r):
                assert abs(coefficient_of(sp, subset)) < TOL

    def test_parity_single_character(self):
        f = BooleanFunction.parity(3, [1, 2, 3])
        B = Cube(BitString.from_str("000"), BitString.from_str("111"))
        sp = restricted_spectrum(f, B)
        assert coefficient_of(sp, [1, 2, 3]) ** 2 == pytest.approx(1.0)

    def test_and_full_cube(self):
        f = BooleanFunction(2, np.array([0, 0, 0, 1]))
        B = Cube(BitString.from_str("00"), BitString.from_str("11"))
        sp = restricted_spectrum(f, B)
        expected = brute_force_spectrum(f, B)
        for subset, value in expected.items():
            assert coefficient_of(sp, subset) == pytest.approx(value, abs=TOL)
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
                assert coefficient_of(sp, subset) == pytest.approx(value, abs=TOL)

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
            assert (sp.coefficients ** 2).sum() == pytest.approx(1.0, abs=TOL)
            signs = [(-1) ** int(f.table[v]) for v in cube_point_indices(B)[1]]
            assert coefficient_of(sp, []) == pytest.approx(
                sum(signs) / len(signs), abs=TOL
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
                if abs(sp.coefficients[mask]) > TOL:
                    assert sp.subset_for_mask(mask) <= relevant

    @settings(max_examples=100, deadline=None)
    @given(functions(), st.integers(0, 2**32 - 1))
    def test_bits_match_the_reference(self, f, seed):
        """The printed coefficients keep every bit, the sign of zero included."""
        rng = np.random.default_rng(seed)
        cube = Cube(BitString(f.n, int(rng.integers(0, 1 << f.n))),
                    BitString(f.n, int(rng.integers(0, 1 << f.n))))
        positions, idx, coeffs = reference_spectrum(f, cube)
        assert cube_point_indices(cube)[0] == positions
        assert cube_point_indices(cube)[1].tobytes() == idx.tobytes()
        sp = restricted_spectrum(f, cube)
        assert sp.positions == positions
        assert sp.coefficients.tobytes() == coeffs.tobytes()

    def test_corner_convention_is_immaterial_for_squares(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            x = BitString(n, int(rng.integers(0, 1 << n)))
            y = BitString(n, int(rng.integers(0, 1 << n)))
            sq_xy = restricted_spectrum(f, Cube(x, y)).squared()
            sq_yx = restricted_spectrum(f, Cube(y, x)).squared()
            assert np.allclose(sq_xy, sq_yx, atol=TOL)


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

    def test_repeated_variable_refused(self):
        with pytest.raises(ValueError):
            BooleanFunction.from_junta(4, [2, 2], [0, 1, 1, 1])
        doc = {"n": 3, "table": "01010101", "junta": {"vars": [1, 1], "inner_table": "0111"}}
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
        f = BooleanFunction.from_junta(3, [2], [0, 1])
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

    @settings(max_examples=100, deadline=None)
    @given(functions())
    def test_round_trip_property(self, f):
        g = BooleanFunction.from_json(json.loads(json.dumps(f.to_json())))
        assert g.n == f.n and np.array_equal(g.table, f.table)
        assert g.junta_vars == f.junta_vars
        assert g.to_json() == f.to_json()

    def test_hex_and_base64_of_exact_length(self):
        for table in ("0x96", "0X96", "lg==", "01101001"):  # 0x96, low bit first
            g = BooleanFunction.from_json({"n": 3, "table": table})
            assert g.table.tolist() == [0, 1, 1, 0, 1, 0, 0, 1]


def cell_of(x, variables):
    """The class index of point x: bit j is x's value of the j-th smallest variable."""
    return sum((x >> (v - 1) & 1) << j for j, v in enumerate(sorted(variables)))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestClassIndices:
    """from_junta maps each point to a cell (class index) of the inner table; an
    out-of-range n or variable must raise before any table is allocated."""

    @pytest.mark.parametrize("n, variables", [(0, ()), (25, (1,)), (4, (5,)), (4, (0,))])
    def test_rejects_out_of_range(self, n, variables):
        def build():
            with pytest.raises((ValueError, IndexError)):
                BooleanFunction.from_junta(n, variables, [0] * (1 << len(variables)))

        assert traced_peak(build) < 1 << 16


class TestProjectionRule:
    """The (2,)*n table view against loops over every point."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_from_junta_evaluates_the_inner_table(self, data):
        n = data.draw(st.integers(1, 8))
        variables = data.draw(st.lists(st.integers(1, n), max_size=n, unique=True))
        inner = data.draw(st.lists(st.integers(0, 1), min_size=1 << len(variables),
                                   max_size=1 << len(variables)))
        for order in (variables, sorted(variables)):
            f = BooleanFunction.from_junta(n, order, inner)
            assert [int(b) for b in f.table] == [
                inner[cell_of(x, variables)] for x in range(1 << n)
            ]

    @settings(max_examples=100, deadline=None)
    @given(functions())
    def test_relevant_variables_flip_every_point(self, f):
        assert f.relevant_variables() == {
            i for i in range(1, f.n + 1) for x in range(1 << f.n)
            if f.table[x] != f.table[x ^ (1 << (i - 1))]
        }

    def test_memory_per_point(self):
        """At n = 16, building a 4-junta peaks at <= 3 bytes per point (its table
        and one check of it) and finding its relevant variables at <= 2."""
        n = 16
        inner = np.random.default_rng(4).integers(0, 2, size=16)
        assert traced_peak(lambda: BooleanFunction.from_junta(n, [2, 7, 11, 16], inner)) <= 3 << n
        f = BooleanFunction.from_junta(n, [2, 7, 11, 16], inner)
        assert traced_peak(f.relevant_variables) <= 2 << n

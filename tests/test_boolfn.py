import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from juntatester import boolfn
from juntatester.boolfn import (
    BitString,
    BooleanFunction,
    Cube,
    DimensionMismatchError,
    _class_expand,
    _class_reduce,
    index_mask,
    restricted_spectrum,
    walsh_hadamard,
)

from reference import relevant_variables

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


def cube_indices(cube):
    """The 2^m point indices of the cube by concatenation: entry t is x^T, where bit
    j of t selects the j-th smallest element of I(B)."""
    idx = np.array([cube.x.value], dtype=np.int64)
    for i in sorted(cube.disagreement):
        idx = np.concatenate([idx, idx ^ (1 << (i - 1))])
    return idx


def point_strings(cube):
    return [BitString(cube.n, int(v)).to_str() for v in cube_indices(cube)]


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
            total += (-1) ** (int(f.table[point.value]) + overlap)
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


class TestRelevantVariables:
    def test_constant_has_none(self):
        assert relevant_variables(constant(5, 1)) == frozenset()

    def test_dictator(self):
        assert relevant_variables(BooleanFunction.from_junta(5, [3], [0, 1])) == {3}

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
        assert relevant_variables(f) == frozenset(expected)

    def test_parity_junta_size(self):
        f = BooleanFunction.parity(6, [1, 2, 4, 6])
        assert relevant_variables(f) == {1, 2, 4, 6}
        assert len(relevant_variables(f)) > 3
        assert len(relevant_variables(f)) <= 4

    def test_constant_is_a_0_junta(self):
        assert len(relevant_variables(constant(4, 0))) <= 0


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
    """The full restricted spectrum built out of place over every point of the cube:
    signs as 1 - 2f, the copying transform, then one division."""
    signs = 1.0 - 2.0 * f.table[cube_indices(cube)].astype(np.float64)
    return tuple(sorted(cube.disagreement)), reference_walsh_hadamard(signs) / signs.size


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

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_rejects_an_empty_input(self, dtype):
        """Zero entries is no power of two, for integer and float input alike."""
        with pytest.raises(ValueError):
            walsh_hadamard(np.array([], dtype))

    @settings(max_examples=100, deadline=None)
    @example(np.int8, 6, "max", 0.5, 1)  # the largest size of one run, of two and of three
    @example(np.uint8, 12, "zero", 0.5, 2)
    @example(np.int16, 18, "min", 0.5, 3)
    @given(st.sampled_from([np.int8, np.uint8, np.int16]), st.integers(0, 18),
           st.sampled_from(["zero", "min", "max"]), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_integer_bits_match_the_reference(self, dtype, m, fill, share, seed):
        """Integer inputs of 2^0..2^18 entries, transformed in one, two or three
        runs of products, anywhere in the dtype's range: the bits of the
        reference on a float64 copy, the input left as it was, and no -0.0."""
        info = np.iinfo(dtype)
        rng = np.random.default_rng(seed)
        v = rng.integers(info.min, info.max, size=1 << m, dtype=dtype, endpoint=True)
        v[rng.random(v.size) < share] = {"zero": 0, "min": info.min, "max": info.max}[fill]
        before = v.tobytes()
        w = walsh_hadamard(v)
        assert w.tobytes() == reference_walsh_hadamard(v.astype(np.float64)).tobytes()
        assert v.tobytes() == before
        assert not np.signbit(w[w == 0]).any()


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
            signs = [(-1) ** int(f.table[v]) for v in cube_indices(B)]
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
            relevant = relevant_variables(f)
            for mask in range(sp.coefficients.size):
                if abs(sp.coefficients[mask]) > TOL:
                    assert sp.subset_for_mask(mask) <= relevant

    @settings(max_examples=100, deadline=None)
    @given(functions(), st.integers(0, 2**32 - 1))
    def test_bits_match_the_reference(self, f, seed):
        """The coefficients keep every bit of the full transform's, the sign of zero
        included; every subset holding a variable that a junta-backed f does not
        read is +0.0 there."""
        rng = np.random.default_rng(seed)
        cube = Cube(BitString(f.n, int(rng.integers(0, 1 << f.n))),
                    BitString(f.n, int(rng.integers(0, 1 << f.n))))
        positions, coeffs = reference_spectrum(f, cube)
        read = range(1, f.n + 1) if f.junta_vars is None else f.junta_vars
        sp = restricted_spectrum(f, cube)
        assert sp.positions == tuple(v for v in positions if v in read)
        outside = sum(1 << j for j, v in enumerate(positions) if v not in read)
        inside = [m for m in range(coeffs.size) if not m & outside]
        assert sp.coefficients.tobytes() == coeffs[inside].tobytes()
        others = np.delete(coeffs, inside)
        assert others.tobytes() == np.zeros_like(others).tobytes()

    @pytest.mark.parametrize("dimension", [12, 13])
    def test_bits_match_the_reference_across_the_blocked_cut_off(self, dimension):
        """A table with no junta backing at n = 14, on a cube of 2^12 points (two
        runs of products) and of 2^13 (three): the full transform's bits, zero
        coefficients included (f has even weight on these cubes)."""
        rng = np.random.default_rng([0, dimension])
        f = BooleanFunction(14, rng.integers(0, 2, size=1 << 14))
        x = int(rng.integers(0, 1 << 14))
        variables = rng.choice(np.arange(1, 15), size=dimension, replace=False)
        spanned = index_mask(variables.tolist(), 14)
        cube = Cube(BitString(14, x), BitString(14, x ^ spanned))
        positions, coeffs = reference_spectrum(f, cube)
        sp = restricted_spectrum(f, cube)
        assert sp.positions == positions
        assert sp.coefficients.tobytes() == coeffs.tobytes()
        assert (sp.coefficients == 0).any()

    @pytest.mark.parametrize("junta", [False, True])
    def test_bits_match_the_reference_on_a_14_dimensional_cube(self, junta):
        """The whole cube at n = 14, 2^14 points in three runs of products: the
        full transform's bits, for a plain table and for a junta-backed f on 13
        variables, whose subsets holding the unread variable are +0.0 there."""
        rng = np.random.default_rng([1, junta])
        if junta:
            variables = [v for v in range(1, 15) if v != 9]
            f = BooleanFunction.from_junta(14, variables, rng.integers(0, 2, size=1 << 13))
        else:
            f = BooleanFunction(14, rng.integers(0, 2, size=1 << 14))
        x = int(rng.integers(0, 1 << 14))
        cube = Cube(BitString(14, x), BitString(14, x ^ (1 << 14) - 1))
        positions, coeffs = reference_spectrum(f, cube)
        inside = [m for m in range(coeffs.size) if not (junta and m >> 8 & 1)]
        sp = restricted_spectrum(f, cube)
        assert sp.positions == tuple(v for v in positions if not (junta and v == 9))
        assert sp.coefficients.tobytes() == coeffs[inside].tobytes()
        others = np.delete(coeffs, inside)
        assert others.tobytes() == np.zeros_like(others).tobytes()

    def test_transforms_only_the_variables_a_junta_reads(self, monkeypatch):
        """A 4-junta on a 16-dimensional cube at n = 20: one transform of 2^4 entries."""
        sizes = []

        def recording(values):
            sizes.append(len(values))
            return walsh_hadamard(values)

        monkeypatch.setattr(boolfn, "walsh_hadamard", recording)
        f = BooleanFunction.parity(20, [2, 5, 7, 11])
        B = Cube(BitString(20, 0), BitString(20, (1 << 16) - 1))
        sp = restricted_spectrum(f, B)
        assert sizes == [1 << 4]
        assert sp.positions == (2, 5, 7, 11)
        assert coefficient_of(sp, [2, 5, 7, 11]) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.booleans(), st.integers(0, 2**32 - 1))
    def test_squares_sum_to_exactly_one(self, n, junta, seed):
        """Every coefficient is an integer over 2^r, so the Fourier draw's cumulative
        table ends at exactly 1.0 and a draw u < 1 never runs past it."""
        rng = np.random.default_rng(seed)
        if junta:
            k = int(rng.integers(0, n + 1))
            variables = rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()
            f = BooleanFunction.from_junta(n, variables, rng.integers(0, 2, size=1 << k))
        else:
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
        cube = Cube(BitString(n, int(rng.integers(0, 1 << n))),
                    BitString(n, int(rng.integers(0, 1 << n))))
        assert np.cumsum(restricted_spectrum(f, cube).squared())[-1] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(functions(), st.integers(0, 2**32 - 1))
    def test_squares_depend_only_on_the_read_cube_and_x_off_it(self, f, seed):
        """Two cubes with the same A = I(B) ∩ vars(f) and the same x on vars(f) \\ A
        have the same squares bit for bit, wherever x lies within A and whatever
        either corner holds off vars(f): the key of the Fourier draw memo."""
        rng = np.random.default_rng(seed)
        full = (1 << f.n) - 1
        read = full if f.junta_vars is None else index_mask(f.junta_vars, f.n)
        x, y = (int(v) for v in rng.integers(0, 1 << f.n, size=2))
        spanned = (x ^ y) & read
        t, u, v = (int(w) for w in rng.integers(0, 1 << f.n, size=3))
        x2 = x ^ (t & spanned) ^ (u & full & ~read)
        y2 = x2 ^ spanned ^ (v & full & ~read)
        first = restricted_spectrum(f, Cube(BitString(f.n, x), BitString(f.n, y)))
        second = restricted_spectrum(f, Cube(BitString(f.n, x2), BitString(f.n, y2)))
        assert first.positions == second.positions
        assert first.squared().tobytes() == second.squared().tobytes()

    def test_squares_sum_to_exactly_one_on_a_full_cube_at_n20(self):
        f = BooleanFunction(20, np.random.default_rng(31).integers(0, 2, size=1 << 20))
        cube = Cube(BitString(20, 0), BitString(20, (1 << 20) - 1))
        assert np.cumsum(restricted_spectrum(f, cube).squared())[-1] == 1.0

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
            for x in range(1 << n):
                cell = sum((x >> (v - 1) & 1) << j for j, v in enumerate(variables))
                assert f.table[x] == inner[cell]
            assert relevant_variables(f) <= set(variables)

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
        assert g.table[BitString.from_str("11").value] == 1
        assert g.table[BitString.from_str("10").value] == 0

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

    @pytest.mark.parametrize("table", [[0.5, 1.0], [256, 1], [-255, 1], [2, 1], [np.nan, 1]])
    def test_rejects_entries_other_than_0_and_1(self, table):
        """Both constructors refuse such an entry instead of casting it to a bit."""
        with pytest.raises(ValueError):
            BooleanFunction(1, np.array(table))
        with pytest.raises(ValueError):
            BooleanFunction.from_junta(3, [1], table)

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
        assert relevant_variables(f) == {
            i for i in range(1, f.n + 1) for x in range(1 << f.n)
            if f.table[x] != f.table[x ^ (1 << (i - 1))]
        }

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_class_reduce_matches_a_loop_over_classes(self, data):
        n = data.draw(st.integers(1, 8))
        drawn = data.draw(st.lists(st.integers(1, n), max_size=n, unique=True))
        cases = [
            (np.add, np.array(data.draw(st.lists(st.integers(-2**40, 2**40), min_size=1 << n,
                                                 max_size=1 << n)), dtype=np.int64)),
            (np.add, np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=1 << n,
                                                 max_size=1 << n)), dtype=np.float64)),
            (np.bitwise_or, np.array(data.draw(st.lists(st.integers(0, 255), min_size=1 << n,
                                                        max_size=1 << n)), dtype=np.uint8)),
        ]
        for kept in ([], range(1, n + 1), drawn):
            members = [[] for _ in range(1 << len(kept))]  # each class's points, increasing
            for x in range(1 << n):
                members[cell_of(x, kept)].append(x)
            for op, values in cases:
                got = _class_reduce(values, n, kept, op)
                assert got.dtype == values.dtype
                want = [functools.reduce(op, [values[x] for x in xs]) for xs in members]
                if values.dtype == np.float64:
                    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-6)
                else:
                    assert got.tolist() == [int(w) for w in want]

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_class_expand_matches_a_loop_over_points(self, data, seed):
        n = data.draw(st.integers(1, 8))
        drawn = data.draw(st.lists(st.integers(1, n), max_size=n, unique=True))
        rng = np.random.default_rng(seed)
        for kept in ([], list(range(1, n + 1)), drawn):
            size = 1 << len(kept)
            cases = [
                rng.integers(0, 256, size=size, dtype=np.uint8),
                rng.random(size) < 0.5,
                rng.uniform(-1e6, 1e6, size=size),
            ]
            for per_class in cases:
                got = _class_expand(per_class, n, kept)
                assert got.dtype == per_class.dtype and got.flags.c_contiguous
                assert not np.shares_memory(got, per_class)
                assert got.tolist() == [per_class[cell_of(x, kept)] for x in range(1 << n)]
                back = _class_reduce(got, n, kept, np.maximum)
                assert back.tobytes() == per_class.tobytes()

    def test_memory_per_point(self):
        """At n = 16, building a 4-junta peaks at <= 3 bytes per point (its table
        and one check of it)."""
        n = 16
        inner = np.random.default_rng(4).integers(0, 2, size=16)
        assert traced_peak(lambda: BooleanFunction.from_junta(n, [2, 7, 11, 16], inner)) <= 3 << n

"""Boolean functions on the hypercube, subcubes, and restricted Walsh-Hadamard spectra.

Conventions used throughout the package:

* Variables are numbered 1..n.
* A point of the hypercube is stored as an integer whose bit ``i-1`` holds
  variable ``i`` (variable 1 is the least significant bit).
* The string form of a point lists variables left to right starting with
  variable 1, so ``"00100"`` on n=5 has variable 3 set.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

N_MAX = 24
M_MAX = 24
TOL_NORM = 1e-9


class DimensionMismatchError(ValueError):
    pass


class CubeTooLargeError(ValueError):
    pass


def index_mask(members: Iterable[int], n: int) -> int:
    """Bitmask of a subset of [n]; raises on out-of-range indices."""
    mask = 0
    for i in members:
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def class_indices(n: int, variables: Sequence[int]) -> np.ndarray:
    """Each point's class index: bit j is the point's value of ``variables[j]``."""
    if not 1 <= n <= N_MAX:
        raise ValueError(f"dimension must be in 1..{N_MAX}, got {n}")
    index_mask(variables, n)  # range check
    points = np.arange(1 << n, dtype=np.int64)
    proj = np.zeros(1 << n, dtype=np.int64)
    for j, v in enumerate(variables):
        proj |= (points >> (v - 1) & 1) << j
    return proj


def mask_indices(mask: int) -> frozenset[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@dataclass(frozen=True)
class BitString:
    """A point of {0,1}^n, stored as (n, integer value)."""

    n: int
    value: int

    def __post_init__(self):
        if not 1 <= self.n <= N_MAX:
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for n={self.n}")

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a bit string: {s!r}")
        value = sum(1 << i for i, c in enumerate(s) if c == "1")
        return cls(len(s), value)

    def to_str(self) -> str:
        return "".join("1" if self.value >> i & 1 else "0" for i in range(self.n))

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        return self.value >> (i - 1) & 1

    def flip(self, members: Iterable[int]) -> "BitString":
        """The point with the variables in `members` flipped (x^T)."""
        return BitString(self.n, self.value ^ index_mask(members, self.n))

    def __str__(self) -> str:
        return self.to_str()


@dataclass(frozen=True)
class Cube:
    """An axis-aligned subcube given by two opposite corners."""

    x: BitString
    y: BitString

    def __post_init__(self):
        if self.x.n != self.y.n:
            raise DimensionMismatchError(
                f"corner dimensions differ: {self.x.n} vs {self.y.n}"
            )

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def disagreement(self) -> frozenset[int]:
        """I(B): the variables where the two corners disagree."""
        return mask_indices(self.x.value ^ self.y.value)

    def dimension(self) -> int:
        return (self.x.value ^ self.y.value).bit_count()


def _pack_table(table: np.ndarray) -> bytes:
    return np.packbits(table, bitorder="little").tobytes()


def _parse_bit_field(value: str, size: int) -> np.ndarray:
    """A raw 0/1 string of exactly `size` characters, or '0x…' hex or base64
    of exactly ceil(size/8) little-endian packed bytes.

    No valid base64 table is made only of 0s and 1s: unpadded base64 holds a
    multiple of 3 bytes, and ceil(2^m/8) never is one.
    """
    if not isinstance(value, str):
        raise ValueError(f"bit field must be a string, got {type(value).__name__}")
    if value[:2] in ("0x", "0X"):
        data = bytes.fromhex(value[2:])
    elif set(value) <= {"0", "1"}:
        if len(value) != size:
            raise ValueError(f"bit string has {len(value)} characters, expected {size}")
        return np.array([int(c) for c in value], dtype=np.uint8)
    else:
        data = base64.b64decode(value, validate=True)
    if len(data) != (size + 7) // 8:
        raise ValueError(f"table data has {len(data)} bytes, expected {(size + 7) // 8}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits[:size].astype(np.uint8)


@dataclass(frozen=True)
class BooleanFunction:
    """A total function {0,1}^n -> {0,1} held as a dense truth table.

    ``table[i]`` is the value at the point whose integer form is ``i``.
    ``junta_vars``/``junta_inner``, when present, record that the function was
    built from an inner table over a subset of the variables.
    """

    n: int
    table: np.ndarray
    junta_vars: Optional[tuple[int, ...]] = None
    junta_inner: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 1 <= self.n <= N_MAX:
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {self.n}")
        table = np.ascontiguousarray(self.table, dtype=np.uint8)
        if table.shape != (1 << self.n,):
            raise ValueError(
                f"table must have 2^{self.n} entries, got shape {self.table.shape}"
            )
        if np.any(table > 1):
            raise ValueError("table entries must be 0 or 1")
        object.__setattr__(self, "table", table)
        if (self.junta_vars is None) != (self.junta_inner is None):
            raise ValueError("junta backing needs both the variable set and the inner table")
        if self.junta_vars is not None:
            vars_ = tuple(sorted(self.junta_vars))
            inner = np.ascontiguousarray(self.junta_inner, dtype=np.uint8)
            if inner.shape != (1 << len(vars_),):
                raise ValueError("inner table size does not match the variable set")
            object.__setattr__(self, "junta_vars", vars_)
            object.__setattr__(self, "junta_inner", inner)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_table(cls, n: int, values: Sequence[int]) -> "BooleanFunction":
        return cls(n, np.asarray(values, dtype=np.uint8))

    @classmethod
    def from_junta(
        cls, n: int, variables: Iterable[int], inner_table: Sequence[int]
    ) -> "BooleanFunction":
        """Dense function that reads only `variables`, via `inner_table`."""
        vars_ = tuple(sorted(variables))
        proj = class_indices(n, vars_)
        inner = np.asarray(inner_table, dtype=np.uint8)
        if inner.shape != (1 << len(vars_),):
            raise ValueError("inner table size does not match the variable set")
        return cls(n, inner[proj], junta_vars=vars_, junta_inner=inner)

    @classmethod
    def constant(cls, n: int, value: int) -> "BooleanFunction":
        return cls(n, np.full(1 << n, value, dtype=np.uint8))

    @classmethod
    def dictator(cls, n: int, i: int) -> "BooleanFunction":
        return cls.from_junta(n, [i], [0, 1])

    @classmethod
    def parity(cls, n: int, variables: Iterable[int]) -> "BooleanFunction":
        vars_ = tuple(sorted(variables))
        inner = np.arange(1 << len(vars_), dtype=np.int64)
        inner = np.array([v.bit_count() & 1 for v in inner], dtype=np.uint8)
        return cls.from_junta(n, vars_, inner)

    # -- evaluation ----------------------------------------------------

    def eval(self, x: BitString) -> int:
        if x.n != self.n:
            raise DimensionMismatchError(f"point dimension {x.n} != {self.n}")
        return int(self.table[x.value])

    # -- structure -----------------------------------------------------

    def relevant_variables(self) -> frozenset[int]:
        """Exact set of variables i with f(x) != f(x^i) for some x."""
        points = np.arange(1 << self.n, dtype=np.int64)
        out = []
        for i in range(1, self.n + 1):
            if np.any(self.table != self.table[points ^ (1 << (i - 1))]):
                out.append(i)
        return frozenset(out)

    def is_k_junta(self, k: int) -> bool:
        if k < 0:
            raise ValueError("k must be nonnegative")
        return len(self.relevant_variables()) <= k

    def check_junta_backing(self) -> bool:
        """Exhaustively verify the dense table against the inner table."""
        if self.junta_vars is None:
            return True
        rebuilt = BooleanFunction.from_junta(self.n, self.junta_vars, self.junta_inner)
        return bool(np.array_equal(self.table, rebuilt.table))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        doc = {"n": self.n, "table": "0x" + _pack_table(self.table).hex()}
        if self.junta_vars is not None:
            doc["junta"] = {
                "vars": list(self.junta_vars),
                "inner_table": "".join(str(int(b)) for b in self.junta_inner),
            }
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "BooleanFunction":
        n = int(doc["n"])
        if not 1 <= n <= N_MAX:
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {n}")
        table = _parse_bit_field(doc["table"], 1 << n)
        junta = doc.get("junta")
        if junta is None:
            return cls(n, table)
        vars_ = tuple(int(v) for v in junta["vars"])
        inner = _parse_bit_field(junta["inner_table"], 1 << len(vars_))
        f = cls(n, table, junta_vars=vars_, junta_inner=inner)
        if not f.check_junta_backing():
            raise ValueError("truth table disagrees with its junta backing")
        return f


def cube_point_indices(cube: Cube) -> tuple[tuple[int, ...], np.ndarray]:
    """All 2^m point indices of the cube, in subset-mask order over sorted I(B).

    Entry ``t`` of the returned array is ``x^T`` where bit j of ``t`` selects
    the j-th smallest element of I(B).
    """
    positions = tuple(sorted(cube.disagreement))
    m = len(positions)
    if m > M_MAX:
        raise CubeTooLargeError(f"cube dimension {m} exceeds cap {M_MAX}")
    idx = np.array([cube.x.value], dtype=np.int64)
    for i in positions:
        idx = np.concatenate([idx, idx ^ (1 << (i - 1))])
    return positions, idx


def cube_points(cube: Cube) -> list[BitString]:
    """All 2^{|I(B)|} points of the cube as bit strings."""
    _, idx = cube_point_indices(cube)
    return [BitString(cube.n, int(v)) for v in idx]


def walsh_hadamard(values: Sequence[float]) -> np.ndarray:
    """Unnormalized in-place butterfly transform; output[S] = sum_T (-1)^{|S&T|} v[T]."""
    v = np.array(values, dtype=np.float64)
    size = v.size
    if size & (size - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < size:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        h *= 2
    return v.reshape(-1)


@dataclass(frozen=True)
class RestrictedSpectrum:
    """Fourier coefficients of f viewed as a function on a subcube.

    Phases are referenced to corner x of the cube; ``coefficients[s]`` is the
    coefficient of the subset whose mask ``s`` selects elements of
    ``positions`` (the sorted disagreement set).
    """

    base_cube: Cube
    positions: tuple[int, ...]
    coefficients: np.ndarray = field(repr=False)

    def subset_for_mask(self, mask: int) -> frozenset[int]:
        return frozenset(self.positions[j] for j in range(len(self.positions)) if mask >> j & 1)

    def coefficient(self, subset: Iterable[int]) -> float:
        subset = frozenset(subset)
        if not subset <= set(self.positions):
            raise ValueError(f"{set(subset)} is not a subset of I(B)")
        mask = 0
        for j, i in enumerate(self.positions):
            if i in subset:
                mask |= 1 << j
        return float(self.coefficients[mask])

    def squared(self) -> np.ndarray:
        return self.coefficients ** 2


def restricted_spectrum(f: BooleanFunction, cube: Cube) -> RestrictedSpectrum:
    """Exact Walsh-Hadamard spectrum of f restricted to the cube.

    The coefficient of S ⊆ I(B) is (1/|B|) Σ_{T⊆I(B)} (-1)^{f(x^T)+|S∩T|};
    squared coefficients sum to 1.
    """
    if cube.n != f.n:
        raise DimensionMismatchError(f"cube dimension {cube.n} != {f.n}")
    positions, idx = cube_point_indices(cube)
    signs = 1.0 - 2.0 * f.table[idx].astype(np.float64)
    coeffs = walsh_hadamard(signs) / signs.size
    return RestrictedSpectrum(base_cube=cube, positions=positions, coefficients=coeffs)


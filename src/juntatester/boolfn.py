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
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

N_MAX = 24


class DimensionMismatchError(ValueError):
    pass


def _number(value, name: str) -> int | float:
    """A JSON number field as read; a bool, a string, any other type, or an
    integer beyond the range of a float is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} is beyond the range of a float")
    return value


def _integral(value, name: str) -> int:
    """A JSON number field as an int; a fractional or non-finite value is refused."""
    value = _number(value, name)
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    return value


def _document(doc, name: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """A JSON document as read; anything but an object, a missing `required`
    key, or any key outside `required` and `optional`, is refused."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{name} is missing key {key!r}")
    return doc


def _list(value, name: str) -> list:
    """A JSON list field as read; any other type is refused."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, got {type(value).__name__}")
    return value


def index_mask(members: Iterable[int], n: int) -> int:
    """Bitmask of a subset of [n]; raises on out-of-range indices."""
    mask = 0
    for i in members:
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def _free_axes(n: int, kept: Iterable[int]) -> tuple[int, ...]:
    """Axes of the (2,)*n table view, where variable v is axis n - v, outside `kept`.

    A sum over them has one entry per class of points that agree on `kept`, bit j
    of its flat index being the j-th smallest kept variable; broadcast over them
    (keepdims), it is read back at every point. Raises on out-of-range variables.
    """
    mask = index_mask(kept, n)
    return tuple(n - v for v in range(1, n + 1) if not mask >> (v - 1) & 1)


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


@dataclass(frozen=True, eq=False)  # identity equality and hash: the fields are arrays
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
            if len(set(vars_)) != len(vars_):
                raise ValueError(f"junta variables repeat: {list(vars_)}")
            inner = np.ascontiguousarray(self.junta_inner, dtype=np.uint8)
            if inner.shape != (1 << len(vars_),):
                raise ValueError("inner table size does not match the variable set")
            object.__setattr__(self, "junta_vars", vars_)
            object.__setattr__(self, "junta_inner", inner)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_junta(
        cls, n: int, variables: Iterable[int], inner_table: Sequence[int]
    ) -> "BooleanFunction":
        """Dense function that reads only `variables`, via `inner_table`."""
        if not 1 <= n <= N_MAX:  # every check comes before the 2^n table exists
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {n}")
        vars_ = tuple(sorted(variables))
        free = _free_axes(n, vars_)
        if len(set(vars_)) != len(vars_):
            raise ValueError(f"junta variables repeat: {list(vars_)}")
        inner = np.asarray(inner_table, dtype=np.uint8)
        if inner.shape != (1 << len(vars_),):
            raise ValueError("inner table size does not match the variable set")
        cells = np.expand_dims(inner.reshape((2,) * len(vars_)), free)
        table = np.broadcast_to(cells, (2,) * n).flatten()
        return cls(n, table, junta_vars=vars_, junta_inner=inner)

    @classmethod
    def parity(cls, n: int, variables: Iterable[int]) -> "BooleanFunction":
        vars_ = tuple(sorted(variables))
        inner = np.array([v.bit_count() & 1 for v in range(1 << len(vars_))], dtype=np.uint8)
        return cls.from_junta(n, vars_, inner)

    # -- evaluation ----------------------------------------------------

    def eval(self, x: BitString) -> int:
        if x.n != self.n:
            raise DimensionMismatchError(f"point dimension {x.n} != {self.n}")
        return int(self.table[x.value])

    # -- structure -----------------------------------------------------

    def relevant_variables(self) -> frozenset[int]:
        """Exact set of variables i with f(x) != f(x^i) for some x."""
        view = self.table.reshape((2,) * self.n)  # the halves x_i = 0, 1 of axis n - i
        return frozenset(i for i in range(1, self.n + 1) if np.diff(view, axis=self.n - i).any())

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
        n = _integral(_document(doc, "function", ("n", "table"), ("junta",))["n"], "n")
        if not 1 <= n <= N_MAX:
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {n}")
        table = _parse_bit_field(doc["table"], 1 << n)
        junta = doc.get("junta")
        if junta is None:
            return cls(n, table)
        _document(junta, "junta block", ("vars", "inner_table"))
        vars_ = tuple(_integral(v, "junta variable") for v in _list(junta["vars"], "junta vars"))
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
    idx = np.empty(1 << len(positions), dtype=np.int64)
    idx[0] = cube.x.value
    for j, i in enumerate(positions):
        np.bitwise_xor(idx[: 1 << j], 1 << (i - 1), out=idx[1 << j : 2 << j])
    return positions, idx


def walsh_hadamard(values: Sequence[float]) -> np.ndarray:
    """Unnormalized transform of a copy of `values`, one half-size temporary per
    in-place butterfly; output[S] = sum_T (-1)^{|S&T|} v[T]."""
    v = np.array(values, dtype=np.float64)
    size = v.size
    if size & (size - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < size:
        blocks = v.reshape(-1, 2 * h)
        left, right = blocks[:, :h], blocks[:, h:]
        total = left + right
        np.subtract(left, right, out=right)
        left[...] = total
        del total
        h *= 2
    return v.reshape(-1)


@dataclass(frozen=True)
class RestrictedSpectrum:
    """Fourier coefficients of f viewed as a function on a subcube.

    Phases are referenced to corner x of the cube; ``coefficients[s]`` is the
    coefficient of the subset whose mask ``s`` selects elements of
    ``positions`` (the sorted disagreement set).
    """

    positions: tuple[int, ...]
    coefficients: np.ndarray = field(repr=False)

    def subset_for_mask(self, mask: int) -> frozenset[int]:
        return frozenset(self.positions[j] for j in range(len(self.positions)) if mask >> j & 1)

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
    signs = np.multiply(f.table[idx], -2.0)
    del idx
    signs += 1.0  # 1 - 2 f(x^T), bit for bit
    coeffs = walsh_hadamard(signs)
    coeffs /= coeffs.size
    return RestrictedSpectrum(positions=positions, coefficients=coeffs)


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
from itertools import groupby
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


def _class_reduce(values: np.ndarray, n: int, kept: Iterable[int], op=np.add) -> np.ndarray:
    """`op` of a contiguous 2^n per-point array over each class of points that agree
    on `kept`; bit j of a class index is the j-th smallest kept variable.

    Walks variables n down to 1 on the array held as (classes, rest): a free one
    becomes `op` of its two contiguous halves, a kept one the lowest class bit.
    So no fold runs a length-2 inner loop. Raises on out-of-range variables.
    """
    mask = index_mask(kept, n)
    a = values.reshape(1, -1)
    for v in range(n, 0, -1):
        halves = a.reshape(a.shape[0], 2, -1)
        if mask >> (v - 1) & 1:
            a = halves.reshape(-1, halves.shape[2])
        else:
            a = op(halves[:, 0], halves[:, 1])
    return a.reshape(-1)


def _class_expand(per_class: np.ndarray, n: int, kept: Iterable[int]) -> np.ndarray:
    """The exact inverse of `_class_reduce`: a new contiguous 2^n array holding at
    each point its class's entry of `per_class`, in `_class_reduce`'s class order.

    Builds blocks of variables 1..12 as (classes, block), one step per maximal
    run (a kept run joins adjacent class rows, a free run tiles each row), then
    assigns them to the one 2^n result in a single broadcast over the runs of
    the variables above: a kept run's axis indexes class bits, a free run's
    axis repeats. Raises on out-of-range variables before the 2^n array exists.
    """
    bits = format(index_mask(kept, n), f"0{n}b")  # variable n first
    split = max(n - 12, 0)
    a = per_class.reshape(-1, 1)
    for is_kept, run in groupby(bits[split:][::-1]):
        reps = 1 << len(list(run))
        a = (a.reshape(-1, a.shape[1] * reps) if is_kept == "1"
             else a[:, None].repeat(reps, 1).reshape(len(a), -1))  # np.tile, in fewer calls
    runs = [(is_kept == "1", 1 << len(list(run))) for is_kept, run in groupby(bits[:split])]
    out = np.empty(1 << n, dtype=per_class.dtype)
    out.reshape([size for _, size in runs] + [-1])[...] = a.reshape(
        [size if is_kept else 1 for is_kept, size in runs] + [a.shape[1]])
    return out


def mask_indices(mask: int) -> tuple[int, ...]:
    """The variables of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


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
        return frozenset(mask_indices(self.x.value ^ self.y.value))

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


def _bit_table(table, size: int, name: str) -> np.ndarray:
    """`table` as a contiguous uint8 array of `size` entries; any entry that is not
    exactly 0 or 1 is refused before a cast could wrap or truncate it. A uint8
    table is checked by its maximum, and a contiguous one is kept, so neither
    makes a temporary of its size."""
    table = np.asarray(table)
    if table.shape != (size,):
        raise ValueError(f"{name} must have {size} entries, got shape {table.shape}")
    if not (table.max() <= 1 if table.dtype == np.uint8 else ((table == 0) | (table == 1)).all()):
        raise ValueError(f"{name} entries must be 0 or 1")
    return np.ascontiguousarray(table, dtype=np.uint8)


@dataclass(frozen=True, eq=False)  # identity equality and hash: the fields are arrays
class BooleanFunction:
    """A total function {0,1}^n -> {0,1} held as a dense truth table.

    ``table[i]`` is the value at the point whose integer form is ``i``.
    ``junta_vars`` is set only by `from_junta`, and records that the function
    was built from an inner table over those variables.
    """

    n: int
    table: np.ndarray
    junta_vars: Optional[tuple[int, ...]] = field(default=None, init=False)

    def __post_init__(self):
        if not 1 <= self.n <= N_MAX:
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {self.n}")
        object.__setattr__(self, "table", _bit_table(self.table, 1 << self.n, "table"))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_junta(
        cls, n: int, variables: Iterable[int], inner_table: Sequence[int]
    ) -> "BooleanFunction":
        """Dense function that reads only `variables`, via `inner_table`."""
        if not 1 <= n <= N_MAX:  # every check comes before the 2^n table exists
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {n}")
        vars_ = tuple(sorted(variables))
        if len(set(vars_)) != len(vars_):
            raise ValueError(f"junta variables repeat: {list(vars_)}")
        inner = _bit_table(inner_table, 1 << len(vars_), "inner table")
        f = cls(n, _class_expand(inner, n, vars_))  # which checks the variables' range
        object.__setattr__(f, "junta_vars", vars_)
        return f

    @classmethod
    def parity(cls, n: int, variables: Iterable[int]) -> "BooleanFunction":
        vars_ = tuple(sorted(variables))
        inner = np.array([v.bit_count() & 1 for v in range(1 << len(vars_))], dtype=np.uint8)
        return cls.from_junta(n, vars_, inner)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        doc = {"n": self.n, "table": "0x" + _pack_table(self.table).hex()}
        if self.junta_vars is not None:  # each class of a junta is constant
            inner = _class_reduce(self.table, self.n, self.junta_vars, np.bitwise_or)
            doc["junta"] = {
                "vars": list(self.junta_vars),
                "inner_table": "".join(str(int(b)) for b in inner),
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
        f = cls.from_junta(n, vars_, inner)
        if not np.array_equal(f.table, table):
            raise ValueError("truth table disagrees with its junta backing")
        return f


# _H[r][S, T] = (-1)^{|S&T|}: Sylvester's Hadamard matrices up to 64 x 64
_H = [np.ones((1, 1))]
for _ in range(6):
    _H.append(np.kron(_H[-1], [[1.0, 1.0], [1.0, -1.0]]))


def walsh_hadamard(values: Sequence[int]) -> np.ndarray:
    """Unnormalized transform of integer `values`; output[S] = sum_T (-1)^{|S&T|} v[T].

    The r index bits split into p = ceil(r/6) runs of widths floor((r+j)/p),
    and each run is one product with Sylvester's H_w (H_{a+b} = H_a ⊗ H_b):
    the lowest as M @ H_w, each higher one as H_w @ M on the entries held as
    (above, 2^w, below). Every partial sum is an integer below 2^53 and no
    zero is -0.0, so the bits are those of the butterfly in any summation
    order. The input is not written.
    """
    v = np.asarray(values, dtype=np.float64)
    size = v.size
    if not size or size & (size - 1):
        raise ValueError("length must be a power of two")
    r = size.bit_length() - 1
    runs, low = (r + 5) // 6 or 1, 0
    for j in range(runs):
        w = (r + j) // runs
        v = _H[w] @ v.reshape(-1, 1 << w, 1 << low) if low else v.reshape(-1, 1 << w) @ _H[w]
        low += w
    return v.reshape(-1)


@dataclass(frozen=True)
class RestrictedSpectrum:
    """Fourier coefficients of f viewed as a function on a subcube.

    Phases are referenced to corner x of the cube; ``coefficients[s]`` is the
    coefficient of the subset whose mask ``s`` selects elements of
    ``positions``: the sorted variables of I(B) that f is built on (all of
    I(B) unless f has a junta backing). Every other subset of I(B) has
    coefficient 0.
    """

    positions: tuple[int, ...]
    coefficients: np.ndarray = field(repr=False)


# [axis transformed][x's bit] -> index of that axis of the (2,)*n view, so that
# entry t of the slice is f(x^T)
_AXIS = ((0, 1), (slice(None), slice(None, None, -1)))
_SIGN = np.array([1, -1], np.int8)  # 1 - 2 f


def restricted_spectrum(f: BooleanFunction, cube: Cube) -> RestrictedSpectrum:
    """Exact Walsh-Hadamard spectrum of f restricted to the cube.

    The coefficient of S ⊆ I(B) is (1/|B|) Σ_{T⊆I(B)} (-1)^{f(x^T)+|S∩T|};
    squared coefficients sum to 1. f is read on B through one slice of its
    (2,)*n view, and only the axes of I(B) that f is built on are transformed:
    f is constant along the others, so a subset holding one has coefficient 0.
    With r such axes every coefficient is an integer over 2^r, the same value
    as over 2^|I(B)|.
    """
    if cube.n != f.n:
        raise DimensionMismatchError(f"cube dimension {cube.n} != {f.n}")
    n, x = f.n, cube.x.value
    read = (1 << n) - 1 if f.junta_vars is None else index_mask(f.junta_vars, n)
    spanned = (x ^ cube.y.value) & read
    axes = [_AXIS[spanned >> i & 1][x >> i & 1] for i in range(n - 1, -1, -1)]  # variable n first
    cells = f.table.reshape((2,) * n)[tuple(axes)]
    coeffs = walsh_hadamard(_SIGN[cells].reshape(-1))
    coeffs /= coeffs.size
    return RestrictedSpectrum(positions=mask_indices(spanned), coefficients=coeffs)

"""Explicit distributions over the hypercube and exact distance-to-junta certification."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .boolfn import (
    BitString, BooleanFunction, N_MAX, _document, _free_axes, _integral, _list, _number
)

WORK_CAP = 10**9
_NORM_TOL = 1e-9


class WorkCapExceededError(RuntimeError):
    """Raised when a computation would exceed the work cap; the CLI exits 4."""


@dataclass(frozen=True, eq=False)  # identity equality and hash: the fields are arrays
class Distribution:
    """A probability distribution over {0,1}^n with explicit support.

    ``support`` holds point indices; ``probs`` the matching probabilities,
    normalized on construction. A dense distribution simply has full support.
    """

    n: int
    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= N_MAX:
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {self.n}")
        support = np.ascontiguousarray(self.support, dtype=np.int64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if support.ndim != 1 or support.shape != probs.shape:
            raise ValueError("support and probabilities must be 1-d and aligned")
        if support.size == 0:
            raise ValueError("empty support")
        if np.any(support < 0) or np.any(support >= (1 << self.n)):
            raise ValueError("support point out of range")
        ordered = np.sort(support)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("duplicate support points")
        if np.any(probs < 0):
            raise ValueError("negative weight")
        total = probs.sum()
        if not np.isfinite(total):
            raise ValueError("weights must be finite and have a finite sum")
        if total <= 0:
            raise ValueError("weights must not all be zero")
        probs = probs / total
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cum", np.cumsum(probs))

    # -- constructors -------------------------------------------------

    @classmethod
    def dense(cls, n: int, weights) -> "Distribution":
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (1 << n,):
            raise ValueError(f"dense weights must have 2^{n} entries")
        return cls(n, np.arange(1 << n, dtype=np.int64), weights)

    @classmethod
    def sparse(cls, n: int, weights: Mapping) -> "Distribution":
        """Weights keyed by point index, BitString, or 0/1 string of length n."""
        support, probs = [], []
        for key, w in weights.items():
            if isinstance(key, str):
                key = BitString.from_str(key)
            if isinstance(key, BitString):
                if key.n != n:
                    raise ValueError(f"support point {key.to_str()!r} does not have {n} bits")
                idx = key.value
            else:
                idx = int(key)
            support.append(idx)
            probs.append(float(w))
        return cls(n, np.array(support, dtype=np.int64), np.array(probs))

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls.dense(n, np.full(1 << n, 1.0))

    @classmethod
    def point_mass(cls, x: BitString) -> "Distribution":
        return cls(x.n, np.array([x.value], dtype=np.int64), np.array([1.0]))

    # -- queries --------------------------------------------------------

    def dense_weights(self) -> np.ndarray:
        w = np.zeros(1 << self.n, dtype=np.float64)
        w[self.support] = self.probs
        return w

    def sample_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        pos = np.searchsorted(self._cum, rng.random(count), side="right")
        return self.support[np.minimum(pos, self.support.size - 1)]

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.support.size == (1 << self.n):
            return {"n": self.n, "dense": [float(p) for p in self.dense_weights()]}
        return {
            "n": self.n,
            "support": [
                {"x": BitString(self.n, int(i)).to_str(), "w": float(p)}
                for i, p in zip(self.support, self.probs)
            ],
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "Distribution":
        n = _integral(_document(doc, "distribution", ("n",), ("dense", "support"))["n"], "n")
        if not 1 <= n <= N_MAX:
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {n}")
        if ("dense" in doc) == ("support" in doc):
            raise ValueError("a distribution has exactly one of 'dense' and 'support'")
        if "dense" in doc:
            return cls.dense(n, [_number(w, "weight") for w in _list(doc["dense"], "dense")])
        weights = {}
        for entry in _list(doc["support"], "support"):
            x = _document(entry, "support entry", ("x", "w"))["x"]
            if not isinstance(x, str):  # a point index
                x = _integral(x, "support point")
                if not 0 <= x < 1 << n:
                    raise ValueError(f"support point {x} out of range for n={n}")
            if x in weights:
                raise ValueError(f"duplicate support point {x!r}")
            weights[x] = _number(entry["w"], "weight")
        return cls.sparse(n, weights)


@dataclass(frozen=True)
class DistanceCertificate:
    """An exact witness for the distance of f to the nearest k-junta under D."""

    distance: float
    best_subset: frozenset[int]
    best_junta: BooleanFunction

    def to_json(self) -> dict:
        return {
            "distance": self.distance,
            "best_subset": sorted(self.best_subset),
            "best_junta": self.best_junta.to_json(),
        }


def best_junta_on(
    f: BooleanFunction, dist: Distribution, variables: Iterable[int]
) -> tuple[BooleanFunction, float]:
    """The junta on `variables` closest to f under D (weighted majority per class).

    Ties within a projection class break toward output 0.
    """
    if dist.n != f.n:
        raise ValueError(f"distribution dimension {dist.n} != {f.n}")
    vars_ = tuple(sorted(set(variables)))
    free = _free_axes(f.n, vars_)
    w = dist.dense_weights().reshape((2,) * f.n)
    table = f.table.reshape((2,) * f.n)
    # cost of answering 0 (resp. 1) in each class
    cost0 = (w * table).sum(axis=free).reshape(-1)
    cost1 = (w * (1 - table)).sum(axis=free).reshape(-1)
    inner = (cost1 < cost0).astype(np.uint8)
    error = float(np.minimum(cost0, cost1).sum())
    return BooleanFunction.from_junta(f.n, vars_, inner), error


def _subset_errors(
    f: BooleanFunction, dist: Distribution, k: int
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Majority error of every k-subset of 1..n, in lexicographic order.

    A depth-first walk over variables 1..n on the stacked per-point costs
    (w*f, w*(1-f)), held as shape (2, rest, cells). Keeping variable v
    reshapes it into the next bit of the cell index, so bit j is the j-th
    kept variable, the class order of `boolfn._free_axes`; dropping v sums
    it out. Keep is tried before drop, and every subset reuses its parent's
    marginals.
    """
    n = f.n
    w = dist.dense_weights()
    costs = np.stack((w * f.table, w * (1 - f.table)))

    def walk(a: np.ndarray, v: int, kept: tuple[int, ...]):
        if len(kept) == k:
            marginal = a.sum(axis=1)
            yield kept, float(np.minimum(marginal[0], marginal[1]).sum())
            return
        pairs = a.reshape(2, -1, 2, a.shape[2])
        yield from walk(pairs.reshape(2, pairs.shape[1], -1), v + 1, kept + (v,))
        if n - v >= k - len(kept):
            yield from walk(pairs[:, :, 0] + pairs[:, :, 1], v + 1, kept)

    return walk(costs.reshape(2, -1, 1), 1, ())


def distance_to_k_junta(
    f: BooleanFunction, dist: Distribution, k: int, work_cap: int = WORK_CAP
) -> DistanceCertificate:
    """Exact distance of f to the nearest k-junta with respect to D.

    Scans all C(n,k) variable subsets in lexicographic order with the
    shared-marginal walk of `_subset_errors`. A later subset replaces the
    incumbent only if its error is lower by more than 1e-9, and the scan
    stops at the first subset with error 0, so the certificate carries the
    lexicographically first minimizer up to that margin. Its distance and
    junta come from one `best_junta_on` call on that subset. The work-cap
    check is unchanged: it still bounds C(n,k)*2^n, the cost of a full-table
    scan per subset, although the walk does less work.
    """
    n = f.n
    if dist.n != n:
        raise ValueError(f"distribution dimension {dist.n} != {n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    k = min(k, n)
    if comb(n, k) * (1 << n) > work_cap:
        raise WorkCapExceededError(
            f"C({n},{k})*2^{n} exceeds the work cap of {work_cap}"
        )
    best: Optional[tuple[float, tuple[int, ...]]] = None
    for subset, error in _subset_errors(f, dist, k):
        if best is None or error < best[0] - _NORM_TOL:
            best = (error, subset)
        if best[0] <= 0.0:
            break
    assert best is not None
    junta, error = best_junta_on(f, dist, best[1])
    return DistanceCertificate(
        distance=max(error, 0.0), best_subset=frozenset(best[1]), best_junta=junta
    )

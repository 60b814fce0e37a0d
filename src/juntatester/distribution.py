"""Explicit distributions over the hypercube and exact distance-to-junta certification."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping

import numpy as np

from .boolfn import (
    BitString, BooleanFunction, N_MAX, _class_reduce, _document, _integral, _list, _number
)

WORK_CAP = 10**9
_NORM_TOL = 1e-9


class WorkCapExceededError(RuntimeError):
    """Raised when a computation would exceed the work cap; the CLI exits 4."""


@dataclass(frozen=True, eq=False, init=False)  # identity equality and hash
class Distribution:
    """A probability distribution over {0,1}^n.

    ``support`` holds point indices; ``probs`` the matching probabilities,
    normalized on construction. A dense distribution simply has full support.
    ``uniform(n)`` stores no 2^n table: it draws floor(u·2^n), and its
    ``support`` and ``probs`` are built on each read. Privately, ``_index``
    and ``_weights`` place the support in a 2^n table; uniform D holds the
    whole-table slice and the scalar 2^-n there.
    """

    n: int

    def __init__(self, n: int, support, probs):
        if not 1 <= n <= N_MAX:
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {n}")
        points = np.asarray(support)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if points.ndim != 1 or points.shape != probs.shape:
            raise ValueError("support and probabilities must be 1-d and aligned")
        if points.size == 0:
            raise ValueError("empty support")
        if not np.all((points >= 0) & (points < 1 << n)):  # NaN too, before any cast
            raise ValueError("support point out of range")
        support = np.ascontiguousarray(points, dtype=np.int64)
        if np.any(support != points):
            raise ValueError("support points must be integers")
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
        cum = np.cumsum(probs)
        # the sum may end below 1: a draw past it lands on the last positive
        # weight, never on a zero-weight point after it
        cum[-1 if probs[-1] else np.flatnonzero(probs)[-1]:] = np.inf
        vars(self).update(n=n, _index=support, _weights=probs, _cum=cum)

    @property
    def support(self) -> np.ndarray:
        return np.arange(1 << self.n, dtype=np.int64) if self._cum is None else self._index

    @property
    def probs(self) -> np.ndarray:
        return np.full(1 << self.n, 2.0 ** -self.n) if self._cum is None else self._weights

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
                key = key.value
            support.append(key)
            probs.append(float(w))
        return cls(n, np.array(support), np.array(probs))

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        if not 1 <= n <= N_MAX:  # before anything of size 2^n
            raise ValueError(f"dimension must be in 1..{N_MAX}, got {n}")
        dist = cls.__new__(cls)
        vars(dist).update(n=n, _index=slice(None), _weights=2.0 ** -n, _cum=None)
        return dist

    @classmethod
    def point_mass(cls, x: BitString) -> "Distribution":
        return cls(x.n, np.array([x.value], dtype=np.int64), np.array([1.0]))

    # -- queries --------------------------------------------------------

    def dense_weights(self) -> np.ndarray:
        w = np.zeros(1 << self.n, dtype=np.float64)
        w[self._index] = self._weights
        return w

    def sample_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        u = rng.random(count)
        if self._cum is None:  # a uniform cumulative table holds exactly (i+1)·2^-n
            return (u * (1 << self.n)).astype(np.int64)
        return self._index[np.searchsorted(self._cum, u, side="right")]

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self._cum is None or self._index.size == 1 << self.n:
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
    w = dist.dense_weights()
    # cost of answering 0 (resp. 1) in each class
    cost0 = _class_reduce(w * f.table, f.n, vars_)
    cost1 = _class_reduce(w * (1 - f.table), f.n, vars_)
    inner = (cost1 < cost0).astype(np.uint8)
    error = float(np.minimum(cost0, cost1).sum())
    return BooleanFunction.from_junta(f.n, vars_, inner), error


@cache
def walk_work(n: int, k: int) -> int:
    """W(n, k), 0 <= k <= n: the elements that the unpruned walk of `distance_to_k_junta`
    makes as drop children or reads at its leaves. The root holds 2^(n+1); its keep
    child holds as many, and its drop child, made only while n > k, holds half."""
    if k == 0:
        return 2 << n
    drop = (1 << n) + walk_work(n - 1, k) if n > k else 0
    return 2 * walk_work(n - 1, k - 1) + drop


def check_walk_work(n: int, k: int) -> None:
    """Refuse a walk whose W(n, min(k, n)) exceeds `WORK_CAP`, read at each call."""
    work = walk_work(n, min(k, n))
    if work > WORK_CAP:
        raise WorkCapExceededError(
            f"the distance walk's work W({n},{k}) = {work} exceeds the work cap of {WORK_CAP}"
        )


def distance_to_k_junta(f: BooleanFunction, dist: Distribution, k: int) -> DistanceCertificate:
    """Exact distance of f to the nearest k-junta with respect to D.

    A depth-first walk over variables 1..n on the stacked per-point costs
    (w*f, w*(1-f)), held as (2, rest, cells). Keeping variable v reshapes it
    into the next cell bit, so bit j is the j-th kept variable, the class order
    of `boolfn._class_reduce`; dropping v sums it out. Keep comes before drop,
    so subsets come in lexicographic order; one replaces the incumbent only if
    its error is lower by more than 1e-9, and the walk stops at error 0. The
    majority error is monotone, so a drop child's summed cellwise minima bound
    every subset below it: a subtree that cannot win (with 1e-12 slack for
    summation order) is skipped. The certificate is one `best_junta_on` call
    on the winner, the lexicographically first minimizer up to that margin.
    """
    n = f.n
    if dist.n != n:
        raise ValueError(f"distribution dimension {dist.n} != {n}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    k = min(k, n)
    check_walk_work(n, k)
    w = dist.dense_weights()
    best, best_subset = np.inf, ()

    def walk(a: np.ndarray, v: int, kept: tuple[int, ...]) -> None:
        nonlocal best, best_subset
        if len(kept) == k:
            marginal = a.sum(axis=1)
            error = float(np.minimum(marginal[0], marginal[1]).sum())
            if error < best - _NORM_TOL:
                best, best_subset = error, kept
            return
        pairs = a.reshape(2, -1, 2, a.shape[2])
        walk(pairs.reshape(2, pairs.shape[1], -1), v + 1, kept + (v,))
        if best > 0.0 and n - v >= k - len(kept):
            drop = pairs[:, :, 0] + pairs[:, :, 1]
            if float(np.minimum(drop[0], drop[1]).sum()) < best - _NORM_TOL + 1e-12:
                walk(drop, v + 1, kept)

    walk(np.stack((w * f.table, w * (1 - f.table))).reshape(2, -1, 1), 1, ())
    junta, error = best_junta_on(f, dist, best_subset)
    return DistanceCertificate(max(error, 0.0), frozenset(best_subset), junta)

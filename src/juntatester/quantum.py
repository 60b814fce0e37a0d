"""Exact simulation of the quantum subroutines.

Fourier sampling on a subcube is simulated by computing the exact restricted
spectrum and drawing from the squared-coefficient distribution; this is
distributionally identical to measuring the transformed phase-oracle state.
One sampler execution is charged as one quantum query.

The amplitude-amplified cube generator is simulated at the level of success
probabilities: the per-attempt success probability p is computed exactly from
the explicit function and distribution, and each amplification stage with r
oracle reflections succeeds with probability sin^2((2r+1) arcsin(sqrt(p))).
"""

from __future__ import annotations

import weakref
from math import asin, ceil, sin, sqrt
from typing import Optional

import numpy as np

from .boolfn import (
    BitString, BooleanFunction, Cube, _free_axes, index_mask, restricted_spectrum
)
from .distribution import Distribution
from .oracles import MembershipOracle, SampleOracle


class DegenerateCubeError(ValueError):
    pass


def fourier_sample(
    oracle: MembershipOracle, cube: Cube, rng: np.random.Generator
) -> frozenset[int]:
    """One Fourier sample of f restricted to the cube; returns T ⊆ I(B).

    T is drawn with probability exactly equal to the squared restricted
    coefficient; the ledger is charged one quantum query.
    """
    return fourier_sample_many(oracle, cube, rng, 1)[0]


def fourier_sample_many(
    oracle: MembershipOracle, cube: Cube, rng: np.random.Generator, count: int
) -> list[frozenset[int]]:
    """`count` independent Fourier samples, charged as `count` quantum queries.

    The spectrum is computed once, which only matters for simulation speed.
    """
    if cube.dimension() == 0:
        raise DegenerateCubeError("cannot Fourier-sample a single-point cube")
    if count < 1:
        raise ValueError("count must be positive")
    spectrum = restricted_spectrum(oracle.function, cube)
    cum = spectrum.squared()
    cum /= cum.sum()  # shed float drift; exact mass is 1
    np.cumsum(cum, out=cum)
    oracle.charge_quantum(count)
    masks = np.minimum(np.searchsorted(cum, rng.random(count), side="right"), cum.size - 1)
    return [spectrum.subset_for_mask(int(m)) for m in masks]


# dist -> f -> {(kind, S): value}, keyed by identity: an entry dies with f or D.
# `run_tester` reaches it from the oracles alone, however its caller built them.
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo(f: BooleanFunction, dist: Distribution) -> dict:
    """The memo of values that depend only on (f, D, S), filled on first use."""
    return _MEMO.setdefault(dist, weakref.WeakKeyDictionary()).setdefault(f, {})


def attempt_success_probability(
    f: BooleanFunction, dist: Distribution, fixed: frozenset[int] | set[int]
) -> float:
    """Exact Pr_{x~D, T ⊆ [n]\\S}[f(x) != f(x^T)] for S = `fixed`, memoized per (f, D).

    For x with a given restriction to S, the points x^T sweep uniformly over
    the subcube that agrees with x on S, so the inner probability depends only
    on the class mean of f over that subcube: its exact count of ones over the
    class size, read back at the support of D.
    """
    n = f.n
    if dist.n != n:
        raise ValueError(f"distribution dimension {dist.n} != {n}")
    memo, key = _memo(f, dist), ("p", frozenset(fixed))
    if key in memo:
        return memo[key]
    free = _free_axes(n, fixed)
    counts = f.table.reshape((2,) * n).sum(axis=free, dtype=np.int64, keepdims=True)
    mu = np.broadcast_to(counts / (1 << len(free)), (2,) * n).reshape(-1)[dist.support]
    fx = f.table[dist.support]
    memo[key] = float(np.sum(dist.probs * (fx * (1.0 - mu) + (1.0 - fx) * mu)))
    return memo[key]


def _absorbing(f: BooleanFunction, dist: Distribution, fixed: frozenset[int]) -> bool:
    """True when f is constant on the S-class of every support point of D, S = `fixed`:
    then p = 0 and every cube search fails. A zero-weight point counts too, as
    `Distribution.sample_indices` can return a zero-weight last entry. The class
    counts of p and a uint8 mark of the support are reduced over the free axes,
    with no 2^n-sized int64 or float64 temporary. Memoized like p.
    """
    memo, key = _memo(f, dist), ("absorbing", frozenset(fixed))
    if key in memo:
        return memo[key]
    n = f.n
    free = _free_axes(n, fixed)
    counts = f.table.reshape((2,) * n).sum(axis=free, dtype=np.int64)
    mixed = (0 < counts) & (counts < 1 << len(free))
    if mixed.any():
        marked = np.zeros(1 << n, dtype=np.uint8)
        marked[dist.support] = 1
        mixed &= marked.reshape((2,) * n).max(axis=free).astype(bool)
    memo[key] = not mixed.any()
    return memo[key]


def first_relevant_attempt(
    f: BooleanFunction, dist: Distribution, fixed: frozenset[int], count: int,
    rng: np.random.Generator,
) -> Optional[tuple[int, Cube]]:
    """Draw `count` attempts (x ~ D, T ⊆ [n]\\S) for S = `fixed` in one batch.

    Returns the 1-based number of the first attempt with f(x) != f(x^T) and
    its cube (x, x^T), or None when no attempt hits. The batch takes the x
    draws before the T draws, which is equivalent to drawing attempt by
    attempt. Nothing is charged.
    """
    n = f.n
    free_mask = ((1 << n) - 1) & ~index_mask(fixed, n)
    xs = dist.sample_indices(rng, count)
    tmasks = rng.integers(0, 1 << n, size=count, dtype=np.int64) & free_mask
    hits = np.nonzero(f.table[xs] != f.table[xs ^ tmasks])[0]
    if not hits.size:
        return None
    j = int(hits[0])
    x = int(xs[j])
    return j + 1, Cube(BitString(n, x), BitString(n, x ^ int(tmasks[j])))


def amplification_schedule(eps: float) -> list[int]:
    """Stage reflection counts r_j = ceil(2^{j/2}) whose sum is within ceil(4/sqrt(eps))."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    budget = ceil(4 / sqrt(eps))
    stages, used, j = [], 0, 0
    while True:
        r = ceil(2 ** (j / 2))
        if used + r > budget:
            break
        stages.append(r)
        used += r
        j += 1
    return stages


def stage_success_probability(reflections: int, p: float) -> float:
    """Probability that a stage with r oracle reflections measures a good outcome."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    return sin((2 * reflections + 1) * asin(sqrt(p))) ** 2


def amplified_generate_cube(
    oracle: MembershipOracle,
    samples: SampleOracle,
    fixed: frozenset[int],
    eps: float,
    rng: np.random.Generator,
) -> Optional[Cube]:
    """Amplitude-amplified search for a relevant cube disjoint from `fixed`.

    Runs the doubling schedule, charging each stage's reflections as quantum
    queries (at most ceil(4/sqrt(eps)) in total). On success returns a cube
    (x, x^T) with f(x) != f(x^T) drawn from the conditional distribution of
    successful attempts; the rejection draws used to realize that conditional
    are simulation bookkeeping and are not charged.
    """
    stages = amplification_schedule(eps)
    p = attempt_success_probability(oracle.function, samples.distribution, fixed)
    for r in stages:
        oracle.charge_quantum(r)
        if rng.random() < stage_success_probability(r, p):
            break
    else:
        return None
    # Conditional draw of a successful attempt (uncharged bookkeeping).
    while True:
        hit = first_relevant_attempt(oracle.function, samples.distribution, fixed, 256, rng)
        if hit is not None:
            return hit[1]

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

from math import asin, ceil, sin, sqrt
from typing import Optional

import numpy as np

from .boolfn import (
    BitString, BooleanFunction, Cube, class_indices, index_mask, restricted_spectrum
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
    probs = spectrum.squared()
    cum = np.cumsum(probs / probs.sum())  # shed float drift; exact mass is 1
    oracle.charge_quantum(count)
    masks = np.minimum(
        np.searchsorted(cum, rng.random(count), side="right"), probs.size - 1
    )
    return [spectrum.subset_for_mask(int(m)) for m in masks]


def attempt_success_probability(
    f: BooleanFunction, dist: Distribution, fixed: frozenset[int] | set[int]
) -> float:
    """Exact Pr_{x~D, T ⊆ [n]\\S}[f(x) != f(x^T)] for S = `fixed`.

    For x with a given restriction to S, the points x^T sweep uniformly over
    the subcube that agrees with x on S, so the inner probability depends only
    on the class mean of f over that subcube.
    """
    n = f.n
    if dist.n != n:
        raise ValueError(f"distribution dimension {dist.n} != {n}")
    vars_ = tuple(sorted(fixed))
    proj = class_indices(n, vars_)
    classes = 1 << len(vars_)
    table = f.table.astype(np.float64)
    mean = np.bincount(proj, weights=table, minlength=classes) / (1 << (n - len(vars_)))
    fx = table[dist.support]
    mu = mean[proj[dist.support]]
    return float(np.sum(dist.probs * (fx * (1.0 - mu) + (1.0 - fx) * mu)))


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


def amplification_schedule(eps: float) -> tuple[list[int], int]:
    """Stage reflection counts r_j = ceil(2^{j/2}) within the budget ceil(4/sqrt(eps))."""
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
    return stages, budget


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
    stages, _ = amplification_schedule(eps)
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

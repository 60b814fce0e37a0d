"""Exact simulation of the quantum subroutines.

Fourier sampling on a subcube is simulated by computing the exact restricted
spectrum and drawing u ~ U[0, 1) against the running sums of its squares; this
is distributionally identical to measuring the transformed phase-oracle state.
One sampler execution is charged as one quantum query. A junta-backed f on r
variables memoizes its draw tables by A = I(B) ∩ vars(f) and x's bits on
vars(f) \\ A: at most 3^r tables, 4^r floats (see `_fourier_samples`). The CLI
`spectrum` command still computes the signed coefficients on every call.

The amplitude-amplified cube generator is simulated at the level of success
probabilities: the per-attempt success probability p is computed exactly from
the explicit function and distribution, and each amplification stage with r
oracle reflections succeeds with probability sin^2((2r+1) arcsin(sqrt(p))).
"""

from __future__ import annotations

import weakref
from functools import cache
from math import asin, ceil, sin, sqrt
from typing import Callable, Optional

import numpy as np

from .boolfn import (
    BitString, BooleanFunction, Cube, _class_expand, _class_reduce, index_mask, restricted_spectrum
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
    return _fourier_samples(oracle, cube, rng, 1)[0]


def _fourier_samples(
    oracle: MembershipOracle, cube: Cube, rng: np.random.Generator, count: int
) -> list[frozenset[int]]:
    """`count` independent Fourier samples, charged as `count` quantum queries.

    One draw table serves all `count` draws: each is the first mask whose
    running sum of squares exceeds u ~ U[0, 1). For f with a junta backing on r
    variables it is memoized under (A, x & read & ~A), read = vars(f) and
    A = I(B) ∩ read: the positions depend on A alone, bits of x off `read`
    never reach f, and moving x within A only flips signs of coefficients that
    are integers over 2^r, so every bit of the draws is the same. At most 3^r
    keys and 4^r floats: kept only while 8·4^r bytes fit in f's 2^n-byte table.
    """
    if cube.dimension() == 0:
        raise DegenerateCubeError("cannot Fourier-sample a single-point cube")
    f, memo, key = oracle.function, {}, None  # a throwaway memo unless f qualifies
    if f.junta_vars is not None and cube.n == f.n and 8 << 2 * len(f.junta_vars) <= 1 << f.n:
        read = index_mask(f.junta_vars, f.n)
        spanned = (cube.x.value ^ cube.y.value) & read
        memo = _DRAWS.get(f) or _DRAWS.setdefault(f, {})  # builds only on a miss
        key = spanned, cube.x.value & read & ~spanned
    entry = memo.get(key)
    if entry is None:
        spectrum = restricted_spectrum(f, cube)
        # coefficients are integers over 2^r, r <= 24: the sums are exact and end at 1.0
        entry = memo[key] = spectrum.positions, np.square(spectrum.coefficients).cumsum()
    positions, cum = entry
    oracle.charge_quantum(count)
    return [frozenset(v for j, v in enumerate(positions) if m >> j & 1)
            for m in cum.searchsorted(rng.random(count), "right").tolist()]


# f -> {key: (positions, cumulative squares)} of `_fourier_samples`; dies with f.
_DRAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


# dist -> f -> {(kind, S): value}, keyed by identity: an entry dies with f or D.
# `run_tester` reaches it from the oracles alone, however its caller built them.
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo(f: BooleanFunction, dist: Distribution) -> dict:
    """The memo of values that depend only on (f, D, S), filled on first use."""
    per_dist = _MEMO.get(dist) or _MEMO.setdefault(dist, weakref.WeakKeyDictionary())
    return per_dist.get(f) or per_dist.setdefault(f, {})  # builds only on a miss


def attempt_success_probability(
    f: BooleanFunction, dist: Distribution, fixed: frozenset[int] | set[int]
) -> float:
    """Exact Pr_{x~D, T ⊆ [n]\\S}[f(x) != f(x^T)] for S = `fixed`, memoized per (f, D).

    For x with a given restriction to S, the points x^T sweep uniformly over
    the subcube that agrees with x on S, so the inner probability depends only
    on μ(x), the class mean of f over that subcube: its exact count of ones
    over the class size. So p = Σ_x D(x)·|f(x) − μ(x)|, with μ expanded by
    `_class_expand` and read at D's support: under uniform D the whole table,
    times the scalar 2^-n. Each term is exactly 1 − μ or μ.
    """
    n = f.n
    if dist.n != n:
        raise ValueError(f"distribution dimension {dist.n} != {n}")
    memo, key = _memo(f, dist), ("p", frozenset(fixed))
    if key in memo:
        return memo[key]
    counts = _class_reduce(f.table.astype(np.int64), n, fixed)
    mu = _class_expand(counts / ((1 << n) // counts.size), n, fixed)[dist._index]
    np.subtract(f.table[dist._index], mu, out=mu)
    np.abs(mu, out=mu)
    mu *= dist._weights
    memo[key] = float(np.sum(mu))
    return memo[key]


def _absorbing(f: BooleanFunction, dist: Distribution, fixed: frozenset[int]) -> bool:
    """True when f is constant on the S-class of every support point of D, S = `fixed`:
    then p = 0 and every cube search fails. Under uniform D every point is a
    support point. A zero-weight point counts too, which is only conservative,
    as `Distribution.sample_indices` never draws one. One uint8 code per point
    (bit 0: f = 0, bit 1: f = 1, bit 2: a support point) is OR-folded per class
    by `_class_reduce`; a class that folds to 7 is mixed and holds a support
    point. Memoized like p.
    """
    memo, key = _memo(f, dist), ("absorbing", frozenset(fixed))
    if key in memo:
        return memo[key]
    codes = np.zeros(1 << f.n, dtype=np.uint8)
    codes[dist._index] = 4
    codes += f.table
    codes += 1
    memo[key] = not (_class_reduce(codes, f.n, fixed, np.bitwise_or) == 7).any()
    return memo[key]


def _known_absorbing(f: BooleanFunction, dist: Distribution) -> Callable[[frozenset[int]], bool]:
    """A test of S, true once `_absorbing(f, dist, S)` is memoized as true; computes nothing."""
    memo = _memo(f, dist)
    return lambda fixed: memo.get(("absorbing", fixed), False)


def first_relevant_attempt(
    f: BooleanFunction, dist: Distribution, fixed: frozenset[int], count: int,
    rng: np.random.Generator,
) -> Optional[tuple[int, Cube]]:
    """Draw `count` attempts (x ~ D, T ⊆ [n]\\S) for S = `fixed` in one batch.

    Returns the 1-based number of the first attempt with f(x) != f(x^T) and
    its cube (x, x^T), or None when no attempt hits. The batch takes the x
    draws before the T draws, which is equivalent to drawing attempt by
    attempt. Nothing is charged.

    T is floor(u·2^n) & ([n]\\S) for a float32 uniform u. Such a u is
    (w >> 8)·2^-24 for one 32-bit word w of the stream, so for n <= 24
    (`N_MAX`) the mask is w's top n bits: exactly uniform, and the same
    masks and end state as `rng.integers(0, 2**n, size=count)`, which
    reads the same words, without its per-call argument handling.
    """
    n = f.n
    free_mask = ((1 << n) - 1) & ~index_mask(fixed, n)
    xs = dist.sample_indices(rng, count)
    tmasks = (rng.random(count, dtype=np.float32) * (1 << n)).astype(np.int64) & free_mask
    hits = f.table[xs] != f.table[xs ^ tmasks]
    j = int(hits.argmax())  # the first hit, or 0 when there is none
    if not hits[j]:
        return None
    x = int(xs[j])
    return j + 1, Cube(BitString(n, x), BitString(n, x ^ int(tmasks[j])))


@cache
def amplification_schedule(eps: float) -> tuple[int, ...]:
    """Stage reflection counts r_j = ceil(2^{j/2}) whose sum is within ceil(4/sqrt(eps))."""
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    budget = ceil(4 / sqrt(eps))
    stages, used = [], 0
    for j in range(budget):  # each stage takes at least one reflection
        r = ceil(2 ** (j / 2))
        if used + r > budget:
            break
        stages.append(r)
        used += r
    return tuple(stages)


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
    p = attempt_success_probability(oracle.function, samples.distribution, fixed)
    for r in amplification_schedule(eps):
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

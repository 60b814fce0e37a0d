"""The junta tester: cube generation, one-iteration steps, and full runs.

The tester maintains a set S of certified-relevant variables and a FIFO
collection of relevant cubes whose disagreement sets are pairwise disjoint
and disjoint from S. It loops while |S| + |cubes| <= k, at most 18k times,
and rejects exactly when |S| + |cubes| > k at loop exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import ceil
from typing import Optional

import numpy as np

from .boolfn import BitString, Cube
from .oracles import MembershipOracle, QueryLedger, SampleOracle
from .quantum import _absorbing, _known_absorbing, amplification_schedule, amplified_generate_cube
from .quantum import first_relevant_attempt, fourier_sample

ITERATION_FACTOR = 18


class Variant(str, Enum):
    CLASSICAL = "classical"
    AMPLIFIED = "amplified"


class TraceAction(str, Enum):
    GENERATED_CUBE = "generated_cube"
    GENERATE_FAILED = "generate_failed"
    FOURIER_NONEMPTY = "fourier_nonempty"
    SPLIT_TOWARD_X = "split_toward_x"
    SPLIT_TOWARD_Y = "split_toward_y"
    NO_PROGRESS = "no_progress"


class Decision(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"


@dataclass(frozen=True)
class TraceRecord:
    """One loop iteration: what happened, and |S| and the queue length after it."""

    action: TraceAction
    s_size: int
    num_cubes: int

    @property
    def potential(self) -> int:
        """The potential 2|S| + |cubes| after the iteration."""
        return 2 * self.s_size + self.num_cubes


@dataclass(frozen=True)
class TesterState:
    """Immutable snapshot of (S, cubes), the corner bit ``fx`` and the trace,
    one record per iteration run.

    Every queued cube has f(x) = ``fx`` and f(y) = 1 - ``fx``: a cube is
    generated only when the queue is empty, and a split keeps the corner
    values of both halves. So one bit, read when the cube is generated, keeps
    each iteration within its two-query budget. ``fx`` is 0 when the queue is
    empty.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    s: frozenset[int] = frozenset()
    cubes: tuple[Cube, ...] = ()
    fx: int = 0
    trace: tuple[TraceRecord, ...] = ()


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    ledger: QueryLedger
    final_state: TesterState

    def to_json(self) -> dict:
        return {
            "decision": self.decision.value,
            "ledger": self.ledger.to_json(),
            "iterations": len(self.final_state.trace),
        }


def generate_cube(
    oracle: MembershipOracle,
    samples: SampleOracle,
    fixed: frozenset[int],
    eps: float,
    rng: np.random.Generator,
) -> Optional[Cube]:
    """Classical cube search: up to ceil(2/eps) attempts of (x ~ D, T ⊆ [n]\\S).

    Returns the first cube (x, x^T) with f(x) != f(x^T), charging one sample
    and two queries per attempt made. The attempt randomness is drawn in one
    batch by `first_relevant_attempt`.
    """
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    attempts = ceil(2 / eps)
    hit = first_relevant_attempt(oracle.function, samples.distribution, fixed, attempts, rng)
    made = attempts if hit is None else hit[0]
    samples.note_samples(made)
    oracle.note_classical(2 * made)
    return None if hit is None else hit[1]


def _record(
    state: TesterState, action: TraceAction, s: frozenset[int], cubes: tuple[Cube, ...], fx: int,
    times: int = 1,
) -> TesterState:
    """The state (S, cubes, fx) after `times` iterations from `state`, each traced alike.

    The one place a trace record is built. `fx` is dropped to 0 with an
    empty queue, so equal (S, cubes) give equal states.
    """
    rec = _shared_record(action, len(s), len(cubes))
    return TesterState(s, cubes, fx if cubes else 0, state.trace + (rec,) * times)


_shared_record = cache(TraceRecord)  # one frozen record per (action, |S|, |cubes|), ≤ 6·25·26


def step(
    state: TesterState,
    oracle: MembershipOracle,
    samples: SampleOracle,
    k: int,
    eps: float,
    rng: np.random.Generator,
    variant: Variant | str = Variant.CLASSICAL,
) -> TesterState:
    """Execute exactly one loop iteration of the tester. A split flips, in both
    corners, the j-th smallest variable of I(B) for each set bit j of pick ~ U[0, 2^|I(B)|)."""
    variant = variant if isinstance(variant, Variant) else Variant(variant)
    if len(state.s) + len(state.cubes) > k:
        raise ValueError("step called past the loop exit condition")
    s, cubes, fx = state.s, state.cubes, state.fx

    if not cubes:
        if variant is Variant.AMPLIFIED:
            cube = amplified_generate_cube(oracle, samples, s, eps, rng)
        else:
            cube = generate_cube(oracle, samples, s, eps, rng)
        if cube is None:
            return _record(state, TraceAction.GENERATE_FAILED, s, (), 0)
        return _record(state, TraceAction.GENERATED_CUBE, s, (cube,), oracle.query(cube.x))

    cube, rest = cubes[0], cubes[1:]
    subset = fourier_sample(oracle, cube, rng)
    if subset:
        return _record(state, TraceAction.FOURIER_NONEMPTY, s | subset, rest, fx)

    diff, tmask = cube.x.value ^ cube.y.value, 0
    pick = int(rng.integers(0, 1 << diff.bit_count()))
    while pick:  # bit j of pick selects the j-th lowest set bit of diff
        low = diff & -diff
        tmask, diff, pick = tmask | low * (pick & 1), diff ^ low, pick >> 1
    z = BitString(cube.n, cube.x.value ^ tmask)
    t = BitString(cube.n, cube.y.value ^ tmask)
    fz = oracle.query(z)
    ft = oracle.query(t)
    if fz != ft:
        return _record(state, TraceAction.NO_PROGRESS, s, cubes, fx)
    if fz != fx:  # f(z) = f(t) = f(y): split toward corner x
        halves = (Cube(cube.x, z), Cube(cube.x, t))
        return _record(state, TraceAction.SPLIT_TOWARD_X, s, rest + halves, fx)
    halves = (Cube(z, cube.y), Cube(t, cube.y))  # f(z) = f(t) = f(x)
    return _record(state, TraceAction.SPLIT_TOWARD_Y, s, rest + halves, fx)


def run_tester(
    oracle: MembershipOracle,
    samples: SampleOracle,
    k: int,
    eps: float,
    rng: np.random.Generator,
    variant: Variant | str = Variant.CLASSICAL,
) -> Verdict:
    """Run the full tester from the empty state and return its verdict.

    Accepts iff |S| + |cubes| <= k after at most ITERATION_FACTOR*k loop
    iterations. For a k-junta the verdict is accept with certainty; for a
    function eps-far from every k-junta under D it is reject with probability
    at least 1/2. With an empty queue and an S from which no cube search can
    succeed, known after a failed search from S in this or an earlier run on
    the same (f, D), the remaining iterations are charged and traced at once
    and draw nothing from `rng`. A warm memo thus skips draws, so verdicts
    are reproducible from the seed only when each run gets its own stream.
    Both oracles must share the ledger that the verdict reports.
    """
    if samples.ledger is not oracle.ledger:
        raise ValueError("the membership and sample oracles must share one ledger")
    f, dist, cap = oracle.function, samples.distribution, ITERATION_FACTOR * k
    if not 1 <= k < f.n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={f.n}")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    variant, state, known_absorbing = Variant(variant), TesterState(), _known_absorbing(f, dist)
    while len(state.trace) < cap and len(state.s) + len(state.cubes) <= k:
        s, trace = state.s, state.trace
        # S is absorbing by `_absorbing`'s memo entry, or computed after a failed
        # search only: testing every S met with an empty queue costs more than it saves
        if not state.cubes and (known_absorbing(s) or trace and (
                trace[-1].action is TraceAction.GENERATE_FAILED and _absorbing(f, dist, s))):
            rest = cap - len(trace)  # failed cube searches, p = 0 from here
            if variant is Variant.AMPLIFIED:
                oracle.charge_quantum(rest * sum(amplification_schedule(eps)))
            else:
                samples.note_samples(rest * ceil(2 / eps))
                oracle.note_classical(2 * rest * ceil(2 / eps))
            state = _record(state, TraceAction.GENERATE_FAILED, s, (), 0, rest)
            break
        state = step(state, oracle, samples, k, eps, rng, variant)
    decision = (
        Decision.REJECT if len(state.s) + len(state.cubes) > k else Decision.ACCEPT
    )
    return Verdict(decision=decision, ledger=oracle.ledger, final_state=state)


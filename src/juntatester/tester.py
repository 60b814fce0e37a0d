"""The junta tester: cube generation, one-iteration steps, and full runs.

The tester maintains a set S of certified-relevant variables and a FIFO
collection of relevant cubes whose disagreement sets are pairwise disjoint
and disjoint from S. It loops while |S| + |cubes| <= k, at most 18k times,
and rejects exactly when |S| + |cubes| > k at loop exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import ceil
from typing import Optional

import numpy as np

from .boolfn import BitString, BooleanFunction, Cube, index_mask
from .oracles import MembershipOracle, QueryLedger, SampleOracle
from .quantum import _absorbing, amplification_schedule, amplified_generate_cube
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
    """One loop iteration: what happened and the potential 2|S|+|cubes| after it."""

    iteration: int
    action: TraceAction
    potential: int
    s_size: int
    num_cubes: int

    def to_json(self) -> dict:
        return {
            "iteration": self.iteration,
            "action": self.action.value,
            "potential": self.potential,
            "s_size": self.s_size,
            "num_cubes": self.num_cubes,
        }


@dataclass(frozen=True)
class TesterState:
    """Immutable snapshot of (S, cubes), the corner bit ``fx`` and the trace.

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
    iteration: int = 0
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
            "iterations": self.final_state.iteration,
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
    state: TesterState, action: TraceAction, s: frozenset[int], cubes: tuple[Cube, ...], fx: int
) -> TesterState:
    """The next state (S, cubes, fx) after `state`, its iteration counted and traced.

    The one place a next state or a trace record is built. `fx` is dropped
    to 0 with an empty queue, so equal (S, cubes) give equal states.
    """
    iteration = state.iteration + 1
    rec = TraceRecord(iteration, action, 2 * len(s) + len(cubes), len(s), len(cubes))
    return TesterState(s, cubes, fx if cubes else 0, iteration, state.trace + (rec,))


def step(
    state: TesterState,
    oracle: MembershipOracle,
    samples: SampleOracle,
    k: int,
    eps: float,
    rng: np.random.Generator,
    variant: Variant | str = Variant.CLASSICAL,
) -> TesterState:
    """Execute exactly one loop iteration of the tester."""
    variant = Variant(variant)
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

    positions = sorted(cube.disagreement)
    pick = int(rng.integers(0, 1 << len(positions)))
    tmask = index_mask((i for j, i in enumerate(positions) if pick >> j & 1), cube.n)
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
    at least 1/2. Once a cube search fails from an S from which none can
    succeed, the remaining iterations are charged and traced at once, and
    `rng` is left where that search left it.
    """
    n = oracle.function.n
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    variant = Variant(variant)
    cap = ITERATION_FACTOR * k
    state = TesterState()
    while state.iteration < cap and len(state.s) + len(state.cubes) <= k:
        state = step(state, oracle, samples, k, eps, rng, variant)
        rest = cap - state.iteration
        if (rest and state.trace[-1].action is TraceAction.GENERATE_FAILED
                and _absorbing(oracle.function, samples.distribution, state.s)):
            # each remaining iteration is a failed cube search: p = 0 here
            if variant is Variant.AMPLIFIED:
                oracle.charge_quantum(rest * sum(amplification_schedule(eps)))
            else:
                samples.note_samples(rest * ceil(2 / eps))
                oracle.note_classical(2 * rest * ceil(2 / eps))
            for _ in range(rest):
                state = _record(state, TraceAction.GENERATE_FAILED, state.s, (), 0)
    decision = (
        Decision.REJECT if len(state.s) + len(state.cubes) > k else Decision.ACCEPT
    )
    return Verdict(decision=decision, ledger=oracle.ledger, final_state=state)


def check_invariants(state: TesterState, f: BooleanFunction) -> bool:
    """White-box check of the state invariants (test-only; bypasses the ledger).

    Verifies that all of S is relevant, every stored cube is nondegenerate
    with f(x) = fx and f(y) = 1 - fx, fx is 0 with an empty queue, and S and
    the cube disagreement sets are pairwise disjoint.
    """
    relevant = f.relevant_variables()
    if not state.s <= relevant:
        return False
    if state.fx and not state.cubes:
        return False
    seen = set(state.s)
    for cube in state.cubes:
        dis = cube.disagreement
        if not dis:
            return False
        if seen & dis:
            return False
        seen |= dis
        if (f.eval(cube.x), f.eval(cube.y)) != (state.fx, 1 - state.fx):
            return False
    return True

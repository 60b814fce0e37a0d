"""The junta tester: cube generation, one-iteration steps, and full runs.

The tester maintains a set S of certified-relevant variables and a FIFO
collection of relevant cubes whose disagreement sets are pairwise disjoint
and disjoint from S. It loops while |S| + |cubes| <= k, at most 18k times,
and rejects exactly when |S| + |cubes| > k at loop exit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from math import ceil
from typing import Optional

import numpy as np

from .boolfn import BitString, BooleanFunction, Cube
from .oracles import MembershipOracle, QueryLedger, SampleOracle
from .quantum import amplified_generate_cube, first_relevant_attempt, fourier_sample

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
    """Immutable snapshot of (S, cubes) plus the corner values and trace.

    ``corner_values[i]`` caches (f(x), f(y)) for ``cubes[i]`` so iterations
    stay within their two-query budget.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    s: frozenset[int] = frozenset()
    cubes: tuple[Cube, ...] = ()
    corner_values: tuple[tuple[int, int], ...] = ()
    iteration: int = 0
    trace: tuple[TraceRecord, ...] = ()

    @property
    def potential(self) -> int:
        return 2 * len(self.s) + len(self.cubes)

    def trace_jsonl(self) -> str:
        return "\n".join(json.dumps(rec.to_json()) for rec in self.trace)


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


def _record(state: TesterState, action: TraceAction, **changes) -> TesterState:
    new = replace(state, iteration=state.iteration + 1, **changes)
    rec = TraceRecord(
        iteration=new.iteration,
        action=action,
        potential=new.potential,
        s_size=len(new.s),
        num_cubes=len(new.cubes),
    )
    return replace(new, trace=new.trace + (rec,))


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

    if not state.cubes:
        if variant is Variant.AMPLIFIED:
            cube = amplified_generate_cube(oracle, samples, state.s, eps, rng)
        else:
            cube = generate_cube(oracle, samples, state.s, eps, rng)
        if cube is None:
            return _record(state, TraceAction.GENERATE_FAILED)
        fx = oracle.query(cube.x)
        return _record(
            state,
            TraceAction.GENERATED_CUBE,
            cubes=(cube,),
            corner_values=((fx, 1 - fx),),
        )

    cube = state.cubes[0]
    fx, fy = state.corner_values[0]
    rest_cubes = state.cubes[1:]
    rest_values = state.corner_values[1:]

    subset = fourier_sample(oracle, cube, rng)
    if subset:
        return _record(
            state,
            TraceAction.FOURIER_NONEMPTY,
            s=state.s | subset,
            cubes=rest_cubes,
            corner_values=rest_values,
        )

    positions = sorted(cube.disagreement)
    pick = int(rng.integers(0, 1 << len(positions)))
    tmask = 0
    for j, i in enumerate(positions):
        if pick >> j & 1:
            tmask |= 1 << (i - 1)
    z = BitString(cube.n, cube.x.value ^ tmask)
    t = BitString(cube.n, cube.y.value ^ tmask)
    fz = oracle.query(z)
    ft = oracle.query(t)

    if fz == ft:
        if fz == fy:  # split toward corner x
            new_cubes = (Cube(cube.x, z), Cube(cube.x, t))
            new_values = ((fx, fz), (fx, ft))
            action = TraceAction.SPLIT_TOWARD_X
        else:  # fz == ft == fx: split toward corner y
            new_cubes = (Cube(z, cube.y), Cube(t, cube.y))
            new_values = ((fz, fy), (ft, fy))
            action = TraceAction.SPLIT_TOWARD_Y
        return _record(
            state,
            action,
            cubes=rest_cubes + new_cubes,
            corner_values=rest_values + new_values,
        )
    return _record(state, TraceAction.NO_PROGRESS)


def run_tester(
    oracle: MembershipOracle,
    samples: SampleOracle,
    k: int,
    eps: float,
    rng: np.random.Generator,
    variant: Variant | str = Variant.CLASSICAL,
    iteration_factor: int = ITERATION_FACTOR,
) -> Verdict:
    """Run the full tester from the empty state and return its verdict.

    Accepts iff |S| + |cubes| <= k after at most `iteration_factor`*k loop
    iterations. For a k-junta the verdict is accept with certainty; for a
    function eps-far from every k-junta under D it is reject with probability
    at least 1/2.
    """
    n = oracle.function.n
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    variant = Variant(variant)
    state = TesterState()
    max_iterations = iteration_factor * k
    while state.iteration < max_iterations and len(state.s) + len(state.cubes) <= k:
        state = step(state, oracle, samples, k, eps, rng, variant)
    decision = (
        Decision.REJECT if len(state.s) + len(state.cubes) > k else Decision.ACCEPT
    )
    return Verdict(decision=decision, ledger=oracle.ledger, final_state=state)


def check_invariants(state: TesterState, f: BooleanFunction) -> bool:
    """White-box check of the state invariants (test-only; bypasses the ledger).

    Verifies that all of S is relevant, every stored cube is relevant and
    nondegenerate, and S and the cube disagreement sets are pairwise disjoint.
    """
    relevant = f.relevant_variables()
    if not state.s <= relevant:
        return False
    seen = set(state.s)
    for cube in state.cubes:
        dis = cube.disagreement
        if not dis:
            return False
        if seen & dis:
            return False
        seen |= dis
        if f.eval(cube.x) == f.eval(cube.y):
            return False
    return True

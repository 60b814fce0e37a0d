"""White-box reference checks that the tests run against the package.

They read f's table directly and bypass the ledger, so they are no part of
the tester: the algorithm sees f only through its oracles.
"""

import numpy as np

from juntatester.boolfn import BitString, Cube, index_mask


def relevant_variables(f) -> frozenset[int]:
    """Exact set of variables i with f(x) != f(x^i) for some x."""
    view = f.table.reshape((2,) * f.n)  # the halves x_i = 0, 1 of axis n - i
    return frozenset(i for i in range(1, f.n + 1) if np.diff(view, axis=f.n - i).any())


def check_invariants(state, f) -> bool:
    """The invariants of the tester's state (S, cubes, fx).

    Verifies that all of S is relevant, every stored cube is nondegenerate
    with f(x) = fx and f(y) = 1 - fx, fx is 0 with an empty queue, and S and
    the cube disagreement sets are pairwise disjoint.
    """
    if not state.s <= relevant_variables(f):
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
        if (int(f.table[cube.x.value]), int(f.table[cube.y.value])) != (state.fx, 1 - state.fx):
            return False
    return True


def reference_split(f, cube, pick):
    """The two points a split of `cube` queries for `pick`, and the cubes it
    queues, built from sorted(I(B)) and `index_mask`: bit j of pick flips the
    j-th smallest variable of I(B) in both corners. A split that makes no
    progress queues `cube` again."""
    positions = sorted(cube.disagreement)
    tmask = index_mask((i for j, i in enumerate(positions) if pick >> j & 1), cube.n)
    z = BitString(cube.n, cube.x.value ^ tmask)
    t = BitString(cube.n, cube.y.value ^ tmask)
    fz, ft, fx = (int(f.table[p.value]) for p in (z, t, cube.x))
    if fz != ft:
        return (z, t), (cube,)
    if fz != fx:
        return (z, t), (Cube(cube.x, z), Cube(cube.x, t))
    return (z, t), (Cube(z, cube.y), Cube(t, cube.y))


def reference_first_relevant_attempt(f, dist, fixed, count, rng):
    """`quantum.first_relevant_attempt` with T drawn by `rng.integers`: the
    first hit as (1-based attempt, cube), or None."""
    n = f.n
    free_mask = ((1 << n) - 1) & ~index_mask(fixed, n)
    xs = dist.sample_indices(rng, count)
    tmasks = rng.integers(0, 1 << n, size=count, dtype=np.int64) & free_mask
    for j, (x, t) in enumerate(zip(xs.tolist(), tmasks.tolist())):
        if f.table[x] != f.table[x ^ t]:
            return j + 1, Cube(BitString(n, x), BitString(n, x ^ t))
    return None

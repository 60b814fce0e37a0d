import copy
import itertools
from math import ceil, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juntatester import tester
from juntatester.boolfn import BitString, BooleanFunction, Cube
from juntatester.distribution import Distribution, distance_to_k_junta
from juntatester.harness import gen_random_junta, gen_sparse_distribution
from juntatester.oracles import MembershipOracle, QueryLedger, SampleOracle
from juntatester.quantum import amplification_schedule
from juntatester.tester import (
    Decision,
    TesterState,
    TraceAction,
    Variant,
    generate_cube,
    run_tester,
    step,
)

from reference import check_invariants, reference_split


def constant(n, value):
    return BooleanFunction(n, np.full(1 << n, value))


def dictator(n, i):
    return BooleanFunction.from_junta(n, [i], [0, 1])


def make_oracles(f, dist):
    ledger = QueryLedger()
    return MembershipOracle(f, ledger), SampleOracle(dist, ledger), ledger


def state_with_cube(f, cube):
    return TesterState(cubes=(cube,), fx=int(f.table[cube.x.value]))


def potential(state):
    return 2 * len(state.s) + len(state.cubes)


class TestGenerateCube:
    def test_constant_fails_after_all_attempts(self):
        mo, so, ledger = make_oracles(constant(4, 0), Distribution.uniform(4))
        assert generate_cube(mo, so, frozenset(), 0.3, np.random.default_rng(0)) is None
        attempts = ceil(2 / 0.3)
        assert ledger.classical_samples == attempts
        assert ledger.classical_queries == 2 * attempts

    def test_dictator_with_variable_fixed_never_succeeds(self):
        mo, so, _ = make_oracles(dictator(4, 1), Distribution.uniform(4))
        rng = np.random.default_rng(1)
        assert all(
            generate_cube(mo, so, frozenset({1}), 0.5, rng) is None for _ in range(200)
        )

    def test_dictator_success_rate(self):
        # per-attempt success is exactly 1/2 (1 in T); 4 attempts -> 15/16
        mo, so, _ = make_oracles(dictator(4, 1), Distribution.uniform(4))
        rng = np.random.default_rng(2)
        runs = 10000
        hits = sum(
            generate_cube(mo, so, frozenset(), 0.5, rng) is not None for _ in range(runs)
        )
        assert abs(hits / runs - 15 / 16) < 0.01

    def test_returned_cube_properties(self):
        rng = np.random.default_rng(3)
        f = BooleanFunction.parity(5, [2, 3, 5])
        mo, so, _ = make_oracles(f, Distribution.uniform(5))
        fixed = frozenset({1, 2})
        for _ in range(100):
            cube = generate_cube(mo, so, fixed, 0.25, rng)
            if cube is None:
                continue
            assert int(f.table[cube.x.value]) != int(f.table[cube.y.value])
            assert cube.disagreement
            assert not cube.disagreement & fixed

    def test_charges_stop_at_first_success(self):
        f = BooleanFunction.parity(3, [1, 2, 3])
        mo, so, ledger = make_oracles(f, Distribution.uniform(3))
        rng = np.random.default_rng(4)
        cube = generate_cube(mo, so, frozenset(), 0.25, rng)
        assert cube is not None
        assert ledger.classical_queries == 2 * ledger.classical_samples
        assert ledger.classical_samples <= ceil(2 / 0.25)

    def test_invalid_eps(self):
        mo, so, _ = make_oracles(constant(2, 0), Distribution.uniform(2))
        with pytest.raises(ValueError):
            generate_cube(mo, so, frozenset(), 0.0, np.random.default_rng(0))


class TestStep:
    def test_constant_generate_failed(self):
        mo, so, _ = make_oracles(constant(4, 0), Distribution.uniform(4))
        new = step(TesterState(), mo, so, 2, 0.5, np.random.default_rng(0))
        assert len(new.trace) == 1
        assert new.trace[-1].action is TraceAction.GENERATE_FAILED
        assert new.s == frozenset() and new.cubes == ()

    def test_parity_cube_fourier_nonempty(self):
        f = BooleanFunction.parity(4, [1, 2, 3])
        cube = Cube(BitString.from_str("0000"), BitString.from_str("1110"))
        state = state_with_cube(f, cube)
        before = potential(state)
        new = step(state, *make_oracles(f, Distribution.uniform(4))[:2], 3, 0.5,
                   np.random.default_rng(1))
        assert new.trace[-1].action is TraceAction.FOURIER_NONEMPTY
        assert new.s == {1, 2, 3} and new.cubes == ()
        assert new.trace[-1].potential - before == 2 * 3 - 1

    def test_or_like_restriction_action_frequencies(self):
        # f on the full 2-cube: value 1 only at corner x=00 (f(y)=0 elsewhere).
        # Exact analysis: Pr[T nonempty] = 3/4; given T empty, the uniform split
        # draw lands in step 2(e) with probability 1/2, else no progress.
        f = BooleanFunction(2, np.array([1, 0, 0, 0]))
        cube = Cube(BitString.from_str("00"), BitString.from_str("11"))
        rng = np.random.default_rng(2)
        counts = {action: 0 for action in TraceAction}
        runs = 10000
        for _ in range(runs):
            mo, so, _ = make_oracles(f, Distribution.uniform(2))
            new = step(state_with_cube(f, cube), mo, so, 2, 0.5, rng)
            counts[new.trace[-1].action] += 1
        p_nonempty = counts[TraceAction.FOURIER_NONEMPTY] / runs
        p_split = counts[TraceAction.SPLIT_TOWARD_X] / runs
        p_stall = counts[TraceAction.NO_PROGRESS] / runs
        sigma = lambda p: 3 * sqrt(p * (1 - p) / runs)
        assert abs(p_nonempty - 0.75) < sigma(0.75)
        assert abs(p_split - 0.125) < sigma(0.125)
        assert abs(p_stall - 0.125) < sigma(0.125)
        assert counts[TraceAction.SPLIT_TOWARD_Y] == 0

    def test_split_cubes_are_disjoint_and_relevant(self):
        rng = np.random.default_rng(5)
        f = BooleanFunction(3, np.array([1, 0, 0, 0, 0, 0, 0, 0]))
        cube = Cube(BitString.from_str("000"), BitString.from_str("111"))
        seen_split = False
        for _ in range(200):
            mo, so, _ = make_oracles(f, Distribution.uniform(3))
            new = step(state_with_cube(f, cube), mo, so, 2, 0.5, rng)
            assert check_invariants(new, f)
            if new.trace[-1].action in (TraceAction.SPLIT_TOWARD_X, TraceAction.SPLIT_TOWARD_Y):
                seen_split = True
                assert len(new.cubes) == 2
        assert seen_split

    def test_potential_never_decreases(self):
        # possible per-iteration changes: 0 (failed generate / no progress),
        # +1 (new cube or split), 2|T|-1 >= 1 (fourier outcome of size |T|)
        rng = np.random.default_rng(7)
        f = BooleanFunction.parity(5, [1, 2, 3, 4])
        mo, so, _ = make_oracles(f, Distribution.uniform(5))
        state = TesterState()
        for _ in range(30):
            if len(state.s) + len(state.cubes) > 4:
                break
            before = potential(state)
            state = step(state, mo, so, 4, 0.25, rng)
            assert state.trace[-1].potential == potential(state)
            delta = potential(state) - before
            assert delta >= 0
            assert delta == 0 or delta == 1 or delta % 2 == 1

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_split_matches_the_reference(self, data, n, seed):
        """For any cube of n <= 12 and any pick, a split queries the points and
        queues the cubes of `reference_split`, and draws the pick from
        [0, 2^|I(B)|)."""
        x = data.draw(st.integers(0, (1 << n) - 1))
        y = data.draw(st.integers(0, (1 << n) - 1).filter(lambda v: v != x))
        cube = Cube(BitString(n, x), BitString(n, y))
        pick = data.draw(st.integers(0, (1 << cube.dimension()) - 1))
        table = np.random.default_rng(seed).integers(0, 2, size=1 << n)
        table[y] = 1 - table[x]
        f = BooleanFunction(n, table)
        mo, so, _ = make_oracles(f, Distribution.uniform(n))
        queried, query = [], mo.query
        mo.query = lambda p: queried.append(p) or query(p)
        highs = []

        class Pick:  # the split's one draw
            def integers(self, low, high):
                highs.append((low, high))
                return pick

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tester, "fourier_sample", lambda oracle, cube, rng: frozenset())
            new = step(state_with_cube(f, cube), mo, so, n, 0.5, Pick())
        points, cubes = reference_split(f, cube, pick)
        assert highs == [(0, 1 << cube.dimension())]
        assert tuple(queried) == points
        assert new.cubes == cubes

    def test_rejects_past_exit_condition(self):
        f = BooleanFunction.parity(3, [1, 2, 3])
        mo, so, _ = make_oracles(f, Distribution.uniform(3))
        state = TesterState(s=frozenset({1, 2}))
        with pytest.raises(ValueError):
            step(state, mo, so, 1, 0.5, np.random.default_rng(0))


class TestRunTester:
    def test_junta_always_accepts(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, min(n - 1, 4) + 1))
            f = gen_random_junta(n, k, rng)
            dist = gen_sparse_distribution(n, 16, rng)
            mo, so, _ = make_oracles(f, dist)
            verdict = run_tester(mo, so, k, 0.2, rng)
            assert verdict.decision is Decision.ACCEPT

    def test_far_parity_rejects_at_least_half(self):
        f = BooleanFunction.parity(8, [1, 2, 3])
        dist = Distribution.uniform(8)
        cert = distance_to_k_junta(f, dist, 2)
        assert cert.distance == pytest.approx(0.5)
        rng = np.random.default_rng(13)
        runs = 2000
        rejects = 0
        for _ in range(runs):
            mo, so, _ = make_oracles(f, dist)
            if run_tester(mo, so, 2, 0.25, rng).decision is Decision.REJECT:
                rejects += 1
        assert rejects / runs >= 0.5 - 3 * sqrt(0.25 / runs)

    def test_budget_invariants(self):
        rng = np.random.default_rng(17)
        k, eps = 3, 0.25
        f = BooleanFunction.parity(6, [1, 2, 3, 4])
        dist = Distribution.uniform(6)
        for _ in range(50):
            mo, so, ledger = make_oracles(f, dist)
            verdict = run_tester(mo, so, k, eps, rng)
            assert ledger.quantum_queries <= 18 * k
            assert ledger.classical_samples <= 18 * k * ceil(2 / eps)
            assert ledger.classical_queries <= 18 * k * (2 * ceil(2 / eps) + 2)
            assert len(verdict.final_state.trace) <= 18 * k

    def test_invariants_maintained_every_iteration(self):
        rng = np.random.default_rng(19)
        fixtures = [
            (gen_random_junta(6, 2, rng), gen_sparse_distribution(6, 12, rng), 2),
            (BooleanFunction.parity(6, [1, 2, 3]), Distribution.uniform(6), 2),
            (
                BooleanFunction(6, rng.integers(0, 2, size=64, dtype=np.int64)),
                Distribution.point_mass(BitString(6, 17)),
                2,
            ),
        ]
        for f, dist, k in fixtures:
            for _ in range(10):
                mo, so, _ = make_oracles(f, dist)
                state = TesterState()
                while len(state.trace) < 18 * k and len(state.s) + len(state.cubes) <= k:
                    state = step(state, mo, so, k, 0.25, rng)
                    assert check_invariants(state, f)

    def test_reject_iff_overflow(self):
        rng = np.random.default_rng(23)
        f = BooleanFunction.parity(6, [1, 2, 3, 4])
        dist = Distribution.uniform(6)
        for _ in range(30):
            mo, so, _ = make_oracles(f, dist)
            verdict = run_tester(mo, so, 3, 0.25, rng)
            overflow = (
                len(verdict.final_state.s) + len(verdict.final_state.cubes) > 3
            )
            assert (verdict.decision is Decision.REJECT) == overflow

    def test_parameter_validation(self):
        f = constant(4, 0)
        mo, so, _ = make_oracles(f, Distribution.uniform(4))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_tester(mo, so, 0, 0.5, rng)
        with pytest.raises(ValueError):
            run_tester(mo, so, 4, 0.5, rng)
        with pytest.raises(ValueError):
            run_tester(mo, so, 2, 0.0, rng)

    def test_oracles_must_share_one_ledger(self):
        # the verdict reports the oracle's ledger, and cube searches charge
        # their samples to the sample oracle's
        f = BooleanFunction.parity(4, [1, 2])
        mo, so = MembershipOracle(f), SampleOracle(Distribution.uniform(4))
        with pytest.raises(ValueError, match="share one ledger"):
            run_tester(mo, so, 1, 0.5, np.random.default_rng(0))
        assert mo.ledger == so.ledger == QueryLedger()

    def test_amplified_variant_also_sound_and_complete(self):
        rng = np.random.default_rng(31)
        junta = gen_random_junta(6, 2, rng)
        dist = Distribution.uniform(6)
        for _ in range(20):
            mo, so, _ = make_oracles(junta, dist)
            assert run_tester(mo, so, 2, 0.25, rng, "amplified").decision is Decision.ACCEPT
        far = BooleanFunction.parity(6, [1, 2, 3])
        rejects = 0
        runs = 400
        for _ in range(runs):
            mo, so, _ = make_oracles(far, dist)
            if run_tester(mo, so, 2, 0.25, rng, "amplified").decision is Decision.REJECT:
                rejects += 1
        assert rejects / runs >= 0.5 - 3 * sqrt(0.25 / runs)


@st.composite
def small_fixtures(draw):
    """A random (f, D, k) on n <= 6 with integer weights, so no attempt is vanishingly rare."""
    n = draw(st.integers(2, 6))
    table = draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    support = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n,
                            unique=True))
    weights = draw(st.lists(st.integers(0, 5), min_size=len(support), max_size=len(support))
                   .filter(any))
    k = draw(st.integers(1, n - 1))
    return BooleanFunction(n, np.array(table)), Distribution(n, support, weights), k


@settings(max_examples=60, deadline=None)
@given(small_fixtures(), st.sampled_from(list(Variant)), st.sampled_from([0.1, 0.25, 1.0]),
       st.integers(0, 2**32 - 1))
def test_step_walk_keeps_invariants(fixture, variant, eps, seed):
    f, dist, k = fixture
    mo, so, _ = make_oracles(f, dist)
    rng = np.random.default_rng(seed)
    state = TesterState()
    while len(state.trace) < 18 * k and len(state.s) + len(state.cubes) <= k:
        state = step(state, mo, so, k, eps, rng, variant)
        assert check_invariants(state, f)


def reference_run(oracle, samples, k, eps, rng, variant):
    """The tester's loop with no fast-forward: one `step` per iteration."""
    state = TesterState()
    while len(state.trace) < 18 * k and len(state.s) + len(state.cubes) <= k:
        state = step(state, oracle, samples, k, eps, rng, variant)
    return state


@st.composite
def fast_forward_fixtures(draw):
    """(f, D, k) on n <= 7: a junta, parity, random or planted f; a uniform,
    sparse or point-mass D. Sparse weights may be 0, the last one included."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["junta", "parity", "random", "planted"]))
    if kind == "junta":
        f = gen_random_junta(n, draw(st.integers(1, n)), rng)
    elif kind == "parity":
        f = BooleanFunction.parity(n, draw(st.sets(st.integers(1, n), min_size=1)))
    elif kind == "random":
        f = BooleanFunction(n, rng.integers(0, 2, size=1 << n))
    else:  # a parity on the subcube where variables 1..n//2 are 0, and 0 off it
        points = np.arange(1 << n)
        on_cube = (points & ((1 << (n // 2)) - 1)) == 0
        parity = np.array([v.bit_count() & 1 for v in points])
        f = BooleanFunction(n, np.where(on_cube, parity, 0))
    shape = draw(st.sampled_from(["uniform", "sparse", "point_mass"]))
    if shape == "uniform":
        dist = Distribution.uniform(n)
    elif shape == "point_mass":
        dist = Distribution.point_mass(BitString(n, int(rng.integers(0, 1 << n))))
    else:
        support = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12,
                                unique=True))
        weights = draw(st.lists(st.integers(0, 3), min_size=len(support),
                                max_size=len(support)).filter(any))
        if any(weights[:-1]) and draw(st.booleans()):
            weights[-1] = 0
        dist = Distribution(n, support, weights)
    return f, dist, k


@settings(max_examples=150, deadline=None)
@given(fast_forward_fixtures(), st.sampled_from(list(Variant)), st.sampled_from([0.1, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
def test_fast_forward_matches_the_step_loop(fixture, variant, eps, seed):
    """`run_tester` gives the decision, ledger, final state and trace of the
    plain loop of `step` calls from the same seed."""
    f, dist, k = fixture
    mo, so, ledger = make_oracles(f, dist)
    verdict = run_tester(mo, so, k, eps, np.random.default_rng(seed), variant)
    ref_mo, ref_so, ref_ledger = make_oracles(f, dist)
    ref = reference_run(ref_mo, ref_so, k, eps, np.random.default_rng(seed), variant)
    decision = Decision.REJECT if len(ref.s) + len(ref.cubes) > k else Decision.ACCEPT
    assert verdict.decision is decision
    assert ledger == ref_ledger
    final = verdict.final_state
    assert (final.s, final.cubes, final.fx, len(final.trace)) == (
        ref.s, ref.cubes, ref.fx, len(ref.trace)
    )
    assert final.trace == ref.trace


def test_fast_forward_charges_every_iteration():
    """A constant function is absorbing from the start: the first generate
    fails, and the other 18k - 1 are charged and traced in full. A second run
    on the same (f, D) finds the empty S in the memo: it draws nothing from
    `rng`, and all 18k are charged and traced."""
    k, eps = 3, 0.25
    for (variant, per_iteration), warm in itertools.product((
        (Variant.CLASSICAL, {"classical_samples": 8, "classical_queries": 16}),
        (Variant.AMPLIFIED, {"quantum_queries": sum(amplification_schedule(eps))}),
    ), (False, True)):
        if not warm:
            f, dist = constant(5, 1), Distribution.uniform(5)
        mo, so, ledger = make_oracles(f, dist)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        verdict = run_tester(mo, so, k, eps, rng, variant)
        assert (rng.bit_generator.state == before) is warm
        assert verdict.decision is Decision.ACCEPT
        assert len(verdict.final_state.trace) == 18 * k
        assert [r.action for r in verdict.final_state.trace] == (
            [TraceAction.GENERATE_FAILED] * 18 * k
        )
        for channel in ("classical_samples", "classical_queries", "quantum_queries"):
            assert getattr(ledger, channel) == 18 * k * per_iteration.get(channel, 0)


@settings(max_examples=150, deadline=None)
@given(fast_forward_fixtures(), st.sampled_from(list(Variant)), st.sampled_from([0.1, 0.3, 1.0]),
       st.integers(0, 2**32 - 1))
def test_a_warm_memo_changes_no_output(fixture, variant, eps, seed):
    """A second run on the same (f, D), whose memo may already know that the
    last S is absorbing and skip its cube search, gives the decision, ledger,
    final state and trace of a cold run on fresh copies of f and D."""
    f, dist, k = fixture
    cold_f, cold_dist = copy.deepcopy(f), copy.deepcopy(dist)
    run_tester(*make_oracles(f, dist)[:2], k, eps, np.random.default_rng(seed), variant)
    mo, so, ledger = make_oracles(f, dist)
    warm = run_tester(mo, so, k, eps, np.random.default_rng(seed), variant)
    cold_mo, cold_so, cold_ledger = make_oracles(cold_f, cold_dist)
    cold = run_tester(cold_mo, cold_so, k, eps, np.random.default_rng(seed), variant)
    assert warm.decision is cold.decision
    assert ledger == cold_ledger
    assert warm.final_state == cold.final_state
    assert warm.final_state.trace == cold.final_state.trace


class TestCheckInvariants:
    def test_empty_state(self):
        assert check_invariants(TesterState(), constant(3, 0))

    def test_irrelevant_variable_in_s(self):
        f = dictator(4, 2)
        assert not check_invariants(TesterState(s=frozenset({3})), f)

    def test_irrelevant_cube(self):
        f = constant(3, 0)
        cube = Cube(BitString.from_str("000"), BitString.from_str("100"))
        assert not check_invariants(state_with_cube(f, cube), f)

    def test_overlap_between_s_and_cube(self):
        f = BooleanFunction.parity(4, [1, 2])
        cube = Cube(BitString.from_str("0000"), BitString.from_str("1000"))
        state = TesterState(s=frozenset({1}), cubes=(cube,), fx=0)
        assert not check_invariants(state, f)

    def test_degenerate_cube_fails(self):
        f = BooleanFunction.parity(3, [1])
        x = BitString.from_str("000")
        state = TesterState(cubes=(Cube(x, x),), fx=0)
        assert not check_invariants(state, f)

    def test_corner_bit_must_match_every_cube(self):
        f = BooleanFunction.parity(3, [1, 2])
        first = Cube(BitString.from_str("000"), BitString.from_str("100"))
        second = Cube(BitString.from_str("000"), BitString.from_str("010"))
        flipped = Cube(second.y, second.x)  # relevant, but f(x) = 1
        assert check_invariants(TesterState(cubes=(first, second), fx=0), f)
        assert not check_invariants(TesterState(cubes=(first, second), fx=1), f)
        assert not check_invariants(TesterState(cubes=(first, flipped), fx=0), f)

    def test_corner_bit_is_zero_with_an_empty_queue(self):
        assert not check_invariants(TesterState(fx=1), constant(3, 0))

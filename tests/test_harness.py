import hashlib

import numpy as np
import pytest

from juntatester import harness
from juntatester.boolfn import BooleanFunction
from juntatester.distribution import WORK_CAP, WorkCapExceededError, distance_to_k_junta
from juntatester.harness import (
    ExperimentConfig,
    FixtureError,
    build_fixture,
    derive_rng,
    gen_far_fixture,
    gen_random_junta,
    gen_sparse_distribution,
    run_trials,
    wilson_interval,
)

from reference import relevant_variables


class TestGenRandomJunta:
    def test_k_zero_is_constant(self):
        f = gen_random_junta(6, 0, np.random.default_rng(0))
        assert relevant_variables(f) == frozenset()

    def test_k_equals_n(self):
        f = gen_random_junta(4, 4, np.random.default_rng(1))
        assert f.junta_vars == (1, 2, 3, 4)
        assert f.to_json()["junta"]["inner_table"] == "".join(str(b) for b in f.table)

    def test_always_a_k_junta(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = gen_random_junta(10, 3, rng)
            assert len(relevant_variables(f)) <= 3
            assert f.junta_vars is not None and len(f.junta_vars) == 3

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            gen_random_junta(3, 4, np.random.default_rng(0))


class TestGenFarFixture:
    def test_parity_family_distance_half(self):
        f, dist, cert = gen_far_fixture(8, 2, 0.25, np.random.default_rng(3), "parity")
        assert cert.distance == pytest.approx(0.5)
        assert len(relevant_variables(f)) == 3

    def test_random_function_family(self):
        f, dist, cert = gen_far_fixture(
            10, 2, 0.1, np.random.default_rng(4), "random_function"
        )
        assert cert.distance >= 0.1
        # certificate is reproducible by the exact oracle
        assert distance_to_k_junta(f, dist, 2).distance == pytest.approx(cert.distance)

    def test_planted_family(self):
        f, dist, cert = gen_far_fixture(10, 2, 0.25, np.random.default_rng(5), "planted")
        assert cert.distance >= 0.25
        # mass is confined to a strict subcube
        assert dist.support.size < (1 << 10)

    def test_parity_cannot_exceed_half(self):
        with pytest.raises(FixtureError) as err:
            gen_far_fixture(8, 2, 0.6, np.random.default_rng(6), "parity")
        assert "0.5" in str(err.value)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_far_fixture(8, 2, 0.25, np.random.default_rng(0), "nope")


class TestSparseDistribution:
    def test_support_size_and_positivity(self):
        d = gen_sparse_distribution(10, 32, np.random.default_rng(7))
        assert d.support.size == 32
        assert np.all(d.probs > 0)

    def test_oversize_support_refused(self):
        fixture = {"kind": "junta", "dist": "sparse", "support_size": 9}
        with pytest.raises(ValueError):
            ExperimentConfig(n=3, k=1, eps=0.25, trials=1, master_seed=8, fixture=fixture)
        with pytest.raises(ValueError):
            gen_sparse_distribution(3, 9, np.random.default_rng(8))


class TestWilsonInterval:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and hi > 0

    def test_all_successes(self):
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and lo < 1

    def test_half_successes_width(self):
        # closed-form evaluation at z=2.576, n=1000, p=1/2 gives width ~0.0812
        lo, hi = wilson_interval(500, 1000)
        assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-9)
        assert hi - lo == pytest.approx(0.08120, abs=5e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, k=4, eps=0.5, trials=10, master_seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, k=2, eps=0.0, trials=10, master_seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, k=2, eps=0.5, trials=0, master_seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=4, k=2, eps=0.5, trials=10, master_seed=-5)

    def test_work_cap_bounds_the_sample_budget(self):
        # a trial draws at most ITERATION_FACTOR * k * ceil(2/eps) = 18 * 2 * 8 samples
        most = WORK_CAP // (18 * 2 * 8)
        ExperimentConfig(n=6, k=2, eps=0.25, trials=most, master_seed=1)
        with pytest.raises(WorkCapExceededError):
            ExperimentConfig(n=6, k=2, eps=0.25, trials=most + 1, master_seed=1)
        with pytest.raises(WorkCapExceededError):  # 2/eps is inf
            ExperimentConfig(n=6, k=2, eps=5e-324, trials=1, master_seed=1)

    @pytest.mark.parametrize(
        "fixture",
        [{"kind": "bogus"}, {"kind": "junta", "dist": "bogus"}, {"kind": "far", "family": "bogus"},
         {"kind": "junta", "dist": "sparse", "support_size": 0},
         {"kind": "junta", "dist": "sparse", "support_size": 2.5},
         {"kind": "junta", "dsit": "sparse"},
         {"kind": "far", "family": "parity", "support_size": 8},
         {"kind": "junta", "dist": "sparse", "support_size": 2000},
         {"kind": "junta", "dist": "sparse", "support_size": 65},
         {"kind": "junta", "dist": "uniform", "support_size": 8},
         {"kind": "junta", "dist": "point_mass", "support_size": 8},
         {"kind": "junta", "family": "parity"},
         {"kind": "far", "dist": "uniform"}],
    )
    def test_unknown_fixture_rejected_on_construction(self, fixture):
        with pytest.raises(ValueError):
            ExperimentConfig(n=6, k=2, eps=0.25, trials=5, master_seed=1, fixture=fixture)

    def test_default_support_size_is_checked(self):
        with pytest.raises(ValueError):  # the default 64 exceeds 2^5
            ExperimentConfig(n=5, k=2, eps=0.25, trials=5, master_seed=1,
                             fixture={"kind": "junta", "dist": "sparse"})

    def test_from_json_refuses_unknown_keys(self):
        doc = {"n": 8, "k": 2, "eps": 0.25, "trials": 5, "master_seed": 9, "varaint": "amplified"}
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(doc)

    @pytest.mark.parametrize(
        "key, value", [("n", 8.7), ("k", 2.5), ("trials", 3.9), ("master_seed", 1.5),
                       ("k", True), ("trials", True), ("master_seed", False),
                       ("master_seed", "9"), ("n", None)],
    )
    def test_from_json_refuses_non_integers(self, key, value):
        doc = {"n": 8, "k": 2, "eps": 0.25, "trials": 5, "master_seed": 9}
        doc[key] = value
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(doc)

    def test_from_json_accepts_integral_floats(self):
        config = ExperimentConfig.from_json(
            {"n": 8.0, "k": 2, "eps": 0.25, "trials": 5.0, "master_seed": 9}
        )
        assert (config.n, config.trials) == (8, 5)
        assert type(config.n) is int

    def test_from_json_defaults(self):
        config = ExperimentConfig.from_json(
            {"n": 6, "k": 2, "eps": 0.25, "trials": 5, "master_seed": 9}
        )
        assert config.variant.value == "classical"
        assert config.fixture == {"kind": "junta", "dist": "uniform"}

    @pytest.mark.parametrize(
        "defaulted, explicit",
        [({}, {"kind": "junta", "dist": "uniform"}),
         ({"dist": "sparse"}, {"kind": "junta", "dist": "sparse", "support_size": 64}),
         ({"kind": "far"}, {"kind": "far", "family": "parity"})],
    )
    def test_defaults_give_the_explicit_spec(self, defaulted, explicit):
        configs = [
            ExperimentConfig(n=8, k=2, eps=0.25, trials=20, master_seed=5, fixture=spec)
            for spec in (defaulted, explicit)
        ]
        assert configs[0].fixture == configs[1].fixture == explicit
        assert run_trials(configs[0]).to_json_str() == run_trials(configs[1]).to_json_str()


class TestRunTrials:
    def test_junta_fixture_accepts_everything(self):
        config = ExperimentConfig(
            n=8,
            k=2,
            eps=0.2,
            trials=100,
            master_seed=12345,
            fixture={"kind": "junta", "dist": "sparse", "support_size": 16},
        )
        report = run_trials(config)
        assert report.acceptance_rate == 1.0
        assert report.rejection_rate == 0.0
        assert report.acceptance_rate + report.rejection_rate == 1.0

    def test_far_fixture_rejects_at_least_half(self):
        config = ExperimentConfig(
            n=8,
            k=2,
            eps=0.25,
            trials=400,
            master_seed=777,
            fixture={"kind": "far", "family": "parity"},
        )
        report = run_trials(config)
        assert report.fixture_distance == pytest.approx(0.5)
        assert report.rejection_rate >= 0.5 - 3 * np.sqrt(0.25 / 400)
        assert report.potential_growth_rate is not None

    def test_reports_are_byte_identical(self):
        config = ExperimentConfig(
            n=6,
            k=2,
            eps=0.25,
            trials=50,
            master_seed=31337,
            fixture={"kind": "far", "family": "parity"},
        )
        assert run_trials(config).to_json_str() == run_trials(config).to_json_str()

    def test_single_trial_boundary(self):
        config = ExperimentConfig(
            n=6, k=2, eps=0.25, trials=1, master_seed=5, fixture={"kind": "junta"}
        )
        report = run_trials(config)
        assert report.acceptance_rate in (0.0, 1.0)
        lo, hi = report.confidence_interval
        assert 0.0 <= lo <= hi <= 1.0

    def test_ledger_aggregates_within_budgets(self):
        from math import ceil

        config = ExperimentConfig(
            n=8,
            k=2,
            eps=0.25,
            trials=100,
            master_seed=99,
            fixture={"kind": "far", "family": "parity"},
        )
        report = run_trials(config)
        agg = report.ledger_aggregates
        assert agg["quantum_queries"]["max"] <= 18 * 2
        assert agg["classical_samples"]["max"] <= 18 * 2 * ceil(2 / 0.25)
        assert agg["classical_queries"]["max"] <= 18 * 2 * (2 * ceil(2 / 0.25) + 2)

    def test_fixture_stream_is_separate_from_trials(self):
        config = ExperimentConfig(
            n=6, k=2, eps=0.25, trials=3, master_seed=21, fixture={"kind": "junta"}
        )
        f1, d1, _ = build_fixture(config, derive_rng(config.master_seed, 0))
        f2, d2, _ = build_fixture(config, derive_rng(config.master_seed, 0))
        assert np.array_equal(f1.table, f2.table)
        assert np.array_equal(d1.support, d2.support)


class TestFarFixturesAtN20:
    """The certificate's walk, not a full-table scan per subset, sets how far
    a far config can reach."""

    @pytest.mark.parametrize("family", ["parity", "planted", "random_function"])
    def test_n20_k4_runs(self, family):
        config = ExperimentConfig(
            n=20, k=4, eps=0.1, trials=1, master_seed=3, fixture={"kind": "far", "family": family}
        )
        report = run_trials(config)
        assert report.trials == 1
        assert report.fixture_distance >= 0.1

    @pytest.mark.parametrize("family", ["parity", "planted", "random_function"])
    def test_n24_k4_is_refused_before_the_fixture_is_built(self, monkeypatch, family):
        def never(*args):
            raise AssertionError("a fixture was built")

        monkeypatch.setattr(harness, "build_fixture", never)
        with pytest.raises(WorkCapExceededError, match=r"W\(24,4\) = 1040038592 exceeds"):
            run_trials(ExperimentConfig(
                n=24, k=4, eps=0.1, trials=1, master_seed=3,
                fixture={"kind": "far", "family": family},
            ))


class TestReportBytes:
    """Pinned report bytes: a simulator change that alters RNG use or charges breaks them."""

    @pytest.mark.parametrize(
        "variant, fixture, digest",
        [
            ("classical", {"kind": "junta"},
             "5cf0dbdf089d4c93082896399753d597df851b2082d4ac209bfe83986871d158"),
            ("amplified", {"kind": "far", "family": "planted"},
             "ed8b40c42156e5e5cfae0915a7e209a355170f44bd7206ca6873ff67b27371dd"),
        ],
    )
    def test_run_trials_bytes_are_pinned(self, variant, fixture, digest):
        config = ExperimentConfig(
            n=12, k=3, eps=0.25, trials=60, master_seed=2024, variant=variant, fixture=fixture
        )
        report = run_trials(config).to_json_str()
        assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_oversized_junta_is_refused_before_allocation():
    with pytest.raises(ValueError):
        BooleanFunction.from_junta(25, [1], [0, 1])


class TestDeriveRng:
    def test_deterministic_and_stream_independent(self):
        a = derive_rng(42, 1).integers(0, 1 << 30, size=4)
        b = derive_rng(42, 1).integers(0, 1 << 30, size=4)
        c = derive_rng(42, 2).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

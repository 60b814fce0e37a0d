"""Fixture generation, seeded Monte Carlo trial execution, and reporting.

Every random stream is derived deterministically from the experiment's master
seed, so a report is a pure function of its configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import sqrt
from typing import Mapping, Optional

import numpy as np

from .boolfn import BitString, BooleanFunction, N_MAX, _document, _integral, _number
from .distribution import (
    WORK_CAP, DistanceCertificate, Distribution, WorkCapExceededError, distance_to_k_junta
)
from .oracles import MembershipOracle, QueryLedger, SampleOracle
from .tester import ITERATION_FACTOR, Decision, Variant, run_tester

RANDOM_FUNCTION_RETRIES = 100
WILSON_Z_99 = 2.576
FAR_FAMILIES = ("parity", "random_function", "planted")
JUNTA_DISTS = ("uniform", "sparse", "point_mass")


class FixtureError(RuntimeError):
    """Fixture generation could not certify the requested distance."""


def derive_rng(master_seed: int, index: int) -> np.random.Generator:
    """Stream `index` of the experiment: a fixed 64-bit mixing of (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, index)))


def gen_random_junta(n: int, k: int, rng: np.random.Generator) -> BooleanFunction:
    """Uniformly random k-subset of variables with a uniformly random inner table."""
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    variables = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist())
    inner = rng.integers(0, 2, size=1 << k, dtype=np.int64)
    return BooleanFunction.from_junta(n, variables, inner)


def gen_sparse_distribution(n: int, support_size: int, rng: np.random.Generator) -> Distribution:
    """Random sparse distribution: distinct support points, positive random weights."""
    support = rng.choice(1 << n, size=support_size, replace=False)
    weights = rng.random(support_size) + 1e-3
    return Distribution(n, support, weights)


def _far_candidate(
    n: int, k: int, rng: np.random.Generator, family: str, uniform: Optional[Distribution]
) -> tuple[BooleanFunction, Distribution]:
    """One uncertified (f, D) of `family`; parity and random_function use `uniform`."""
    if family == "parity":
        variables = sorted(rng.choice(np.arange(1, n + 1), size=k + 1, replace=False).tolist())
        return BooleanFunction.parity(n, variables), uniform
    if family == "random_function":
        return BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64)), uniform
    # planted: fix half the coordinates; put a (k+1)-parity on the free ones
    # and restrict the distribution's mass to the resulting subcube.
    n_fixed = max(0, min(n - (k + 1), n // 2))
    order = rng.permutation(np.arange(1, n + 1))
    fixed_vars = sorted(order[:n_fixed].tolist())
    free_vars = sorted(order[n_fixed:].tolist())
    parity_vars = sorted(rng.choice(np.array(free_vars), size=k + 1, replace=False).tolist())
    anchor = int(rng.integers(0, 1 << n))
    # the subcube is one slice of the (2,)*n view, where variable v is axis n - v
    corner = tuple(anchor >> (v - 1) & 1 if v in fixed_vars else slice(None)
                   for v in range(n, 0, -1))
    in_cube = np.zeros((2,) * n, dtype=bool)
    in_cube[corner] = True
    table = BooleanFunction.parity(n, parity_vars).table * in_cube.reshape(-1)
    dist = Distribution(n, np.flatnonzero(in_cube), np.full(1 << (n - n_fixed), 1.0))
    return BooleanFunction(n, table), dist


def gen_far_fixture(
    n: int, k: int, eps: float, rng: np.random.Generator, family: str
) -> tuple[BooleanFunction, Distribution, DistanceCertificate]:
    """A function/distribution pair certified eps-far from every k-junta.

    Families:
      parity          parity of k+1 random variables, uniform D (distance 1/2);
      random_function uniformly random table, uniform D, resampled until certified;
      planted         mass confined to a random subcube carrying a (k+1)-parity.
    """
    if family not in FAR_FAMILIES:
        raise ValueError(f"unknown fixture family: {family}")
    tries = RANDOM_FUNCTION_RETRIES if family == "random_function" else 1
    uniform = None if family == "planted" else Distribution.uniform(n)
    best = 0.0
    for _ in range(tries):
        f, dist = _far_candidate(n, k, rng, family, uniform)
        cert = distance_to_k_junta(f, dist, k)
        if cert.distance >= eps - 1e-12:
            return f, dist, cert
        best = max(best, cert.distance)
    raise FixtureError(
        f"best {family} fixture distance {best} is below eps={eps} after {tries} draw(s)"
    )


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z_99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in 0..trials")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - margin)
    hi = 1.0 if successes == trials else min(1.0, center + margin)
    return (lo, hi)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a Monte Carlo experiment byte for byte."""

    n: int
    k: int
    eps: float
    trials: int
    master_seed: int
    variant: Variant = Variant.CLASSICAL
    fixture: Mapping = field(default_factory=dict)

    def __post_init__(self):
        # checked before anything is built, so a bad size never allocates
        if not 1 <= self.k < self.n <= N_MAX:
            raise ValueError(f"need 1 <= k < n <= {N_MAX}; got k={self.k}, n={self.n}")
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        object.__setattr__(self, "variant", Variant(self.variant))
        # The one reading of the fixture spec: it is stored as
        # {"kind": "junta", "dist": "uniform" | "point_mass"},
        # {"kind": "junta", "dist": "sparse", "support_size": N} with 1 <= N <= 2^n,
        # or {"kind": "far", "family": F}. Any other key is refused.
        keys = ("kind", "dist", "support_size", "family")
        rest = dict(_document(self.fixture, "fixture", (), keys))
        kind = rest.pop("kind", "junta")
        if kind == "junta":
            spec = {"kind": kind, "dist": rest.pop("dist", "uniform")}
            if spec["dist"] not in JUNTA_DISTS:
                raise ValueError(f"unknown fixture dist: {spec['dist']}")
            if spec["dist"] == "sparse":
                size = _integral(rest.pop("support_size", 64), "support_size")
                if not 1 <= size <= 1 << self.n:
                    raise ValueError(f"support_size must be in 1..2^{self.n}, got {size}")
                spec["support_size"] = size
        elif kind == "far":
            spec = {"kind": kind, "family": rest.pop("family", "parity")}
            if spec["family"] not in FAR_FAMILIES:
                raise ValueError(f"unknown fixture family: {spec['family']}")
        else:
            raise ValueError(f"unknown fixture kind: {kind}")
        if rest:
            raise ValueError(f"fixture keys {list(rest)} do not apply to {spec}")
        object.__setattr__(self, "fixture", spec)
        # The sample budget trials * ITERATION_FACTOR * k * ceil(2/eps) against
        # the cap, in a form that a subnormal eps (2/eps = inf) cannot overflow.
        if 2 / self.eps > WORK_CAP // (self.trials * ITERATION_FACTOR * self.k):
            raise WorkCapExceededError(
                f"{self.trials} trials of {ITERATION_FACTOR}*{self.k} iterations with "
                f"ceil(2/{self.eps}) samples each exceed the work cap of {WORK_CAP}"
            )

    @classmethod
    def from_json(cls, doc: Mapping) -> "ExperimentConfig":
        required = ("n", "k", "eps", "trials", "master_seed")
        _document(doc, "config", required, ("variant", "fixture"))
        return cls(
            n=_integral(doc["n"], "n"),
            k=_integral(doc["k"], "k"),
            eps=float(_number(doc["eps"], "eps")),
            trials=_integral(doc["trials"], "trials"),
            master_seed=_integral(doc["master_seed"], "master_seed"),
            **{key: doc[key] for key in ("variant", "fixture") if key in doc},
        )


@dataclass(frozen=True)
class TrialReport:
    """Aggregated verdicts, ledger statistics, and potential-growth rate."""

    trials: int
    acceptances: int
    rejections: int
    acceptance_rate: float
    rejection_rate: float
    confidence_interval: tuple[float, float]  # Wilson 99% on the rejection rate
    ledger_aggregates: dict
    potential_growth_rate: Optional[float]
    fixture_distance: Optional[float]

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "acceptances": self.acceptances,
            "rejections": self.rejections,
            "acceptance_rate": self.acceptance_rate,
            "rejection_rate": self.rejection_rate,
            "confidence_interval": list(self.confidence_interval),
            "ledger_aggregates": self.ledger_aggregates,
            "potential_growth_rate": self.potential_growth_rate,
            "fixture_distance": self.fixture_distance,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def build_fixture(
    config: ExperimentConfig, rng: np.random.Generator
) -> tuple[BooleanFunction, Distribution, Optional[DistanceCertificate]]:
    """Materialize the configured fixture from the experiment's fixture stream.

    `config.fixture` is already normalized: every key it needs is present.
    """
    spec = config.fixture
    if spec["kind"] == "far":
        return gen_far_fixture(config.n, config.k, config.eps, rng, spec["family"])
    f = gen_random_junta(config.n, config.k, rng)
    if spec["dist"] == "uniform":
        dist = Distribution.uniform(config.n)
    elif spec["dist"] == "sparse":
        dist = gen_sparse_distribution(config.n, spec["support_size"], rng)
    else:  # point_mass
        dist = Distribution.point_mass(BitString(config.n, int(rng.integers(0, 1 << config.n))))
    return f, dist, None


def _aggregate_ledgers(ledgers: list[QueryLedger]) -> dict:
    out = {}
    for name in ("classical_queries", "classical_samples", "quantum_queries", "total"):
        values = [getattr(l, name) for l in ledgers]
        out[name] = {
            "min": int(min(values)),
            "mean": float(np.mean(values)),
            "max": int(max(values)),
        }
    return out


def run_trials(config: ExperimentConfig) -> TrialReport:
    """Execute the configured number of independent tester runs and aggregate.

    Stream 0 of the master seed builds the fixture; stream i >= 1 drives trial
    i. Identical configurations therefore produce identical reports.
    """
    f, dist, cert = build_fixture(config, derive_rng(config.master_seed, 0))
    ledgers: list[QueryLedger] = []
    rejections = 0
    growth_events = 0
    growth_iterations = 0
    for i in range(config.trials):
        rng = derive_rng(config.master_seed, i + 1)
        ledger = QueryLedger()
        verdict = run_tester(
            MembershipOracle(f, ledger),
            SampleOracle(dist, ledger),
            config.k,
            config.eps,
            rng,
            config.variant,
        )
        ledgers.append(ledger)
        if verdict.decision is Decision.REJECT:
            rejections += 1
        prev = 0
        for rec in verdict.final_state.trace:
            growth_iterations += 1
            if rec.potential > prev:
                growth_events += 1
            prev = rec.potential
    acceptances = config.trials - rejections
    growth_rate = growth_events / growth_iterations if growth_iterations else None
    return TrialReport(
        trials=config.trials,
        acceptances=acceptances,
        rejections=rejections,
        acceptance_rate=acceptances / config.trials,
        rejection_rate=rejections / config.trials,
        confidence_interval=wilson_interval(rejections, config.trials),
        ledger_aggregates=_aggregate_ledgers(ledgers),
        potential_growth_rate=growth_rate,
        fixture_distance=cert.distance if cert is not None else None,
    )

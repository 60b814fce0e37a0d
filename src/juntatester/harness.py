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

from .boolfn import BitString, BooleanFunction, N_MAX
from .distribution import DistanceCertificate, Distribution, distance_to_k_junta
from .oracles import MembershipOracle, QueryLedger, SampleOracle
from .tester import Decision, Variant, run_tester

RANDOM_FUNCTION_RETRIES = 100
WILSON_Z_99 = 2.576
FAR_FAMILIES = ("parity", "random_function", "planted")
JUNTA_DISTS = ("uniform", "sparse", "point_mass")


class FixtureError(RuntimeError):
    """Fixture generation could not certify the requested distance."""


def check_dimensions(n: int, k: int) -> None:
    """The experiment rule 1 <= k < n <= N_MAX, checked before anything is built."""
    if not 1 <= k < n <= N_MAX:
        raise ValueError(f"need 1 <= k < n <= {N_MAX}; got k={k}, n={n}")


def _integral(doc: Mapping, key: str) -> int:
    """doc[key] as an int; a bool or a number with a fractional part is refused."""
    value = doc[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


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


def gen_sparse_distribution(
    n: int, support_size: int, rng: np.random.Generator
) -> Distribution:
    """Random sparse distribution: distinct support points, positive random weights."""
    support_size = min(support_size, 1 << n)
    support = rng.choice(np.arange(1 << n, dtype=np.int64), size=support_size, replace=False)
    weights = rng.random(support_size) + 1e-3
    return Distribution(n, support, weights)


def gen_far_fixture(
    n: int,
    k: int,
    eps: float,
    rng: np.random.Generator,
    family: str = "parity",
) -> tuple[BooleanFunction, Distribution, DistanceCertificate]:
    """A function/distribution pair certified eps-far from every k-junta.

    Families:
      parity          parity of k+1 random variables, uniform D (distance 1/2);
      random_function uniformly random table, uniform D, resampled until certified;
      planted         mass confined to a random subcube carrying a (k+1)-parity.
    """
    if family == "parity":
        variables = sorted(rng.choice(np.arange(1, n + 1), size=k + 1, replace=False).tolist())
        f = BooleanFunction.parity(n, variables)
        dist = Distribution.uniform(n)
        cert = distance_to_k_junta(f, dist, k)
        if cert.distance < eps - 1e-12:
            raise FixtureError(
                f"parity fixture achieves distance {cert.distance}, below eps={eps}"
            )
        return f, dist, cert

    if family == "random_function":
        dist = Distribution.uniform(n)
        best = 0.0
        for _ in range(RANDOM_FUNCTION_RETRIES):
            f = BooleanFunction(n, rng.integers(0, 2, size=1 << n, dtype=np.int64))
            cert = distance_to_k_junta(f, dist, k)
            if cert.distance >= eps:
                return f, dist, cert
            best = max(best, cert.distance)
        raise FixtureError(
            f"no random function reached distance {eps} in "
            f"{RANDOM_FUNCTION_RETRIES} tries (best {best})"
        )

    if family == "planted":
        # Fix half the coordinates; put a (k+1)-parity on the free ones and
        # restrict the distribution's mass to the resulting subcube.
        n_fixed = max(0, min(n - (k + 1), n // 2))
        order = rng.permutation(np.arange(1, n + 1))
        fixed_vars = sorted(order[:n_fixed].tolist())
        free_vars = sorted(order[n_fixed:].tolist())
        parity_vars = sorted(
            rng.choice(np.array(free_vars), size=k + 1, replace=False).tolist()
        )
        anchor = int(rng.integers(0, 1 << n))
        fixed_mask = sum(1 << (v - 1) for v in fixed_vars)
        points = np.arange(1 << n, dtype=np.int64)
        in_cube = (points & fixed_mask) == (anchor & fixed_mask)
        parity_bits = np.zeros(1 << n, dtype=np.int64)
        for v in parity_vars:
            parity_bits ^= points >> (v - 1) & 1
        table = np.where(in_cube, parity_bits, 0).astype(np.uint8)
        f = BooleanFunction(n, table)
        dist = Distribution(
            n, points[in_cube], np.full(int(in_cube.sum()), 1.0)
        )
        cert = distance_to_k_junta(f, dist, k)
        if cert.distance < eps - 1e-12:
            raise FixtureError(
                f"planted fixture achieves distance {cert.distance}, below eps={eps}"
            )
        return f, dist, cert

    raise ValueError(f"unknown fixture family: {family}")


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
    fixture: Mapping = field(default_factory=lambda: {"kind": "junta"})

    def __post_init__(self):
        check_dimensions(self.n, self.k)
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        object.__setattr__(self, "variant", Variant(self.variant))
        spec = dict(self.fixture)
        kind = spec.get("kind", "junta")
        if kind not in ("junta", "far"):
            raise ValueError(f"unknown fixture kind: {kind}")
        key, known = ("dist", JUNTA_DISTS) if kind == "junta" else ("family", FAR_FAMILIES)
        if spec.get(key, known[0]) not in known:
            raise ValueError(f"unknown fixture {key}: {spec[key]}")
        if "support_size" in spec and _integral(spec, "support_size") < 1:
            raise ValueError("support_size must be positive")
        object.__setattr__(self, "fixture", spec)

    @classmethod
    def from_json(cls, doc: Mapping) -> "ExperimentConfig":
        return cls(
            n=_integral(doc, "n"),
            k=_integral(doc, "k"),
            eps=float(doc["eps"]),
            trials=_integral(doc, "trials"),
            master_seed=_integral(doc, "master_seed"),
            variant=Variant(doc.get("variant", "classical")),
            fixture=doc.get("fixture", {"kind": "junta"}),
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

    The config has already checked the fixture kind, dist and family.
    """
    spec = dict(config.fixture)
    kind = spec.get("kind", "junta")
    if kind == "junta":
        f = gen_random_junta(config.n, config.k, rng)
        dist_kind = spec.get("dist", "uniform")
        if dist_kind == "uniform":
            dist = Distribution.uniform(config.n)
        elif dist_kind == "sparse":
            dist = gen_sparse_distribution(
                config.n, int(spec.get("support_size", 64)), rng
            )
        else:  # point_mass
            dist = Distribution.point_mass(
                BitString(config.n, int(rng.integers(0, 1 << config.n)))
            )
        return f, dist, None
    return gen_far_fixture(config.n, config.k, config.eps, rng, spec.get("family", "parity"))


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

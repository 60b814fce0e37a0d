"""Exactly simulated quantum distribution-free k-junta tester."""

from .boolfn import (
    BitString,
    BooleanFunction,
    Cube,
    RestrictedSpectrum,
    restricted_spectrum,
    walsh_hadamard,
)
from .distribution import (
    DistanceCertificate,
    Distribution,
    best_junta_on,
    distance_to_k_junta,
)
from .harness import (
    ExperimentConfig,
    TrialReport,
    gen_far_fixture,
    gen_random_junta,
    run_trials,
    wilson_interval,
)
from .oracles import MembershipOracle, QueryLedger, SampleOracle
from .quantum import amplified_generate_cube, attempt_success_probability, fourier_sample
from .tester import (
    Decision,
    TesterState,
    TraceRecord,
    Variant,
    Verdict,
    check_invariants,
    generate_cube,
    run_tester,
    step,
)

__all__ = [
    "BitString",
    "BooleanFunction",
    "Cube",
    "RestrictedSpectrum",
    "restricted_spectrum",
    "walsh_hadamard",
    "DistanceCertificate",
    "Distribution",
    "best_junta_on",
    "distance_to_k_junta",
    "ExperimentConfig",
    "TrialReport",
    "gen_far_fixture",
    "gen_random_junta",
    "run_trials",
    "wilson_interval",
    "MembershipOracle",
    "QueryLedger",
    "SampleOracle",
    "amplified_generate_cube",
    "attempt_success_probability",
    "fourier_sample",
    "Decision",
    "TesterState",
    "TraceRecord",
    "Variant",
    "Verdict",
    "check_invariants",
    "generate_cube",
    "run_tester",
    "step",
]

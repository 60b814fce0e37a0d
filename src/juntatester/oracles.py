"""Query-counted access to the input function and the sample distribution.

The tester touches f and D only through these wrappers, so the ledger is a
faithful account of everything the algorithm consumed. There is no caching:
repeated queries at the same point are charged repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boolfn import BitString, BooleanFunction, DimensionMismatchError
from .distribution import Distribution


@dataclass
class QueryLedger:
    """Monotone counters for the three access channels."""

    classical_queries: int = 0
    classical_samples: int = 0
    quantum_queries: int = 0

    @property
    def total(self) -> int:
        return self.classical_queries + self.classical_samples + self.quantum_queries

    def to_json(self) -> dict:
        return {
            "classical_queries": self.classical_queries,
            "classical_samples": self.classical_samples,
            "quantum_queries": self.quantum_queries,
        }


@dataclass
class MembershipOracle:
    """Counted black-box access to a Boolean function."""

    function: BooleanFunction
    ledger: QueryLedger = field(default_factory=QueryLedger)

    def query(self, x: BitString) -> int:
        if x.n != self.function.n:
            raise DimensionMismatchError(f"point dimension {x.n} != {self.function.n}")
        self.ledger.classical_queries += 1
        return int(self.function.table[x.value])

    def note_classical(self, amount: int) -> None:
        """Charge `amount` classical queries evaluated through a batched path."""
        if amount < 0:
            raise ValueError("amount must be nonnegative")
        self.ledger.classical_queries += amount

    def charge_quantum(self, amount: int = 1) -> None:
        """Account for `amount` executions of the quantum membership oracle."""
        if amount < 1:
            raise ValueError("quantum charge must be at least 1")
        self.ledger.quantum_queries += amount


@dataclass
class SampleOracle:
    """Counted classical sample access to a distribution."""

    distribution: Distribution
    ledger: QueryLedger = field(default_factory=QueryLedger)

    def draw(self, rng: np.random.Generator) -> BitString:
        self.ledger.classical_samples += 1
        return BitString(self.distribution.n, self.distribution.sample_index(rng))

    def note_samples(self, amount: int) -> None:
        """Charge `amount` draws taken through a batched path."""
        if amount < 0:
            raise ValueError("amount must be nonnegative")
        self.ledger.classical_samples += amount

"""Online Bayesian linear regression for step-cost coefficients.

Section 4 of the paper: "during the execution of the operation, we record
the actual amount of time spent on each step and, based on it, we
dynamically adjust the coefficients of the cost functions for each step".

Each time-consuming step of an operator (write / sort / merge / …) has a
linear cost formula ``cost = θ · x`` over a small feature vector (e.g.
``[n·log2 n, n, 1]`` for the sort step, equation 4.3). We maintain the
coefficients with conjugate Bayesian updating: a Gaussian prior
``N(θ0, diag(scale²)/weight)`` around the designer's initial coefficients,
plus the normal equations of all observed (features, seconds) pairs. With a
handful of observations per query — one per stage — the posterior mean moves
quickly toward the machine's true coefficients while the prior keeps the
problem well-posed, which is exactly the adaptive behaviour the paper
describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import CostModelError


@dataclass(frozen=True)
class StepSpec:
    """Static description of one step model.

    ``prior`` — the designer's initial coefficients (Section 5: "assigned
    initial values based on the experiments ...").
    ``scales`` — typical feature magnitudes, setting how strongly the prior
    resists the first observations per coordinate.
    ``weight`` — prior pseudo-observation count.
    """

    name: str
    prior: tuple[float, ...]
    scales: tuple[float, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.prior) != len(self.scales):
            raise CostModelError(
                f"step {self.name!r}: prior and scales lengths differ"
            )
        if any(s <= 0 for s in self.scales):
            raise CostModelError(f"step {self.name!r}: scales must be positive")
        if self.weight <= 0:
            raise CostModelError(f"step {self.name!r}: weight must be positive")

    @property
    def dim(self) -> int:
        return len(self.prior)


class OnlineLinearModel:
    """Posterior-mean linear model for one step's cost.

    Predictions are plain Python float arithmetic over a coefficient tuple
    refreshed by :meth:`observe`: NumPy's dot on 2–3 elements runs an
    FMA chain whose rounding depends on the BLAS kernel, so the compiled
    ``QCOST`` steps and this method share one definition instead.
    """

    def __init__(self, spec: StepSpec) -> None:
        self.spec = spec
        theta0 = np.asarray(spec.prior, dtype=float)
        scales = np.asarray(spec.scales, dtype=float)
        # Prior precision: weight observations at typical feature magnitude.
        self._a = np.diag(spec.weight * scales * scales)
        self._b = self._a @ theta0
        self._theta = theta0.copy()
        self._coefs: tuple[float, ...] = tuple(self._theta.tolist())
        self.observations = 0

    @property
    def coefficients(self) -> np.ndarray:
        """Current posterior-mean coefficients."""
        return self._theta.copy()

    def predict(self, features: Sequence[float]) -> float:
        """Predicted seconds for one step execution (floored at 0).

        ``Σ c·x`` left to right from ``0.0`` — not ``sum()``, which
        compensates float sums from Python 3.12 — and NaN propagates.
        """
        coefs = self._coefs
        if len(features) != len(coefs):
            raise CostModelError(
                f"step {self.spec.name!r}: expected {len(coefs)} features, "
                f"got {len(features)}"
            )
        total = 0.0
        for c, x in zip(coefs, features):
            total += c * x
        return float(max(total, 0.0))

    def observe(self, features: Sequence[float], seconds: float) -> None:
        """Fold one measured (features, seconds) pair into the posterior.

        Non-finite input is rejected before any state changes: one NaN or
        infinity would turn the coefficients to NaN for the whole session.
        """
        x = np.asarray(features, dtype=float)
        if x.shape != (self.spec.dim,):
            raise CostModelError(
                f"step {self.spec.name!r}: expected {self.spec.dim} features, "
                f"got {x.shape}"
            )
        if not math.isfinite(seconds):
            raise CostModelError(f"non-finite step time {seconds}")
        if seconds < 0:
            raise CostModelError(f"negative step time {seconds}")
        if not np.isfinite(x).all():
            raise CostModelError(
                f"step {self.spec.name!r}: non-finite features {x.tolist()}"
            )
        self._a += np.outer(x, x)
        self._b += x * seconds
        self._theta = np.linalg.solve(self._a, self._b)
        self._coefs = tuple(self._theta.tolist())
        self.observations += 1

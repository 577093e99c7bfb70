"""End-to-end differential-privacy accounting for the clipped-noise path.

:class:`repro.federated.privacy.PrivacyConfig` already implements the
mechanism — clip each upload to ``clip_norm`` then add Gaussian noise
``σ_abs = noise_std · clip_norm`` — but nothing tracked what the
accumulated noise *buys*.  This module composes the per-round privacy
cost into a running (ε, δ) guarantee that the trainer logs per epoch,
checkpoints, and the experiment suite reports.

Model: each round is one adversarial query.  With L2 sensitivity
``Δ2 = clip_norm`` (one client's whole contribution changes) and noise
``σ_abs = noise_std · clip_norm``, the *noise multiplier* is
``σ = σ_abs / Δ2 = noise_std``, and a single round is (ε₀, δ₀)-DP with
the classic Gaussian-mechanism bound

    ε₀ = sqrt(2 · ln(1.25 / δ₀)) / σ          (requires ε₀ ≤ 1 regime)

We compose k rounds two ways and report the tighter result:

* **basic** composition: (k·ε₀, k·δ₀) with δ₀ = δ_target / k;
* **advanced** (strong) composition [Dwork–Rothblum–Vadhan]:
  ε = sqrt(2k · ln(1/δ′)) · ε₀ + k · ε₀ · (e^{ε₀} − 1)
  with the δ budget split δ₀ = δ_target / (2k), δ′ = δ_target / 2.

The accountant is deliberately conservative: it assumes the worst-case
client participates in *every* round (no subsampling amplification), so
the reported ε is an upper bound for every client.  It consumes no
randomness and its state is two integers and two floats — checkpointing
it preserves bitwise resume trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class PrivacySpent:
    """A point on the privacy-loss curve after some number of rounds."""

    epsilon: float
    delta: float
    rounds: int
    mechanism: str  # which composition bound won: "basic" or "advanced"

    def as_dict(self) -> Dict[str, object]:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "rounds": self.rounds,
            "mechanism": self.mechanism,
        }


def gaussian_epsilon(noise_multiplier: float, delta: float) -> float:
    """Single-query ε of the Gaussian mechanism at noise multiplier σ."""
    if noise_multiplier <= 0:
        return math.inf
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return math.sqrt(2.0 * math.log(1.25 / delta)) / noise_multiplier


def compose_basic(
    noise_multiplier: float, rounds: int, target_delta: float
) -> Tuple[float, float]:
    """(ε, δ) after ``rounds`` sequential queries, basic composition."""
    if rounds <= 0:
        return 0.0, 0.0
    delta_0 = target_delta / rounds
    return rounds * gaussian_epsilon(noise_multiplier, delta_0), target_delta


def compose_advanced(
    noise_multiplier: float, rounds: int, target_delta: float
) -> Tuple[float, float]:
    """(ε, δ) after ``rounds`` queries, strong composition.

    Splits the δ budget evenly between the per-query failure mass and
    the composition slack δ′, which keeps the total at ``target_delta``.
    """
    if rounds <= 0:
        return 0.0, 0.0
    delta_0 = target_delta / (2.0 * rounds)
    delta_prime = target_delta / 2.0
    eps_0 = gaussian_epsilon(noise_multiplier, delta_0)
    if math.isinf(eps_0):
        return math.inf, target_delta
    epsilon = math.sqrt(2.0 * rounds * math.log(1.0 / delta_prime)) * eps_0
    epsilon += rounds * eps_0 * math.expm1(eps_0)
    return epsilon, target_delta


#: δ budget a trainer's accountant composes against when both clipping
#: and noise are active.
TARGET_DELTA = 1e-5


class PrivacyAccountant:
    """Running (ε, δ) over the training run's aggregation rounds.

    One :meth:`record_round` per *successful* secure/plain aggregation
    (aborted secure rounds release nothing and cost nothing).  The
    guarantee is only meaningful while the mechanism is actually active
    — ``noise_multiplier > 0`` — otherwise :meth:`spent` reports
    ``ε = inf`` to make "no noise, no privacy" impossible to misread.
    The δ budget is ``TARGET_DELTA`` when the accountant is built (a
    checkpoint restores its own).
    """

    def __init__(self, noise_multiplier: float) -> None:
        if noise_multiplier < 0:
            raise ValueError(
                f"noise_multiplier must be >= 0, got {noise_multiplier}"
            )
        self.noise_multiplier = float(noise_multiplier)
        self.target_delta = TARGET_DELTA
        self.rounds = 0

    @property
    def active(self) -> bool:
        return self.noise_multiplier > 0

    def record_round(self) -> None:
        self.rounds += 1

    def spent(self) -> PrivacySpent:
        """The tighter of basic vs advanced composition over the rounds so far."""
        k = self.rounds
        if k == 0:
            return PrivacySpent(0.0, 0.0, 0, "basic")
        if not self.active:
            return PrivacySpent(math.inf, self.target_delta, k, "basic")
        eps_basic, _ = compose_basic(self.noise_multiplier, k, self.target_delta)
        eps_adv, _ = compose_advanced(self.noise_multiplier, k, self.target_delta)
        if eps_adv < eps_basic:
            return PrivacySpent(eps_adv, self.target_delta, k, "advanced")
        return PrivacySpent(eps_basic, self.target_delta, k, "basic")

    # -- checkpoint integration ---------------------------------------
    def export_state(self) -> Dict[str, object]:
        return {
            "noise_multiplier": self.noise_multiplier,
            "target_delta": self.target_delta,
            "rounds": self.rounds,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.noise_multiplier = float(state["noise_multiplier"])
        self.target_delta = float(state["target_delta"])
        self.rounds = int(state["rounds"])

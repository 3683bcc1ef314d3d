"""Exponential-weights bandit engine with cooperative importance weighting.

Weights live in log space and are renormalized (max log-weight subtracted)
on every update, so horizons of 1e5+ steps never overflow.  A loss estimate
for arm i is loss / observe_prob when some closed-neighborhood member played
i this round, else 0; observe_prob is one minus the probability that nobody
in the neighborhood drew the arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DISTRIBUTION_TOL = 1e-12


class ArmsTooFewError(ValueError):
    """Every component of the system needs at least two arms."""


class ZeroObservationProbabilityError(ValueError):
    pass


class NonFiniteEstimateError(ValueError):
    pass


def uniform_distribution(arms: int) -> np.ndarray:
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
    return np.full(arms, 1.0 / arms)


def is_distribution(probs, tol: float = DISTRIBUTION_TOL) -> bool:
    p = np.asarray(probs, dtype=float)
    return bool(
        p.ndim == 1
        and p.size >= 2
        and np.all(p >= 0.0)
        and np.all(p <= 1.0 + tol)
        and abs(float(p.sum()) - 1.0) <= tol
    )


def learning_rate(mass_value: float, arms: int, horizon: int) -> float:
    """Step size (1/2) * sqrt(ln(arms) * mass / (arms * horizon)).

    ``mass_value`` is the effective number of observers the agent enjoys;
    larger mass means more feedback per round and a more aggressive rate.
    """
    if arms < 2:
        raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
    if mass_value <= 0.0:
        raise ValueError(f"mass_value must be positive, got {mass_value}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return 0.5 * math.sqrt(math.log(arms) * mass_value / (arms * horizon))


@dataclass(frozen=True, eq=False)
class Exp3State:
    """Immutable exponential-weights state; updates return a new state."""

    arms: int
    learning_rate: float
    log_weights: np.ndarray  # renormalized: max entry is always 0.0

    @classmethod
    def fresh(cls, arms: int, learning_rate: float) -> "Exp3State":
        if arms < 2:
            raise ArmsTooFewError(f"need at least 2 arms, got {arms}")
        lw = np.zeros(arms)
        lw.setflags(write=False)
        return cls(arms, learning_rate, lw)

    def probs(self) -> np.ndarray:
        return probs_from_log_weights(self.log_weights)


def probs_from_log_weights(log_weights: np.ndarray) -> np.ndarray:
    w = np.exp(log_weights)
    return w / w.sum()


def exp3_update_raw(log_weights: np.ndarray, learning_rate: float, estimates: np.ndarray) -> np.ndarray:
    """Core weight step on bare arrays; callers own shape checks."""
    if not np.isfinite(estimates).all():
        raise NonFiniteEstimateError("loss estimates must be finite")
    lw = log_weights - learning_rate * estimates
    lw -= lw.max()
    return lw


def exp3_update(state: Exp3State, estimates) -> Exp3State:
    """Multiply each weight by exp(-rate * estimate) and renormalize."""
    est = np.asarray(estimates, dtype=float)
    if est.shape != (state.arms,):
        raise ValueError(f"expected {state.arms} estimates, got shape {est.shape}")
    lw = exp3_update_raw(state.log_weights, state.learning_rate, est)
    lw.setflags(write=False)
    return Exp3State(state.arms, state.learning_rate, lw)


@dataclass(frozen=True)
class ObservationEvent:
    """What one agent learned about one arm in one round."""

    arm: int
    observed: bool
    observe_prob: float
    loss: float


def observation_probability(neighbor_dists: Sequence, arm: int) -> float:
    """Probability at least one closed-neighborhood member plays ``arm``.

    ``neighbor_dists`` are the distributions the members actually play this
    round, the agent's own included.
    """
    stack = np.asarray(list(neighbor_dists), dtype=float)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise ValueError("need at least one neighbor distribution")
    return float(1.0 - np.prod(1.0 - stack[:, arm]))


def observation_probabilities(neighbor_dists: Sequence) -> np.ndarray:
    """Vector form of observation_probability over all arms."""
    stack = np.asarray(list(neighbor_dists), dtype=float)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise ValueError("need at least one neighbor distribution")
    return 1.0 - np.prod(1.0 - stack, axis=0)


def estimated_loss(event: ObservationEvent) -> float:
    """Importance-weighted loss estimate for one arm; 0 when unobserved."""
    if event.observe_prob <= 0.0:
        raise ZeroObservationProbabilityError(
            f"observe_prob must be positive, got {event.observe_prob}"
        )
    if not 0.0 <= event.loss <= 1.0:
        raise ValueError(f"loss must lie in [0, 1], got {event.loss}")
    if not event.observed:
        return 0.0
    return event.loss / event.observe_prob


def estimated_loss_vector(losses: np.ndarray, observe_probs: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Per-arm estimates in one shot; equals estimated_loss arm by arm."""
    # observe_probs.min() spares the masked test in the usual all-positive case
    if observe_probs.min() <= 0.0 and ((observe_probs <= 0.0) & observed).any():
        raise ZeroObservationProbabilityError("observed arm with zero observation probability")
    out = np.zeros(np.broadcast(losses, observe_probs, observed).shape)
    return np.divide(losses, observe_probs, out=out, where=observed)


def sample_action(probs, draw: float) -> int:
    """Inverse-CDF sample: smallest arm whose CDF reaches ``draw``.

    Arms are scanned in ascending index order and a draw landing exactly on
    a CDF boundary resolves to the lower arm.  Zero-probability arms are
    never returned.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ArmsTooFewError(f"need a distribution over >= 2 arms, got shape {p.shape}")
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw must lie in [0, 1), got {draw}")
    cdf = np.cumsum(p)
    i = int(np.searchsorted(cdf, draw, side="left"))
    if i >= p.size:
        i = p.size - 1
    while i < p.size - 1 and p[i] == 0.0:
        i += 1
    if p[i] == 0.0:
        positive = np.flatnonzero(p > 0.0)
        if positive.size == 0:
            raise ValueError("not a distribution: all arms have probability 0")
        i = int(positive[-1])
    return i


def delayed_copy_advance(
    pipeline: tuple, incoming=None, arms: int | None = None
) -> tuple[np.ndarray, tuple]:
    """One relay step for an agent that copies its origin's distribution.

    Called once per round with ``incoming`` = the distribution carried by the
    message that just arrived; returns (distribution to play this round,
    pipeline for the next round).  A distribution received at round t is
    played at round t+1: the round-(t+1) call returns it as soon as it
    reaches the queue head, immediately when nothing is staged ahead of it.
    Before the first message exists pass ``incoming=None`` (``arms``
    required) and the play falls back to uniform.
    """
    queue = tuple(pipeline)
    if incoming is not None:
        queue = (*queue, np.asarray(incoming, dtype=float))
    if not queue:
        if arms is None:
            raise ValueError("empty relay with no incoming needs arms for the uniform fallback")
        return uniform_distribution(arms), ()
    return queue[0], queue[1:]

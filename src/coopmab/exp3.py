"""Exponential-weights bandit engine with cooperative importance weighting.

Weights live in log space, renormalized (max log-weight subtracted) on
every update, so long horizons never overflow.  Arm i's loss estimate is
loss / observe_prob when a closed-neighborhood member played i this
round, else 0; observe_prob = 1 - P(nobody in the neighborhood drew i).
"""

from __future__ import annotations

import math

import numpy as np

DISTRIBUTION_TOL = 1e-12


class ArmsTooFewError(ValueError):
    """Every component of the system needs at least two arms."""


class ZeroObservationProbabilityError(ValueError):
    pass


class NonFiniteEstimateError(ValueError):
    """Raised only by the simulation kernel's once-per-block log-weight check."""


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


def probs_from_log_weights(log_weights: np.ndarray, out=None, work=None, row=None) -> np.ndarray:
    """Distributions over the last axis: exp of the log-weights, normalized.

    ``out``, ``work`` and ``row`` are as in ``exp3_update_raw``."""
    w = np.exp(log_weights, out=work)
    return np.divide(w, np.add.reduce(w, axis=-1, keepdims=True, out=row), out=out)


def exp3_update_raw(log_weights: np.ndarray, learning_rate: float | np.ndarray,
                    estimates: np.ndarray, out=None, work=None, row=None) -> np.ndarray:
    """Multiply each weight by exp(-rate * estimate), then renormalize.

    Works row by row over the last axis (arms); ``learning_rate`` broadcasts
    against ``estimates``.  Optional arrays, made when omitted: ``out``
    takes the result (it may be ``log_weights``), ``work`` (its shape) and
    ``row`` (last axis 1) are scratch.  Callers own shape checks and
    finiteness: a non-finite estimate leaves a non-finite log-weight, which
    the simulation kernel checks once per block.
    """
    lw = np.subtract(log_weights, np.multiply(learning_rate, estimates, out=work), out=out)
    lw -= np.maximum.reduce(lw, axis=-1, keepdims=True, out=row)
    return lw


def estimated_loss_vector(losses: np.ndarray, observe_probs: np.ndarray, observed: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Importance-weighted loss estimates: loss / observe_prob where observed, else 0."""
    # the minimum spares the masked test when every prob is positive
    if np.minimum.reduce(observe_probs, None) <= 0.0 and ((observe_probs <= 0.0) & observed).any():
        raise ZeroObservationProbabilityError("observed arm with zero observation probability")
    out = np.empty(np.broadcast(losses, observe_probs, observed).shape) if out is None else out
    out.fill(0.0)
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

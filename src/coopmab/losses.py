"""Oblivious loss processes: the full loss matrix depends only on its own seed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import exp3


@dataclass(frozen=True)
class LossOracle:
    """Oblivious loss process: the full matrix depends only on its own seed."""

    kind: str
    arms: int
    seed: int = 0
    means: tuple[float, ...] | None = None
    table: np.ndarray | None = None
    switches: tuple[tuple[int, int], ...] | None = None

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Losses for global steps start+1..stop, shape (stop - start, arms), values in [0, 1].

        A pure function of the step numbers (a Bernoulli oracle re-seeds and
        skips ahead on every call): rows(a, c) is rows(a, b) followed by
        rows(b, c).  ``stream`` reads the steps in order more cheaply.
        """
        if not 0 <= start <= stop:
            raise ValueError(f"need 0 <= start <= stop, got {start}, {stop}")
        steps = stop - start
        if self.kind == "bernoulli":
            rng = np.random.default_rng(self.seed)
            # PCG64 spends one 64-bit output per double: skip the earlier rows
            rng.bit_generator.advance(start * self.arms)
            draws = rng.random((steps, self.arms))
            return (draws < np.asarray(self.means)).astype(float)
        if self.kind == "matrix":
            if self.table.shape[0] < stop:
                raise ValueError(
                    f"loss table has {self.table.shape[0]} rows, run needs {stop}"
                )
            return np.array(self.table[start:stop], dtype=float)
        if self.kind == "switch":
            favored = np.zeros(steps, dtype=np.int64)
            for first, arm in self.switches:
                if first < stop:
                    favored[max(first - start, 0):] = arm
            out = np.ones((steps, self.arms))
            out[np.arange(steps), favored] = 0.0
            return out
        raise ValueError(f"unknown oracle kind {self.kind!r}")

    def stream(self, stop: int) -> Callable[[int], np.ndarray]:
        """A reader of steps 1..stop: each call read(m) returns the next m rows, so its
        blocks, joined, equal rows(0, stop) bit for bit.  A table shorter than the
        run fails here.  A Bernoulli reader draws on from one generator."""
        self.rows(stop - 1, stop)
        if self.kind == "bernoulli":
            rng, means = np.random.default_rng(self.seed), np.asarray(self.means)
            return lambda m: (rng.random((m, self.arms)) < means).astype(float)
        done = 0

        def read(m: int) -> np.ndarray:
            nonlocal done
            done += m
            return self.rows(done - m, done)
        return read


def bernoulli_losses(means: Sequence[float], seed: int) -> LossOracle:
    means = tuple(float(m) for m in means)
    if len(means) < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 means, got {len(means)}")
    if any(not 0.0 <= m <= 1.0 for m in means):
        raise ValueError(f"means must lie in [0, 1], got {means}")
    return LossOracle(kind="bernoulli", arms=len(means), seed=seed, means=means)


def matrix_losses(table) -> LossOracle:
    arr = np.array(table, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(f"loss table must be steps x arms with arms >= 2, got {arr.shape}")
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails both
        raise ValueError("loss table entries must lie in [0, 1]")
    arr.setflags(write=False)
    return LossOracle(kind="matrix", arms=arr.shape[1], table=arr)


def switching_losses(switches: Sequence[tuple[int, int]], arms: int) -> LossOracle:
    if arms < 2:
        raise exp3.ArmsTooFewError(f"need at least 2 arms, got {arms}")
    sw = sorted((int(s), int(a)) for s, a in switches)
    if not sw or sw[0][0] != 0:
        raise ValueError("first switch must start at step 0")
    for (step, _), (nxt, _) in zip(sw, sw[1:]):
        if step == nxt:
            raise ValueError(f"two switches at step {step}")
    for _, arm in sw:
        if not 0 <= arm < arms:
            raise ValueError(f"switch arm {arm} outside 0..{arms - 1}")
    return LossOracle(kind="switch", arms=arms, switches=tuple(sw))

"""Randomized self-check suites, runnable from the CLI as ``coopmab validate``.

Each suite re-derives expected behavior through an independent route
(one-step bounds, empirical frequencies) and compares the library
against it on a seeded batch of random instances.  Only the properties
no unit test already checks live here.  Instance counts are fixed per
suite and stated in the docstrings, so a suite is a reproducible
function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exp3
from .partition import CheckResult


@dataclass
class SuiteReport:
    name: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"suite {self.name}: {'PASS' if self.ok else 'FAIL'}"]
        out += ["  " + c.line() for c in self.checks]
        return out


def exp3_suite(seed: int = 0) -> SuiteReport:
    """Weight-update laws on random states, and the sampler's frequencies.

    400 random update steps: distributions stay valid, total weight never
    grows, each arm respects the one-step floor (1 - rate*est)*p and
    ceiling 2p when rate <= 1/(2*arms), and p*estimate <= 1.  Inverse-CDF
    sampler vs. empirical frequencies on 2e4 draws.
    """
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    w = None
    for _ in range(400):
        k = int(rng.integers(2, 12))
        rate = 0.5 / (k * float(rng.uniform(1.0, 4.0)))
        lw = rng.normal(0.0, 1.0, size=k)
        lw -= lw.max()
        p = exp3.probs_from_log_weights(lw)
        est = rng.random(k) * np.where(rng.random(k) < 0.5, 0.0, 1.0) / np.maximum(p, 0.2)
        est = np.minimum(est, 1.0 / np.maximum(p, 1e-9))  # keep p*est <= 1 like real runs
        q = exp3.probs_from_log_weights(exp3.exp3_update_raw(lw, rate, est))
        if not exp3.is_distribution(q):
            w = f"invalid distribution after update (K={k})"
            break
        if float(np.dot(p, np.exp(-rate * est))) > 1.0 + 1e-12:
            w = "total weight grew on a non-negative estimate"
            break
        if np.any(p * est > 1.0 + 1e-9):
            w = "p*estimate exceeded 1 in test construction"
            break
        lo = (1.0 - rate * est) * p
        if np.any(q < lo * (1 - 1e-9) - 1e-15) or np.any(q > 2.0 * p * (1 + 1e-9) + 1e-15):
            w = f"one-step sandwich violated (K={k})"
            break
    checks.append(CheckResult("update-sandwich-and-validity", w is None, w))

    p = np.array([0.1, 0.0, 0.5, 0.4])
    counts = np.zeros(4)
    for d in rng.random(20_000):
        counts[exp3.sample_action(p, float(d))] += 1
    freq = counts / counts.sum()
    se = np.sqrt(p * (1 - p) / counts.sum())
    ok = counts[1] == 0 and np.all(np.abs(freq - p) <= 5 * se + 1e-12)
    checks.append(
        CheckResult(
            "sampler-frequencies",
            bool(ok),
            None if ok else f"frequencies {np.round(freq, 4).tolist()} vs {p.tolist()}",
        )
    )
    return SuiteReport("exp3", checks)


SUITES = {"exp3": exp3_suite}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)

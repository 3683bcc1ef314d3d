"""Randomized self-check suites, runnable from the CLI as ``coopmab validate``.

Each suite re-derives expected behavior through an independent route
(boolean reachability matrices, one-step bounds, empirical frequencies)
and compares the library against it on a seeded batch of random
instances.  Only the properties no unit test already checks live here.
Instance counts are fixed per suite and stated in the docstrings, so a
suite is a reproducible function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exp3
from .graph import Graph, is_r_independent, is_r_mis, random_connected_graph
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


def _reach_within(g: Graph, r: int) -> np.ndarray:
    """Boolean matrix: True where nodes are within distance r (matrix-power route)."""
    n = g.node_count
    a = np.eye(n, dtype=bool)
    a[g.rows(), g.csr[1]] = True
    reach = a.copy()
    for _ in range(r - 1):
        reach = reach @ a
    return reach


def _oracle_independent(reach: np.ndarray, nodes: set[int]) -> bool:
    members = sorted(nodes)
    return not any(
        reach[u, w] for i, u in enumerate(members) for w in members[i + 1 :]
    )


def _oracle_mis(reach: np.ndarray, cand: set[int], univ: set[int]) -> bool:
    if not cand <= univ or not _oracle_independent(reach, cand):
        return False
    return all(any(reach[u, w] for w in cand) for u in univ - cand)


def graph_oracle_suite(seed: int = 0) -> SuiteReport:
    """r-independence and r-maximality (r in {1, 2}) vs. boolean reachability.

    30 random connected graphs (2..16 nodes, mixed density): 12 random
    subsets each against the independence oracle; per r, a greedy-built
    maximal set must be accepted, the same set minus one member rejected,
    and a random subset judged as the oracle judges it.
    """
    rng = np.random.default_rng(seed)
    w = None
    for _ in range(30):
        n = int(rng.integers(2, 17))
        g = random_connected_graph(n, float(rng.random()) * 0.5, rng)
        reach = {r: _reach_within(g, r) for r in (1, 2)}
        for _ in range(12):
            size = int(rng.integers(1, n + 1))
            sub = set(rng.choice(n, size=size, replace=False).tolist())
            for r in (1, 2):
                if is_r_independent(g, sub, r) != _oracle_independent(reach[r], sub):
                    w = f"{r}-independence disagrees with reachability on {sorted(sub)}"
                    break
            if w:
                break
        if w:
            break
        for r in (1, 2):
            # greedy over a shuffled order is maximal by construction
            order = list(rng.permutation(n))
            univ = set(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
            taken: set[int] = set()
            for v in order:
                if v in univ and not any(reach[r][v, u] for u in taken):
                    taken.add(v)
            if not is_r_mis(g, taken, univ, r):
                w = f"greedy {r}-MIS rejected: {sorted(taken)} in {sorted(univ)}"
                break
            # dropping one member re-opens room for it, so maximality must fail
            if taken and is_r_mis(g, set(sorted(taken)[:-1]), univ, r):
                w = f"non-maximal set accepted at r={r}"
                break
            rand_sub = set(rng.choice(n, size=max(1, n // 3), replace=False).tolist())
            if is_r_mis(g, rand_sub, univ, r) != _oracle_mis(reach[r], rand_sub, univ):
                w = f"r-MIS disagrees with reachability oracle on {sorted(rand_sub)}"
                break
        if w:
            break
    return SuiteReport("graph-oracles", [CheckResult("r-independence-and-mis", w is None, w)])


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


SUITES = {
    "graph-oracles": graph_oracle_suite,
    "exp3": exp3_suite,
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)

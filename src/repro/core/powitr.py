"""Distributed Power Iteration (paper §3.1).

Each superstep computes ``γ ← (1−α)·γ·P`` and accumulates ``π += α·γ``: a
threshold-0 push superstep, whose frontier is the whole support of ``γ``.
By Eq. (6) the ℓ1 error after ``j`` iterations is exactly ``(1−α)^j``, so
the loop bound is analytic — a final aggregate reports it. SimFwdPush runs
the same loop (Lemma 4.1) and differs only in how it counts edge pushes.
"""
from __future__ import annotations

import math

from repro.core.common import MAX_SUPERSTEPS, PPRResult, PushState, frontier_stats, superstep
from repro.graphs.graph import Graph


def iterate(
    g: Graph,
    s: int,
    algorithm: str,
    *,
    alpha: float,
    lam: float,
    local_pushes: bool,
    max_supersteps: int = MAX_SUPERSTEPS,
) -> PPRResult:
    """``⌈log λ / log(1−α)⌉`` threshold-0 supersteps. With ``local_pushes``
    a stats action before each charges ``Σ deg`` over the residue support
    (SimFwdPush); without it every superstep is charged ``m`` (PowItr)."""
    st = PushState(g, s, alpha=alpha, max_supersteps=max_supersteps)
    for _ in range(math.ceil(math.log(lam) / math.log(1.0 - alpha))):
        if local_pushes:
            frontier_stats(st, 0.0)
        superstep(st)
    return st.result(algorithm)


def powitr(g: Graph, s: int, *, alpha: float = 0.2, lam: float = 1e-6) -> PPRResult:
    """Run distributed PowItr until ``‖π̂−π‖₁ ≤ lam``."""
    return iterate(g, s, "PowItr", alpha=alpha, lam=lam, local_pushes=False)

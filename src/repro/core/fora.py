"""FORA and FORA+ (Wang et al., KDD'17) — the approximate-SSPPR baseline.

Phase 1: FwdPush with ``r_max = 1/√(m·W)`` (the balance point of the
``O(1/r_max + m·r_max·W)`` cost, §6.1). Phase 2: for each node with
positive residue, ``W_v = ⌈r·W⌉`` α-walks (Eq. 13/14). FORA+ reads the
walks from a pre-built ε-dependent index instead of simulating.
"""
from __future__ import annotations

import math
import time

from repro.core.approx_common import refine_with_walks
from repro.core.common import PPRResult, ppr_result
from repro.core.fwdpush import fifo_fwdpush
from repro.core.montecarlo import monte_carlo, num_walks
from repro.core.walk_index import WalkIndex
from repro.graphs.graph import Graph


def fora(
    g: Graph,
    s: int,
    *,
    eps: float,
    mu: float | None = None,
    alpha: float = 0.2,
    seed: int = 0,
    index: WalkIndex | None = None,
) -> PPRResult:
    """Answer an Approx-SSPPR query; pass ``index`` for FORA+."""
    t0 = time.perf_counter()
    mu = 1.0 / g.n if mu is None else mu
    W = num_walks(g.n, eps, mu)
    if g.m >= W:
        # the paper's wlog m < W note: plain MonteCarlo is already O(W)
        return monte_carlo(g, s, eps=eps, mu=mu, alpha=alpha, seed=seed)
    r_max = 1.0 / math.sqrt(g.m * W)
    push = fifo_fwdpush(g, s, alpha=alpha, r_max=r_max)
    pi, walks_used = refine_with_walks(
        g, s, push.pi, push.r, W, alpha=alpha, seed=seed, index=index
    )
    return ppr_result(
        "FORA+" if index is not None else "FORA", t0, pi, push.r, push.stats,
        num_walks=W, walks_used=walks_used, r_max=r_max,
    )

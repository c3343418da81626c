"""SpeedPPR (paper §6.2, Algorithm 4).

Phase 1 replaces FORA's FwdPush with **PowerPush** at ``λ = m/W``, refined
until no node is active w.r.t. ``r_max = 1/W`` — after which every node's
residue satisfies ``r(s,v) ≤ d_v/W``, so phase 2 needs ``W_v = ⌈r·W⌉ ≤
d_v`` walks per node: at most ``m`` in total, which is what makes the
ε-independent SpeedPPR index possible. Overall ``O(m·log(W/m))`` expected
time (Theorem 6.1) vs FORA's ``O(√(mW))``.
"""
from __future__ import annotations

import time

from repro.core.approx_common import refine_with_walks
from repro.core.common import PPRResult, ppr_result
from repro.core.montecarlo import monte_carlo, num_walks
from repro.core.powerpush import powerpush
from repro.core.walk_index import WalkIndex
from repro.graphs.graph import Graph


def speedppr(
    g: Graph,
    s: int,
    *,
    eps: float,
    mu: float | None = None,
    alpha: float = 0.2,
    seed: int = 0,
    index: WalkIndex | None = None,
) -> PPRResult:
    """Answer an Approx-SSPPR query; pass ``index`` for SpeedPPR-Index."""
    t0 = time.perf_counter()
    mu = 1.0 / g.n if mu is None else mu
    W = num_walks(g.n, eps, mu)
    if g.m >= W:
        return monte_carlo(g, s, eps=eps, mu=mu, alpha=alpha, seed=seed)
    lam = g.m / W
    push = powerpush(g, s, alpha=alpha, lam=lam, refine_r_max=1.0 / W)
    pi, walks_used = refine_with_walks(
        g, s, push.pi, push.r, W, alpha=alpha, seed=seed, index=index
    )
    return ppr_result(
        "SpeedPPR-Index" if index is not None else "SpeedPPR", t0, pi, push.r, push.stats,
        num_walks=W, walks_used=walks_used, lam=lam,
    )

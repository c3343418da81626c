"""ResAcc-lite (Lin et al., ICDE'20) — FORA accelerated by source-residue
accumulation.

ResAcc's observation: residue that flows *back to the source* would spawn
walks distributed exactly like π_s itself, so it can be handled
deterministically instead of sampled. We run the FwdPush phase with the
source **excluded from the frontier after its initial push**, letting its
returned residue ``R_s`` accumulate; by the push invariant
``π = π̂ + Σ_v r(v)·π^{(v)}`` and ``π^{(s)} = π`` this gives

    π = (π̂ + Σ_{v≠s} r(v)·π^{(v)}) / (1 − R_s),

so phase 2 only samples the non-source residues and the final estimate is
rescaled — fewer walks for the same guarantee, which is the paper's
reported speed-up over FORA.
"""
from __future__ import annotations

import math
import time

from pyspark.sql import functions as F

from repro.core.approx_common import refine_with_walks
from repro.core.common import (
    MAX_SUPERSTEPS,
    PPRResult,
    PushState,
    frontier_stats,
    ppr_result,
    superstep,
    trickle_size,
)
from repro.core.driver_tail import finish_on_driver
from repro.core.montecarlo import monte_carlo, num_walks
from repro.graphs.graph import Graph


def resacc(
    g: Graph,
    s: int,
    *,
    eps: float,
    mu: float | None = None,
    alpha: float = 0.2,
    seed: int = 0,
    max_supersteps: int = MAX_SUPERSTEPS,
) -> PPRResult:
    """Answer an Approx-SSPPR query with source-residue accumulation."""
    t0 = time.perf_counter()
    mu = 1.0 / g.n if mu is None else mu
    W = num_walks(g.n, eps, mu)
    if g.m >= W:
        return monte_carlo(g, s, eps=eps, mu=mu, alpha=alpha, seed=seed)
    r_max = 1.0 / math.sqrt(g.m * W)
    st = PushState(g, s, alpha=alpha, max_supersteps=max_supersteps)
    trickle = trickle_size(g.n)
    exclude = None  # the source's own first push
    while True:
        _, n_active, _ = frontier_stats(st, r_max, exclude)
        if n_active == 0:
            break
        if exclude is not None and n_active <= trickle:
            # sparse tail: drain on the driver (source still excluded)
            st.absorb(finish_on_driver(g, s, st.pi, st.r, r_max, alpha, exclude=s))
            break
        superstep(st, r_max, exclude)
        # from now on the source's residue accumulates instead of being re-pushed
        exclude = s
    push = st.result("ResAcc")

    r_s_row = push.r.where(F.col("node") == s).collect()
    r_s = float(r_s_row[0]["r"]) if r_s_row else 0.0
    r_no_s = push.r.where(F.col("node") != s)
    pi_refined, walks_used = refine_with_walks(
        g, s, push.pi, r_no_s, W, alpha=alpha, seed=seed, index=None
    )
    scale = 1.0 / (1.0 - r_s)
    pi_final = pi_refined.select("node", (F.col("pi") * F.lit(scale)).alias("pi")).cache()
    pi_final.count()
    return ppr_result(
        "ResAcc", t0, pi_final, push.r, push.stats,
        num_walks=W, walks_used=walks_used, source_residue=r_s,
    )

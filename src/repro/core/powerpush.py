"""Distributed PowerPush (paper Algorithm 3).

Phases, mirroring the paper:

1. **Queue (local) phase** — frontier supersteps with the final threshold
   ``r_max = λ/m``, while the frontier stays small (≤ ``scanThreshold``,
   default ``n/4``) and the ℓ1 error is above λ. In the distributed
   setting this touches only the active nodes' adjacency (a sparse join).
2. **Scan (global) phase with dynamic ℓ1 thresholds** — ``epochNum``
   epochs; epoch ``i`` pushes with the *relaxed* threshold
   ``r'_max = λ^{i/epochNum}/m`` until ``r_sum ≤ m·r'_max``. Relaxing the
   threshold lets low-benefit nodes accumulate residue before being
   pushed, cutting the number of supersteps and pushes (the paper's
   "dynamic ℓ1-error threshold" optimisation). An epoch whose active
   frontier shrinks to a trickle is drained on the driver.
3. **Optional refinement** (Remark / SpeedPPR line 3) — pushes until *no*
   node is active w.r.t. ``refine_r_max``: Lemma 4.5's ``O(m)`` sparse
   tail, run as a driver-side queue.

The single-machine distinction between random access and a cache-friendly
sequential scan has no dataflow analogue; what survives — and is measured —
is the frontier-size-dependent choice between sparse-join supersteps and
relaxed-threshold bulk supersteps.
"""
from __future__ import annotations

from repro.core.common import (
    MAX_SUPERSTEPS,
    PPRResult,
    PushState,
    frontier_stats,
    superstep,
    trickle_size,
)
from repro.core.driver_tail import finish_on_driver
from repro.graphs.graph import Graph

EPOCH_NUM_DEFAULT = 8


def powerpush(
    g: Graph,
    s: int,
    *,
    alpha: float = 0.2,
    lam: float = 1e-6,
    epoch_num: int = EPOCH_NUM_DEFAULT,
    scan_threshold: int | None = None,
    refine_r_max: float | None = None,
    max_supersteps: int = MAX_SUPERSTEPS,
) -> PPRResult:
    """Run distributed PowerPush to ℓ1 error ≤ ``lam``."""
    if scan_threshold is None:
        scan_threshold = max(1, g.n // 4)
    r_max = lam / g.m
    st = PushState(g, s, alpha=alpha, max_supersteps=max_supersteps)

    # ---- phase 1: queue mode ----
    queue_steps = 0
    while True:
        r_sum, n_active, _ = frontier_stats(st, r_max)
        if n_active == 0 or n_active > scan_threshold or r_sum <= lam:
            break
        superstep(st, r_max)
        queue_steps += 1

    # ---- phase 2: scan mode with dynamic thresholds ----
    if r_sum > lam:
        trickle = trickle_size(g.n)
        for i in range(1, epoch_num + 1):
            r_max_i = lam ** (i / epoch_num) / g.m
            while True:
                # r_sum does not depend on the threshold: an epoch whose
                # target the known r_sum already meets needs no action
                if st.r_sum is not None and st.r_sum <= g.m * r_max_i:
                    break
                r_sum, n_active, _ = frontier_stats(st, r_max_i)
                if r_sum <= g.m * r_max_i or n_active == 0:
                    break
                if n_active <= trickle:
                    st.absorb(finish_on_driver(g, s, st.pi, st.r, r_max_i, alpha))
                    break
                superstep(st, r_max_i)

    # ---- phase 3: optional refinement to a no-active state ----
    if refine_r_max is not None:
        st.absorb(finish_on_driver(g, s, st.pi, st.r, refine_r_max, alpha))

    return st.result("PowerPush", queue_supersteps=queue_steps, r_max=r_max)

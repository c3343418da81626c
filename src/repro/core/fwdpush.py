"""Distributed Forward Push.

Two variants:

* :func:`fifo_fwdpush` — the paper's Algorithm 2 in its *iteration*
  formulation (§4.2): the frontier ``S^(j)`` is the set of active nodes
  (``r > d·r_max``) at the start of superstep ``j+1``, all of which are
  pushed in that superstep. In a bulk-synchronous dataflow this is the
  faithful parallel form of the FIFO queue — the paper's Theorem 4.3
  analysis is stated over exactly these iterations.
* :func:`sim_fwdpush` — SimFwdPush (§4.1): ``r_max = 0``, i.e. every node
  holding residue is pushed each superstep; provably identical to PowItr
  (Lemma 4.1), so it runs PowItr's loop and only counts pushes locally.
"""
from __future__ import annotations

from repro.core.common import MAX_SUPERSTEPS, PPRResult, PushState, frontier_stats, superstep
from repro.core.driver_tail import finish_on_driver
from repro.core.powitr import iterate
from repro.graphs.graph import Graph


def fifo_fwdpush(
    g: Graph,
    s: int,
    *,
    alpha: float = 0.2,
    r_max: float | None = None,
    lam: float = 1e-6,
    max_supersteps: int = MAX_SUPERSTEPS,
) -> PPRResult:
    """Frontier-synchronous FwdPush; terminates when no node is active.

    Defaults to ``r_max = lam/m`` so Eq. (7) guarantees ℓ1 error ≤ ``lam``.
    """
    if r_max is None:
        r_max = lam / g.m
    st = PushState(g, s, alpha=alpha, max_supersteps=max_supersteps)
    lam_target = g.m * r_max  # the Eq. 7 ℓ1 target; past it the frontier
    # is a sparse trickle — Lemma 4.5's O(m) tail, drained on the driver
    while True:
        r_sum, n_active, _ = frontier_stats(st, r_max)
        if n_active == 0:
            break
        if r_sum <= lam_target:
            st.absorb(finish_on_driver(g, s, st.pi, st.r, r_max, alpha))
            break
        superstep(st, r_max)
    return st.result("FIFO-FwdPush", r_max=r_max)


def sim_fwdpush(
    g: Graph, s: int, *, alpha: float = 0.2, lam: float = 1e-6, max_supersteps: int = MAX_SUPERSTEPS
) -> PPRResult:
    """SimFwdPush: push *every* node with non-zero residue each superstep,
    until ``r_sum = (1−α)^j ≤ lam``. Numerically identical to PowItr."""
    return iterate(
        g, s, "SimFwdPush", alpha=alpha, lam=lam, local_pushes=True, max_supersteps=max_supersteps
    )

"""Vectorized α-random-walk simulation over a CSR adjacency.

One call simulates a *batch* of walks entirely in numpy: at every step each
alive walk stops with probability α, otherwise moves to a uniformly random
out-neighbour (dead ends jump back to the query source ``s`` — paper §2).

The same kernel backs both the single-machine Monte-Carlo oracle and the
distributed simulator in :mod:`repro.core.montecarlo`, where it runs inside
``mapInPandas`` over a broadcast CSR.
"""
from __future__ import annotations

import numpy as np

from repro.linalg.csr import CSR

#: walks surviving this many steps carry (1-α)^130 ≈ 3e-13 of the mass — the
#: forced stop at the cap is far below every tolerance used in this repo.
MAX_STEPS_DEFAULT = 130


def simulate_endpoints(
    csr: CSR,
    s: int | None,
    starts: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    max_steps: int = MAX_STEPS_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of ``len(starts)`` α-random walks (one per entry), and
    which of them are ``pending``.

    A walk that is at a dead end and moves jumps back to the source ``s``.
    With ``s=None`` (walk indexes, built before any source is known) it is
    frozen at the dead end and flagged pending instead; at query time one
    fresh α-walk from the actual source finishes each pending walk (the
    continuation's law is exactly the walk-from-s law, so the estimate
    stays unbiased). With ``s`` given no walk is pending.
    """
    cur = np.asarray(starts, dtype=np.int64).copy()
    alive = np.ones(cur.size, dtype=bool)
    pending = np.zeros(cur.size, dtype=bool)
    indptr, indices = csr.indptr, csr.indices
    for _ in range(max_steps):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        stop = rng.random(idx.size) < alpha
        alive[idx[stop]] = False
        moving = idx[~stop]
        dead = indptr[cur[moving] + 1] == indptr[cur[moving]]
        if s is None:
            pending[moving[dead]] = True
            alive[moving[dead]] = False
            moving, dead = moving[~dead], dead[~dead]
        if moving.size == 0:
            continue
        v = cur[moving]
        deg = indptr[v + 1] - indptr[v]
        choice = (rng.random(moving.size) * np.where(dead, 1, deg)).astype(np.int64)
        pos = np.minimum(indptr[v] + choice, indices.size - 1) if indices.size else np.zeros_like(choice)
        nxt = indices[pos] if indices.size else np.full(moving.size, s, dtype=np.int64)
        cur[moving] = nxt if s is None else np.where(dead, s, nxt)
    return cur, pending

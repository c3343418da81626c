"""Instrumented single-machine reference implementations.

These follow the paper's pseudo-code *letter by letter* (Algorithm 1's FIFO
variant = Algorithm 2, SimFwdPush of §4.1, PowItr of §3.1, PowerPush =
Algorithm 3), with counters for **edge pushes** ("residue updates": a push
on ``v`` counts ``d_v``), iteration counts, and an ``(edge_pushes, r_sum)``
trace. They are used

* as the workload for the machine-independent op-count experiments
  (the paper's Figures 5/6, reproduced as Table F6), and
* as oracles for the distributed implementations in :mod:`repro.core`.

Every function takes a :class:`repro.linalg.csr.CSR` plus the source ``s``
and returns ``(pi, r, stats)`` where ``pi`` is the reserve (estimate)
vector, ``r`` the residue vector, and ``stats`` a :class:`RunStats`.
Dead-end mass is routed to ``s`` (paper §2).
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.linalg.csr import CSR


@dataclass
class RunStats:
    """Counters shared by all reference algorithms."""

    algorithm: str
    edge_pushes: int = 0
    iterations: int = 0
    wall_time: float = 0.0
    #: samples of (cumulative edge pushes, r_sum) — the Fig 5/6 curves
    trace: list[tuple[int, float]] = field(default_factory=list)


def _trace_every(m: int) -> int:
    # the paper samples every 4·m edge pushes; we sample every m for denser
    # curves on the small stand-ins (recorded next to the paper's grid in
    # EXPERIMENTS.md)
    return max(1, m)


# ----------------------------------------------------------------------
# Power Iteration (§3.1)
# ----------------------------------------------------------------------
def powitr(csr: CSR, s: int, alpha: float = 0.2, lam: float = 1e-8) -> tuple[np.ndarray, np.ndarray, RunStats]:
    """Vanilla PowItr: dense iterations ``γ ← (1−α)·γ·P``, ``π += α·γ``.

    As a *global* method each iteration touches all ``m`` edges, so each
    iteration adds ``m`` to the edge-push counter (this is what makes
    PowItr's Fig-6 curve lie right of FwdPush's).
    """
    t0 = time.perf_counter()
    stats = RunStats("PowItr")
    gamma = np.zeros(csr.n)
    gamma[s] = 1.0
    pi = np.zeros(csr.n)
    r_sum = 1.0
    while r_sum > lam:
        pi += alpha * gamma
        gamma = csr.push_step(gamma, alpha, s)
        r_sum = float(gamma.sum())
        stats.iterations += 1
        stats.edge_pushes += csr.m
        stats.trace.append((stats.edge_pushes, r_sum))
    stats.wall_time = time.perf_counter() - t0
    return pi, gamma, stats


# ----------------------------------------------------------------------
# Simultaneous Forward Push (§4.1) — provably ≡ PowItr (Lemma 4.1)
# ----------------------------------------------------------------------
def sim_fwdpush(csr: CSR, s: int, alpha: float = 0.2, lam: float = 1e-8) -> tuple[np.ndarray, np.ndarray, RunStats]:
    """SimFwdPush: per iteration, push **every node with non-zero residue**
    simultaneously (``r_max = 0``). Identical vectors to PowItr, but the
    push counter only charges the degrees of nodes actually holding
    residue — the *local* accounting."""
    t0 = time.perf_counter()
    stats = RunStats("SimFwdPush")
    d_eff = csr.effective_degrees()
    r = np.zeros(csr.n)
    r[s] = 1.0
    pi = np.zeros(csr.n)
    r_sum = 1.0
    while r_sum > lam:
        nz = r > 0.0
        stats.edge_pushes += int(d_eff[nz].sum())
        pi += alpha * r
        r = csr.push_step(r, alpha, s)
        r_sum = float(r.sum())
        stats.iterations += 1
        stats.trace.append((stats.edge_pushes, r_sum))
    stats.wall_time = time.perf_counter() - t0
    return pi, r, stats


# ----------------------------------------------------------------------
# The one FIFO push body
# ----------------------------------------------------------------------
class _PushBody:
    """Push one node in place, for every queue and scan loop below.

    A push of ``v`` moves ``α·r(v)`` to ``π(v)`` and shares ``(1−α)·r(v)``
    over its out-edges (a dead end has one virtual edge back to ``s``).
    Given a queue, it then enqueues each target made active w.r.t.
    ``threshold``, except ``exclude`` (a node whose residue accumulates
    instead of being pushed — ResAcc's source).
    """

    def __init__(self, csr: CSR, s: int, alpha: float, pi: np.ndarray, r: np.ndarray) -> None:
        self.s, self.alpha, self.pi, self.r = s, alpha, pi, r
        self.indptr, self.indices = csr.indptr, csr.indices
        self.d_true = csr.out_degrees()
        self.d_eff = csr.effective_degrees()
        self.in_q = np.zeros(csr.n, dtype=bool)

    def new_queue(self, nodes) -> deque[int]:
        self.in_q[:] = False
        q: deque[int] = deque(int(v) for v in nodes)
        self.in_q[list(q)] = True
        return q

    def pop(self, q: deque[int]) -> int:
        v = q.popleft()
        self.in_q[v] = False
        return v

    def __call__(
        self, v: int, threshold: float, q: deque[int] | None = None, exclude: int | None = None
    ) -> tuple[float, int]:
        """Push ``v``; returns ``(r(v) before the push, edge pushes)``."""
        r = self.r
        rv = r[v]
        self.pi[v] += self.alpha * rv
        r[v] = 0.0  # zero first: a dead end v may be s (virtual self-loop)
        if self.d_true[v] == 0:
            targets, pushes = np.array([self.s]), 1
            r[self.s] += (1.0 - self.alpha) * rv
        else:
            targets, pushes = self.indices[self.indptr[v] : self.indptr[v + 1]], int(self.d_true[v])
            r[targets] += (1.0 - self.alpha) * rv / self.d_true[v]  # distinct (edges deduplicated)
        if q is not None:
            newly = targets[(r[targets] > self.d_eff[targets] * threshold) & ~self.in_q[targets]]
            for u in np.unique(newly):
                if u != exclude:
                    q.append(int(u))
                    self.in_q[u] = True
        return rv, pushes


# ----------------------------------------------------------------------
# FIFO Forward Push (Algorithm 2)
# ----------------------------------------------------------------------
def fifo_fwdpush(
    csr: CSR,
    s: int,
    alpha: float = 0.2,
    r_max: float | None = None,
    lam: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, RunStats]:
    """Algorithm 2 verbatim: FIFO queue, asynchronous in-place pushes,
    terminate when no node has ``r > d·r_max``. Default ``r_max = λ/m``
    (so the ℓ1 bound Eq. 7 gives ``‖π̂−π‖₁ ≤ λ``)."""
    t0 = time.perf_counter()
    if r_max is None:
        r_max = lam / csr.m
    stats = RunStats("FIFO-FwdPush")
    r = np.zeros(csr.n)
    r[s] = 1.0
    pi = np.zeros(csr.n)
    r_sum = 1.0
    push = _PushBody(csr, s, alpha, pi, r)
    q = push.new_queue([s])
    sample_every = _trace_every(csr.m)
    next_sample = sample_every
    while q:
        rv, pushes = push(push.pop(q), r_max, q)
        r_sum -= alpha * rv
        stats.edge_pushes += pushes
        if stats.edge_pushes >= next_sample:
            stats.trace.append((stats.edge_pushes, r_sum))
            next_sample += sample_every
    stats.trace.append((stats.edge_pushes, max(r_sum, 0.0)))
    stats.iterations = 0  # iteration structure implicit in FIFO order
    stats.wall_time = time.perf_counter() - t0
    return pi, r, stats


def fifo_finish(
    csr: CSR,
    s: int,
    alpha: float,
    r_max: float,
    pi: np.ndarray,
    r: np.ndarray,
    exclude: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Finish an arbitrary push state with FIFO pushes until **no node is
    active** w.r.t. ``r_max`` — the Lemma 4.5 O(m) tail. Used by the
    distributed algorithms to process sparse frontiers locally (the
    paper's local/global unification, applied to the cluster/driver
    split). ``exclude`` marks a node whose residue accumulates instead of
    being pushed (ResAcc's source). Returns ``(pi, r, edge_pushes)``;
    inputs are not mutated."""
    pi = pi.copy()
    r = r.copy()
    push = _PushBody(csr, s, alpha, pi, r)
    q = push.new_queue(v for v in np.flatnonzero(r > push.d_eff * r_max) if v != exclude)
    pushes = 0
    while q:
        pushes += push(push.pop(q), r_max, q, exclude)[1]
    return pi, r, pushes


# ----------------------------------------------------------------------
# PowerPush (Algorithm 3)
# ----------------------------------------------------------------------
def powerpush(
    csr: CSR,
    s: int,
    alpha: float = 0.2,
    lam: float = 1e-8,
    epoch_num: int = 8,
    scan_threshold: int | None = None,
    refine_r_max: float | None = None,
) -> tuple[np.ndarray, np.ndarray, RunStats]:
    """Algorithm 3 verbatim: FIFO queue phase until the queue outgrows
    ``scanThreshold = n/4``, then ``epochNum`` sequential-scan epochs with
    the dynamic threshold ``r'_max = λ^{i/epochNum}/m`` (asynchronous
    in-place pushes during the scan, as in the paper's implementation).

    ``refine_r_max`` (the paper's Remark / SpeedPPR line 3): afterwards keep
    pushing (FIFO) until **no node is active** w.r.t. that threshold —
    an extra ``O(m)`` by Lemma 4.5.
    """
    t0 = time.perf_counter()
    if scan_threshold is None:
        scan_threshold = max(1, csr.n // 4)
    stats = RunStats("PowerPush")
    r = np.zeros(csr.n)
    r[s] = 1.0
    pi = np.zeros(csr.n)
    r_sum = 1.0
    r_max = lam / csr.m
    body = _PushBody(csr, s, alpha, pi, r)
    d_eff = body.d_eff
    sample_every = _trace_every(csr.m)
    next_sample = sample_every

    def _push(v: int, threshold: float, q: deque | None = None) -> None:
        nonlocal r_sum, next_sample
        rv, pushes = body(v, threshold, q)
        r_sum -= alpha * rv
        stats.edge_pushes += pushes
        if stats.edge_pushes >= next_sample:
            stats.trace.append((stats.edge_pushes, max(r_sum, 0.0)))
            next_sample += sample_every

    # ---- queue (local) phase: Algorithm 3 lines 7–13 ----
    q = body.new_queue([s])
    while q and len(q) <= scan_threshold and r_sum > lam:
        _push(body.pop(q), r_max, q)

    # ---- scan (global) phase: Algorithm 3 lines 14–24 ----
    if r_sum > lam:
        for i in range(1, epoch_num + 1):
            r_max_i = lam ** (i / epoch_num) / csr.m
            while r_sum > csr.m * r_max_i:
                active = np.flatnonzero(r > d_eff * r_max_i)
                if active.size == 0:
                    break
                for v in active:
                    # asynchronous: re-check activity (a push earlier in this
                    # scan may have raised or drained v's residue)
                    if r[v] > d_eff[v] * r_max_i:
                        _push(int(v), r_max_i)

    # ---- optional refinement to a no-active state (Remark / SpeedPPR) ----
    if refine_r_max is not None:
        q = body.new_queue(np.flatnonzero(r > d_eff * refine_r_max))
        while q:
            _push(body.pop(q), refine_r_max, q)

    stats.trace.append((stats.edge_pushes, max(r_sum, 0.0)))
    stats.wall_time = time.perf_counter() - t0
    return pi, r, stats

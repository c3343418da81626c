"""Shared machinery for the distributed SSPPR algorithms: sparse vectors and
the one push-superstep engine.

Vectors over nodes are sparse DataFrames ``(node: long, <col>: double)``;
zero coordinates are simply absent. One *push superstep* over the
graph's cached, degree-annotated adjacency ``adj = (src, dst, deg)``
(:meth:`~repro.graphs.graph.Graph.query_view`) computes

    msgs(dst) = Σ_{(src,dst) ∈ E, src pushed} (1−α) · r(src) / deg(src)

— the distributed form of Eq. (8); a dead end's ``NULL`` destination is
the source. PowItr, SimFwdPush, FIFO-FwdPush, PowerPush and ResAcc all run
this one :func:`superstep` over a :class:`PushState`; they differ only in
schedule: the threshold of each phase, the stop rule, and when the sparse
tail goes to the driver (:mod:`repro.core.driver_tail`). Lineage is
truncated with eager ``localCheckpoint``: ``r`` every superstep (it feeds
the next join), ``π`` every :data:`PI_CHECKPOINT_EVERY` supersteps (the
vectors are small; the edge relation is the big, cached side).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

if TYPE_CHECKING:
    from repro.graphs.graph import Graph

#: supersteps between eager checkpoints of π, whose union chain grows by
#: one ``vec_add`` per superstep
PI_CHECKPOINT_EVERY = 8
MAX_SUPERSTEPS = 10_000
#: the work counters of a run that pushes nothing (plain MonteCarlo)
NO_PUSHES = {"supersteps": 0, "edge_pushes": 0, "r_sum": 0.0}


@dataclass
class PPRResult:
    """Output of a distributed SSPPR run."""

    pi: DataFrame  # (node, pi) — the reserve / estimate vector, sparse
    r: DataFrame  # (node, r) — the residue vector, sparse
    stats: dict = field(default_factory=dict)

    def pi_vector(self, n: int) -> np.ndarray:
        return _to_dense(self.pi, n, "pi")

    def r_vector(self, n: int) -> np.ndarray:
        return _to_dense(self.r, n, "r")


def ppr_result(algorithm: str, t0: float, pi: DataFrame, r: DataFrame, work: dict, **extras) -> PPRResult:
    """The one stats schema: ``algorithm``, ``supersteps``, ``edge_pushes``
    and ``r_sum`` (taken from ``work``), the method's extras, ``wall_time``."""
    stats = {"algorithm": algorithm, **{k: work[k] for k in NO_PUSHES}, **extras}
    stats["wall_time"] = time.perf_counter() - t0
    return PPRResult(pi=pi, r=r, stats=stats)


def _to_dense(df: DataFrame, n: int, col: str) -> np.ndarray:
    out = np.zeros(n, dtype=np.float64)
    pdf = df.toPandas()
    if len(pdf):
        out[pdf["node"].to_numpy(np.int64)] = pdf[col].to_numpy(np.float64)
    return out


def empty_vec(spark, col: str) -> DataFrame:
    return spark.createDataFrame([], f"node long, {col} double")


def unit_vec(spark, node: int, col: str) -> DataFrame:
    return spark.createDataFrame([(int(node), 1.0)], f"node long, {col} double")


def vec_add(a: DataFrame, b: DataFrame, col: str) -> DataFrame:
    """Sparse vector sum (union + re-aggregate)."""
    return (
        a.select("node", col)
        .unionByName(b.select("node", col))
        .groupBy("node")
        .agg(F.sum(col).alias(col))
    )


def vec_scale(a: DataFrame, factor: float, col: str) -> DataFrame:
    return a.select("node", (F.col(col) * F.lit(factor)).alias(col))


def push_msgs(frontier: DataFrame, adj: DataFrame, alpha: float, s: int) -> DataFrame:
    """Messages produced by pushing every node in ``frontier`` (node, r):
    each out-neighbour receives ``(1−α)·r/deg``, and a dead end's virtual
    edge (``dst`` NULL) sends it to the source ``s``. Returns sparse (node, r)."""
    return (
        frontier.join(adj, frontier["node"] == adj["src"])
        .select(
            F.coalesce("dst", F.lit(int(s))).alias("node"),
            ((1.0 - alpha) * F.col("r") / F.col("deg")).alias("r"),
        )
        .groupBy("node")
        .agg(F.sum("r").alias("r"))
    )


def materialize(df: DataFrame) -> DataFrame:
    """Eager localCheckpoint: cuts lineage and caches the (small) vector.

    Vectors hold at most n rows; collapsing to one partition first makes
    the checkpoint and every downstream join/aggregate a single-task job.
    """
    return df.coalesce(1).localCheckpoint(eager=True)


def trickle_size(n: int) -> int:
    """Active frontiers of at most this many nodes are a sparse trickle: a
    superstep per handful of nodes wastes wall time, so the driver drains
    them — the paper's local/global switch, at the cluster/driver boundary."""
    return max(8, n // 64)


# ----------------------------------------------------------------------
# The push-superstep engine
# ----------------------------------------------------------------------
class PushState:
    """One query's push state over the graph's shared ``adj``/``deg_q``
    view: ``r = e_s`` and ``π = 0`` to start with (local relations; no job
    runs before the first push), and the superstep and edge-push counters.

    Setting ``r`` drops the :func:`frontier_stats` kept for the old vector
    and the known ``Σ r``.
    """

    def __init__(self, g: Graph, s: int, *, alpha: float, max_supersteps: int = MAX_SUPERSTEPS) -> None:
        self.t0 = time.perf_counter()
        self.g, self.s, self.alpha, self.max_supersteps = g, s, alpha, max_supersteps
        self.adj, self.deg_q = g.query_view()
        self.r = unit_vec(g.spark, s, "r")
        self.pi = empty_vec(g.spark, "pi")
        self.pi_lazy = False  # π holds additions made since its last checkpoint
        self.supersteps = 0
        self.edge_pushes = 0

    @property
    def r(self) -> DataFrame:
        return self._r

    @r.setter
    def r(self, df: DataFrame) -> None:
        self._r = df
        self.kept_stats: dict[tuple, tuple[float, int, int]] = {}  # by (threshold, exclude)
        self.r_sum: float | None = None  # Σ r, once an action or the driver has read it

    def absorb(self, tail: tuple[DataFrame, DataFrame, int, float]) -> None:
        """Take over the ``(π, r, edge_pushes, r_sum)`` a driver-side finish returned."""
        self.pi, self.r, pushes, r_sum = tail
        self.r_sum = r_sum
        self.pi_lazy = False
        self.edge_pushes += pushes

    def result(self, algorithm: str, **extras) -> PPRResult:
        """Checkpoint π if it is lazy and read ``r_sum`` (one aggregate
        unless already known)."""
        if self.pi_lazy:
            self.pi = materialize(self.pi)
        r_sum = self.r_sum
        if r_sum is None:
            r_sum = float(self.r.groupBy().sum("r").collect()[0][0] or 0.0)
        work = {"supersteps": self.supersteps, "edge_pushes": self.edge_pushes, "r_sum": r_sum}
        return ppr_result(algorithm, self.t0, self.pi, self.r, work, **extras)


def _is_active(threshold: float, exclude: int | None):
    """The paper's activity rule ``r(s,v) > d_v · r_max``; ``exclude`` is a
    node never pushed (ResAcc's source)."""
    active = F.col("r") > F.col("deg") * F.lit(threshold)
    return active if exclude is None else active & (F.col("node") != F.lit(int(exclude)))


def frontier_stats(state: PushState, threshold: float, exclude: int | None = None) -> tuple[float, int, int]:
    """One action returning ``(r_sum, #active nodes, Σ deg over active)``
    for the current ``r``; kept until ``r`` changes, so the superstep that
    follows reuses it."""
    key = (threshold, exclude)
    if key not in state.kept_stats:
        active = _is_active(threshold, exclude)
        row = (
            state.r.join(state.deg_q, "node")
            .agg(
                F.sum("r").alias("rs"),
                F.sum(F.when(active, 1).otherwise(0)).alias("na"),
                F.sum(F.when(active, F.col("deg")).otherwise(0)).alias("da"),
            )
            .collect()[0]
        )
        state.kept_stats[key] = (float(row["rs"] or 0.0), int(row["na"] or 0), int(row["da"] or 0))
        state.r_sum = state.kept_stats[key][0]
    return state.kept_stats[key]


def split_active(state: PushState, threshold: float, exclude: int | None = None) -> tuple[DataFrame, DataFrame]:
    """Partition ``r`` into (active, inactive) lazily."""
    joined = state.r.join(state.deg_q, "node")
    active = _is_active(threshold, exclude)
    return joined.where(active).select("node", "r"), joined.where(~active).select("node", "r")


def superstep(state: PushState, threshold: float = 0.0, exclude: int | None = None) -> None:
    """Push every active node once: ``π += α·frontier``, ``r ← rest + msgs``.

    At threshold 0 the frontier is the whole support (residues are kept
    > 0), so there is no split and no ``deg_q`` join. Such a superstep is
    charged ``Σ deg`` over the support if :func:`frontier_stats` ran for it
    (SimFwdPush's local accounting), else ``m`` (PowItr's global one).
    Raises ``RuntimeError`` once ``max_supersteps`` have run.
    """
    if state.supersteps >= state.max_supersteps:
        raise RuntimeError(f"push superstep limit ({state.max_supersteps}) hit before the stop rule held")
    alpha = state.alpha
    if threshold == 0.0 and exclude is None:
        frontier, rest = state.r, None
        known = state.kept_stats.get((0.0, None))
        pushes = known[2] if known else state.g.m
    else:
        pushes = frontier_stats(state, threshold, exclude)[2]
        frontier, rest = split_active(state, threshold, exclude)
    state.pi = vec_add(state.pi, vec_scale(frontier, alpha, "r").withColumnRenamed("r", "pi"), "pi")
    msgs = push_msgs(frontier, state.adj, alpha, state.s)
    state.r = materialize(msgs if rest is None else vec_add(rest, msgs, "r").where(F.col("r") > 0.0))
    state.supersteps += 1
    state.edge_pushes += pushes
    state.pi_lazy = state.supersteps % PI_CHECKPOINT_EVERY != 0
    if not state.pi_lazy:
        state.pi = materialize(state.pi)

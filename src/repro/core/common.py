"""Shared machinery for the distributed SSPPR algorithms: sparse vectors and
the one push-superstep engine.

Vectors over nodes are sparse DataFrames ``(node: long, <col>: double)``;
zero coordinates are simply absent. A push query holds one relation
``state = (node, r, pi)``. One *push superstep* over it and the graph's
cached, degree-annotated adjacency ``adj = (src, dst, deg)``
(:meth:`~repro.graphs.graph.Graph.query_view`) moves ``α·r`` of every
active node into ``π`` and sends

    msgs(dst) = Σ_{(src,dst) ∈ E, src pushed} (1−α) · r(src) / deg(src)

— the distributed form of Eq. (8); a dead end's ``NULL`` destination is
the source. PowItr, SimFwdPush, FIFO-FwdPush, PowerPush and ResAcc all run
this one :func:`superstep` over a :class:`PushState`; they differ only in
schedule: the threshold of each phase, the stop rule, and when the sparse
tail goes to the driver (:mod:`repro.core.driver_tail`). Each new state is
a lazy ``localCheckpoint``; the superstep's one Spark action, which reads
the stats the schedule asks for next, materialises it and so cuts the
lineage.
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


def push_msgs(frontier: DataFrame, adj: DataFrame, alpha: float, s: int, kept: DataFrame | None = None) -> DataFrame:
    """Messages produced by pushing every node in ``frontier`` (node, r):
    each out-neighbour receives ``(1−α)·r/deg``, and a dead end's virtual
    edge (``dst`` NULL) sends it to the source ``s``. Returns sparse (node, r)
    summed per node; given ``kept`` rows (node, r, pi), the same ``groupBy``
    sums them in with the messages (π 0) and returns (node, r, pi)."""
    msgs = frontier.join(adj, frontier["node"] == adj["src"]).select(
        F.coalesce("dst", F.lit(int(s))).alias("node"),
        ((1.0 - alpha) * F.col("r") / F.col("deg")).alias("r"),
        *([] if kept is None else [F.lit(0.0).alias("pi")]),
    )
    rows = msgs if kept is None else kept.unionByName(msgs)
    return rows.groupBy("node").agg(*(F.sum(c).alias(c) for c in msgs.columns[1:]))


def trickle_size(n: int) -> int:
    """Active frontiers of at most this many nodes are a sparse trickle: a
    superstep per handful of nodes wastes wall time, so the driver drains
    them — the paper's local/global switch, at the cluster/driver boundary."""
    return max(8, n // 64)


# ----------------------------------------------------------------------
# The push-superstep engine
# ----------------------------------------------------------------------
STATE_SCHEMA = "node long, r double, pi double"


class PushState:
    """One query's push state: a single relation ``state = (node, r, pi)``
    over the graph's shared ``adj``/``deg_q`` view, ``e_s`` to start with (a
    local relation; once the graph's CSR exists no job runs before the
    first push), and the superstep and edge-push counters.

    ``thresholds`` (with ``exclude``) name the activity rules whose frontier
    stats the schedule asks for between supersteps; the one action each
    superstep ends with reads them with ``Σr`` and ``Σπ``. Setting
    ``state`` drops the stats kept for the old relation.
    """

    def __init__(self, g: Graph, s: int, *, alpha: float, thresholds: tuple[float, ...] = (),
                 exclude: int | None = None, max_supersteps: int = MAX_SUPERSTEPS) -> None:
        self.t0 = time.perf_counter()
        self.g, self.s, self.alpha, self.max_supersteps = g, s, alpha, max_supersteps
        self.adj, self.deg_q = g.query_view()
        self.rules = list(dict.fromkeys((t, exclude) for t in thresholds))
        self.state = g.spark.createDataFrame([(int(s), 1.0, 0.0)], STATE_SCHEMA)
        self.sums = (1.0, 0.0)
        if self.rules:
            # e_s's stats need only d_s, from the driver's CSR; each rule is
            # also kept without ``exclude``, for ResAcc's first push of s
            d_s = g.to_csr().effective_degrees()[s]
            self.active = {
                (t, y): (1, int(d_s)) if y != s and 1.0 > d_s * t else (0, 0)
                for t, x in self.rules
                for y in (x, None)
            }
        self.supersteps = self.edge_pushes = 0

    @property
    def state(self) -> DataFrame:
        return self._state

    @state.setter
    def state(self, df: DataFrame) -> None:
        self._state = df
        self.sums: tuple[float, float] | None = None  # (Σr, Σπ), once read
        self.active: dict[tuple, tuple[int, int]] = {}  # rule -> (#active, Σ deg active)

    def absorb(self, tail: tuple[DataFrame, np.ndarray, int, np.ndarray]) -> None:
        """Take over the ``(state, π, edge_pushes, r)`` a driver-side finish
        returned; ``Σr`` and ``Σπ`` come from the dense vectors, without a job."""
        self.state, pi, pushes, r = tail
        self.edge_pushes += pushes
        self.sums = (float(r.sum()), float(pi.sum()))

    def result(self, algorithm: str, **extras) -> PPRResult:
        """The result's ``π`` and ``r`` are filters over the materialised
        state; raises if ``|Σπ̂ + Σr − 1| > 1e-9``. The sums are known
        unless ``state`` was set by hand."""
        if self.sums is None:
            read_stats(self, [])
        r_sum, pi_sum = self.sums
        if abs(pi_sum + r_sum - 1.0) > 1e-9:
            raise RuntimeError(f"mass not conserved: Σπ̂ + Σr = {pi_sum + r_sum!r}")
        work = {"supersteps": self.supersteps, "edge_pushes": self.edge_pushes, "r_sum": r_sum}
        pi, r = (self.state.where(F.col(c) > 0.0).select("node", c) for c in ("pi", "r"))
        return ppr_result(algorithm, self.t0, pi, r, work, pi_sum=pi_sum, **extras)


def _is_active(threshold: float, exclude: int | None):
    """The paper's activity rule ``r(s,v) > d_v · r_max`` (``r > 0`` at
    threshold 0, which needs no degree); ``exclude`` is a node never pushed
    (ResAcc's source)."""
    active = F.col("r") > (F.col("deg") * F.lit(threshold) if threshold else F.lit(0.0))
    return active if exclude is None else active & (F.col("node") != F.lit(int(exclude)))


def read_stats(state: PushState, rules: list[tuple]) -> None:
    """One action over ``state.state``: ``Σr``, ``Σπ`` and, per activity
    rule ``(threshold, exclude)``, ``(#active nodes, Σ deg over active)``."""
    df = state.state.join(state.deg_q, "node") if rules else state.state
    aggs = [F.sum("r"), F.sum("pi")]
    for rule in rules:
        active = _is_active(*rule)
        aggs += [F.sum(F.when(active, 1).otherwise(0)), F.sum(F.when(active, F.col("deg")).otherwise(0))]
    row = [v or 0 for v in df.agg(*aggs).collect()[0]]
    state.sums = (float(row[0]), float(row[1]))
    state.active = {rule: (int(row[2 + 2 * i]), int(row[3 + 2 * i])) for i, rule in enumerate(rules)}


def frontier_stats(state: PushState, threshold: float, exclude: int | None = None) -> tuple[float, int, int]:
    """``(r_sum, #active nodes, Σ deg over active)`` of the current state.
    The action that ended the last superstep read it if the rule is one of
    ``state.rules``; else one action reads it together with those."""
    rule = (threshold, exclude)
    if rule not in state.active:
        read_stats(state, list(dict.fromkeys([*state.rules, rule])))
    return (state.sums[0], *state.active[rule])


def superstep(state: PushState, threshold: float = 0.0, exclude: int | None = None) -> None:
    """Push every active node once: active rows become ``(node, 0, π+α·r)``
    and :func:`push_msgs` sums the messages into the kept rows. The new
    state is checkpointed lazily and materialised by the one action,
    :func:`read_stats`. At threshold 0 (no ``deg_q`` join) the superstep is
    charged ``Σ deg`` over the support if its stats are known (SimFwdPush),
    else ``m`` (PowItr). Raises ``RuntimeError`` at ``max_supersteps``."""
    if state.supersteps >= state.max_supersteps:
        raise RuntimeError(f"push superstep limit ({state.max_supersteps}) hit before the stop rule held")
    if threshold == 0.0 and exclude is None and (0.0, None) not in state.active:
        pushes = state.g.m
    else:
        pushes = frontier_stats(state, threshold, exclude)[2]
    alpha, active, r, pi = state.alpha, _is_active(threshold, exclude), F.col("r"), F.col("pi")
    cur = state.state if threshold == 0.0 else state.state.join(state.deg_q, "node")
    kept = cur.select(
        "node", F.when(active, 0.0).otherwise(r).alias("r"), F.when(active, pi + alpha * r).otherwise(pi).alias("pi")
    )
    new = push_msgs(cur.where(active).select("node", "r"), state.adj, alpha, state.s, kept)
    state.state = new.coalesce(1).localCheckpoint(eager=False)
    state.supersteps += 1
    state.edge_pushes += pushes
    read_stats(state, state.rules)

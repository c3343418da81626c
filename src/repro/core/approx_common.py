"""Shared phase-2 machinery for FORA and SpeedPPR: refine a forward-push
state ``(π̂, r)`` with α-random walks started from the residues (Eq. 13/14).

For every node ``v`` with ``r(s,v) > 0``, ``W_v = ⌈r(s,v)·W⌉`` walks are
performed (read from a :class:`~repro.core.walk_index.WalkIndex` when one
is given), each carrying weight ``r(s,v)/W_v``; the weighted endpoint mass
is added to ``π̂``. An index that holds fewer than ``Σ W_v`` of the walks
asked for raises instead of dropping mass. Pending index walks (frozen at
dead ends) are finished with fresh walks from the actual source.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.montecarlo import simulate_walks_df, weighted_endpoint_mass
from repro.core.walk_index import WalkIndex
from repro.core.common import vec_add
from repro.graphs.graph import Graph
from repro.linalg.walks import simulate_endpoints


def walk_starts(r_df: DataFrame, W: int) -> DataFrame:
    """(node, r, W_v, weight) for every node with positive residue."""
    return (
        r_df.where(F.col("r") > 0.0)
        .select(
            "node",
            "r",
            F.ceil(F.col("r") * F.lit(float(W))).cast("long").alias("W_v"),
        )
        .withColumn("weight", F.col("r") / F.col("W_v"))
    )


def refine_with_walks(
    g: Graph,
    s: int,
    pi_df: DataFrame,
    r_df: DataFrame,
    W: int,
    *,
    alpha: float = 0.2,
    seed: int = 0,
    index: WalkIndex | None = None,
) -> tuple[DataFrame, int]:
    """Return ``(π̂' as (node, pi), number of walks used)``."""
    starts = walk_starts(r_df, W).cache()
    total_walks = starts.agg(F.sum("W_v")).collect()[0][0]
    total_walks = int(total_walks or 0)
    if total_walks == 0:
        starts.unpersist()
        return pi_df, 0

    if index is None:
        seeds = starts.select(
            F.col("node").alias("start"),
            "weight",
            F.explode(F.sequence(F.lit(1), F.col("W_v"))).alias("walk_idx"),
        )
        walks = simulate_walks_df(g, seeds, s=s, alpha=alpha, seed=seed)
        contrib = weighted_endpoint_mass(walks)
    else:
        used = (
            starts.join(index.walks, starts["node"] == index.walks["start"])
            .where(F.col("walk_idx") <= F.col("W_v"))
            .select("start", "weight", "endpoint", "pending")
        ).cache()
        # one action reads the supply and the weights of the pending walks
        row = used.agg(
            F.count("*").alias("supplied"),
            F.collect_list(F.when(F.col("pending"), F.col("weight"))).alias("pend"),
        ).collect()[0]
        if row["supplied"] < total_walks:
            used.unpersist()
            starts.unpersist()
            raise RuntimeError(
                f"walk index {index.path!r} supplied {row['supplied']} of the {total_walks} walks needed"
            )
        done = weighted_endpoint_mass(used.where(~F.col("pending")))
        pend = np.asarray(row["pend"], dtype=np.float64)
        if len(pend):
            # finish frozen walks: their continuation is a fresh α-walk
            # from the query source
            rng = np.random.default_rng([seed, 777, int(s)])
            ends, _ = simulate_endpoints(
                g.to_csr(), int(s), np.full(len(pend), s, dtype=np.int64), alpha, rng
            )
            pdf = pd.DataFrame({"node": ends, "pi": pend})
            pend_df = g.spark.createDataFrame(pdf.groupby("node", as_index=False).sum())
            contrib = vec_add(done, pend_df, "pi")
        else:
            contrib = done
        used.unpersist()

    pi_final = vec_add(pi_df, contrib, "pi").cache()
    pi_final.count()
    starts.unpersist()
    return pi_final, total_walks

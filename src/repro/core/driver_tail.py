"""Driver-side finishing of sparse push frontiers.

A bulk-synchronous superstep costs the same whether the frontier holds
10,000 nodes or 3, so draining the long sparse tail (to "no node active",
as FwdPush termination and SpeedPPR's refinement require) with supersteps
is pathological in wall time. The paper's whole thesis is that local
(queue) and global (scan) processing should be unified and switched
between by frontier size; in the distributed setting the analogous switch
is **cluster supersteps for the dense bulk, a driver-side FIFO queue for
the sparse tail** — an O(m) finish by Lemma 4.5, run on the collected
sparse vectors.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.common import _to_dense, empty_vec
from repro.graphs.graph import Graph
from repro.linalg.reference import fifo_finish


def _to_sparse_df(spark, vec: np.ndarray, col: str) -> DataFrame:
    nz = np.flatnonzero(vec)
    if nz.size == 0:
        return empty_vec(spark, col)
    return spark.createDataFrame(
        pd.DataFrame({"node": nz.astype("int64"), col: vec[nz]})
    )


def finish_on_driver(
    g: Graph,
    s: int,
    pi_df: DataFrame,
    r_df: DataFrame,
    r_max: float,
    alpha: float,
    exclude: int | None = None,
) -> tuple[DataFrame, DataFrame, int, float]:
    """FIFO-push the state ``(π̂, r)`` until no node is active w.r.t.
    ``r_max`` (``exclude``: node whose residue accumulates un-pushed —
    ResAcc's source); returns ``(pi_df, r_df, edge_pushes, r_sum)``, the
    vectors as fresh sparse DataFrames."""
    pi = _to_dense(pi_df, g.n, "pi")
    r = _to_dense(r_df, g.n, "r")
    pi, r, pushes = fifo_finish(g.to_csr(), s, alpha, r_max, pi, r, exclude=exclude)
    spark = g.spark
    return _to_sparse_df(spark, pi, "pi"), _to_sparse_df(spark, r, "r"), pushes, float(r.sum())

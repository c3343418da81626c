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

from repro.core.common import STATE_SCHEMA
from repro.graphs.graph import Graph
from repro.linalg.reference import fifo_finish


def finish_on_driver(
    g: Graph,
    s: int,
    state: DataFrame,
    r_max: float,
    alpha: float,
    exclude: int | None = None,
) -> tuple[DataFrame, np.ndarray, int, np.ndarray]:
    """FIFO-push the state relation ``(node, r, pi)``, read with one
    collect, until no node is active w.r.t. ``r_max`` (``exclude``: node
    whose residue accumulates un-pushed — ResAcc's source); returns
    ``(state, π, edge_pushes, r)``: the new state as a fresh local relation
    and its dense vectors."""
    pdf = state.toPandas()
    node = pdf["node"].to_numpy(np.int64)
    pi, r = np.zeros(g.n), np.zeros(g.n)
    pi[node], r[node] = pdf["pi"].to_numpy(np.float64), pdf["r"].to_numpy(np.float64)
    pi, r, pushes = fifo_finish(g.to_csr(), s, alpha, r_max, pi, r, exclude=exclude)
    nz = np.flatnonzero((pi != 0.0) | (r != 0.0))
    out = pd.DataFrame({"node": nz.astype(np.int64), "r": r[nz], "pi": pi[nz]})
    return g.spark.createDataFrame(out, STATE_SCHEMA), pi, pushes, r

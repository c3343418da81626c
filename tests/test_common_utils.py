"""Unit tests for the shared distributed-vector helpers and the push
engine's frontier API (core.common), and small kernels
(bepi.index.coo_matvec)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.bepi.index import coo_matvec
from repro.core.common import (
    PPRResult,
    PushState,
    empty_vec,
    frontier_stats,
    materialize,
    push_msgs,
    split_active,
    unit_vec,
    vec_add,
    vec_scale,
)
from repro.graphs.generators import figure1_graph, with_dead_ends
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def fig1(spark):
    return figure1_graph(spark)


class TestSparseVectors:
    def test_unit_vec(self, spark):
        rows = unit_vec(spark, 3, "r").collect()
        assert len(rows) == 1 and rows[0]["node"] == 3 and rows[0]["r"] == 1.0

    def test_empty_vec(self, spark):
        assert empty_vec(spark, "pi").count() == 0

    def test_vec_add_disjoint_and_overlap(self, spark):
        a = spark.createDataFrame([(0, 1.0), (1, 2.0)], "node long, r double")
        b = spark.createDataFrame([(1, 3.0), (2, 4.0)], "node long, r double")
        out = {r["node"]: r["r"] for r in vec_add(a, b, "r").collect()}
        assert out == {0: 1.0, 1: 5.0, 2: 4.0}

    def test_vec_scale(self, spark):
        a = spark.createDataFrame([(0, 2.0)], "node long, r double")
        assert vec_scale(a, 0.5, "r").collect()[0]["r"] == 1.0

    def test_materialize_preserves_rows(self, spark):
        a = spark.createDataFrame([(0, 1.0), (5, 2.0)], "node long, r double")
        assert sorted(map(tuple, materialize(a).collect())) == [(0, 1.0), (5, 2.0)]

    def test_ppr_result_dense_vectors(self, spark):
        res = PPRResult(
            pi=spark.createDataFrame([(1, 0.25)], "node long, pi double"),
            r=spark.createDataFrame([(0, 0.75)], "node long, r double"),
        )
        assert res.pi_vector(3).tolist() == [0.0, 0.25, 0.0]
        assert res.r_vector(3).tolist() == [0.75, 0.0, 0.0]


class TestPushKernel:
    def test_push_msgs_matches_oracle_sql(self, spark, fig1):
        dead = with_dead_ends(spark, n=30, m=80, n_dead=5, seed=7)
        d0, d1 = sorted(r["node"] for r in dead.dead_ends().collect())[:2]
        # figure 1 has no dead end; on the other graph two dead ends push
        # to the source, and one live node pushes along its edges
        for g, s, rows in ((fig1, 0, [(0, 1.0), (2, 0.5)]), (dead, 3, [(d0, 1.0), (d1, 0.25), (2, 0.5)])):
            adj, _ = g.query_view()
            frontier = spark.createDataFrame(rows, "node long, r double")
            msgs = push_msgs(frontier, adj, alpha=0.2, s=s)
            assert_equivalent(
                msgs,
                f"""
                SELECT COALESCE(a.dst, {s}) AS node, SUM(0.8 * f.r / a.deg) AS r
                FROM frontier f JOIN adj a ON f.node = a.src
                GROUP BY COALESCE(a.dst, {s})
                """,
                frontier=frontier,
                adj=adj,
            )

    def test_push_msgs_conserves_mass(self, spark, fig1):
        adj, _ = fig1.query_view()
        frontier = spark.createDataFrame([(0, 1.0)], "node long, r double")
        total = push_msgs(frontier, adj, 0.2, 0).agg(F.sum("r")).collect()[0][0]
        assert total == pytest.approx(0.8)


class TestFrontier:
    @staticmethod
    def _state(g, r):
        st = PushState(g, 0, alpha=0.2)
        st.r = r
        return st

    def test_split_active_rule(self, spark, fig1):
        # figure-1 degrees: v1=2, v2=4; with r_max=0.099: 0.3 > 2·0.099
        # activates v1, 0.3 ≤ 4·0.099 leaves v2 inactive
        r = spark.createDataFrame([(0, 0.3), (1, 0.3)], "node long, r double")
        active, inactive = split_active(self._state(fig1, r), 0.099)
        assert [x["node"] for x in active.collect()] == [0]
        assert [x["node"] for x in inactive.collect()] == [1]

    def test_frontier_stats_matches_split(self, spark, fig1):
        r = spark.createDataFrame([(0, 0.3), (1, 0.3), (4, 0.01)], "node long, r double")
        r_sum, n_active, deg_active = frontier_stats(self._state(fig1, r), 0.099)
        assert r_sum == pytest.approx(0.61)
        assert n_active == 1 and deg_active == 2

    def test_frontier_stats_empty(self, spark, fig1):
        r_sum, n_active, deg_active = frontier_stats(
            self._state(fig1, empty_vec(spark, "r")), 0.1
        )
        assert (r_sum, n_active, deg_active) == (0.0, 0, 0)


class TestCooMatvec:
    def test_basic(self):
        coo = (np.array([0, 1, 1]), np.array([1, 0, 1]), np.array([2.0, 3.0, 4.0]))
        y = coo_matvec(coo, np.array([1.0, 10.0]), 2)
        assert y.tolist() == [20.0, 43.0]

    def test_empty(self):
        coo = (np.array([], dtype=np.int64),) * 2 + (np.array([]),)
        assert coo_matvec(coo, np.zeros(0), 3).tolist() == [0.0, 0.0, 0.0]

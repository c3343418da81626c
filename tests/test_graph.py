"""Tests for the Graph substrate: cleaning, relabeling, degrees, views.

Relational building blocks (degree computation, cleaning) are checked
against the DuckDB oracle; structural properties against numpy.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import Graph
from repro.graphs.generators import figure1_graph, with_dead_ends
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def fig1(spark):
    return figure1_graph(spark)


def _toy_edges():
    # raw ids with gaps (10, 20, ...), one duplicate, one self-loop
    return pd.DataFrame(
        {
            "src": [10, 10, 20, 30, 30, 40, 40, 10],
            "dst": [20, 30, 30, 10, 30, 40, 10, 20],
        }
    )


class TestCleaning:
    def test_dedup_and_self_loop_removal(self, spark):
        g = Graph.from_edges(spark, _toy_edges())
        # 8 raw rows, minus 1 duplicate (10→20), minus 2 self-loops (30→30, 40→40)
        assert g.m == 5
        assert g.n == 4

    def test_relabel_dense_zero_based(self, spark):
        g = Graph.from_edges(spark, _toy_edges())
        nodes = sorted(r["node"] for r in g.nodes.collect())
        assert nodes == list(range(g.n))
        emax = g.edges.agg(F.max("src"), F.max("dst")).collect()[0]
        assert max(emax) < g.n

    def test_relabel_preserves_old_id_order(self, spark):
        # old ids 10<20<30<40 → new ids 0,1,2,3 in the same order: 10→20
        # becomes 0→1
        g = Graph.from_edges(spark, _toy_edges())
        e = {(r["src"], r["dst"]) for r in g.edges.collect()}
        assert (0, 1) in e and (2, 0) in e

    def test_isolated_nodes_dropped(self, spark):
        pdf = pd.DataFrame({"src": [1, 2, 5], "dst": [2, 1, 5]})  # 5→5 self-loop only
        g = Graph.from_edges(spark, pdf)
        assert g.n == 2 and g.m == 2

    def test_undirected_mirroring(self, spark):
        pdf = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        g = Graph.from_edges(spark, pdf, undirected=True)
        assert g.m == 4
        e = {(r["src"], r["dst"]) for r in g.edges.collect()}
        assert (1, 0) in e and (2, 1) in e

    def test_cleaning_matches_oracle_sql(self, spark):
        raw = _toy_edges()
        g = Graph.from_edges(spark, raw)
        # oracle recomputes dedup + self-loop removal + dense relabel in SQL
        sql = """
        WITH e AS (
          SELECT DISTINCT src, dst FROM raw WHERE src <> dst
        ), ids AS (
          SELECT old, ROW_NUMBER() OVER (ORDER BY old) - 1 AS node
          FROM (SELECT src AS old FROM e UNION SELECT dst FROM e)
        )
        SELECT i1.node AS src, i2.node AS dst
        FROM e JOIN ids i1 ON e.src = i1.old JOIN ids i2 ON e.dst = i2.old
        """
        assert_equivalent(g.edges, sql, raw=raw)


class TestDegrees:
    def test_degrees_match_oracle_sql(self, spark, fig1):
        assert_equivalent(
            fig1.degrees,
            """
            SELECT n.node AS node, COALESCE(d.deg, 0) AS deg
            FROM nodes n LEFT JOIN
              (SELECT src AS node, COUNT(*) AS deg FROM edges GROUP BY src) d
            USING (node)
            """,
            edges=fig1.edges,
            nodes=fig1.nodes,
        )

    def test_figure1_degrees(self, fig1):
        degs = {r["node"]: r["deg"] for r in fig1.degrees.collect()}
        assert degs == {0: 2, 1: 4, 2: 2, 3: 3, 4: 2}

    def test_degree_sum_is_m(self, fig1):
        assert fig1.degrees.agg(F.sum("deg")).collect()[0][0] == fig1.m


class TestDeadEnds:
    def test_no_dead_ends_in_figure1(self, fig1):
        assert fig1.dead_ends().count() == 0

    def test_dead_end_detection(self, spark):
        g = with_dead_ends(spark, n=30, m=80, n_dead=5, seed=7)
        dead = sorted(r["node"] for r in g.dead_ends().collect())
        degs = {r["node"]: r["deg"] for r in g.degrees.collect()}
        assert len(dead) == 5
        assert all(degs[v] == 0 for v in dead)

    def test_view_has_one_null_edge_per_dead_end(self, spark):
        g = with_dead_ends(spark, n=30, m=80, n_dead=5, seed=7)
        adj, deg_q = g.query_view()
        assert adj.count() == g.m + 5
        virt = adj.where(F.col("dst").isNull())
        dead = sorted(r["node"] for r in g.dead_ends().collect())
        assert sorted((r["src"], r["deg"]) for r in virt.collect()) == [(v, 1) for v in dead]
        # effective degrees: dead ends lifted to 1
        assert deg_q.where(F.col("deg") == 0).count() == 0

    def test_view_has_no_null_edge_without_dead_ends(self, fig1):
        adj, _ = fig1.query_view()
        assert adj.count() == fig1.m
        assert adj.where(F.col("dst").isNull()).count() == 0

    def test_view_is_built_once(self, fig1):
        adj, deg_q = fig1.query_view()
        again = fig1.query_view()
        assert again[0] is adj and again[1] is deg_q


class TestCSRExport:
    def test_csr_roundtrip(self, fig1):
        csr = fig1.to_csr()
        assert csr.n == 5 and csr.m == 13
        assert sorted(csr.indices[csr.indptr[1] : csr.indptr[2]].tolist()) == [0, 2, 3, 4]

    def test_csr_degrees_match_spark(self, spark):
        g = with_dead_ends(spark, n=40, m=120, n_dead=4, seed=3)
        csr = g.to_csr()
        degs = (
            g.degrees.orderBy("node").toPandas()["deg"].to_numpy()
        )
        assert np.array_equal(csr.out_degrees(), degs)

    def test_csr_cached(self, fig1):
        assert fig1.to_csr() is fig1.to_csr()

    def test_avg_degree(self, fig1):
        assert fig1.avg_degree() == pytest.approx(13 / 5)

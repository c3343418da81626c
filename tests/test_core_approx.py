"""Tests for the distributed approximate algorithms: MonteCarlo, FORA(+),
SpeedPPR(+Index) — against the exact ground truth and the Approx-SSPPR
guarantee (relative error ε on every node with π ≥ μ = 1/n)."""
import dataclasses
import math

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import (
    build_walk_index,
    fora,
    monte_carlo,
    num_walks,
    powerpush,
    speedppr,
)
from repro.core.montecarlo import simulate_walks_df, weighted_endpoint_mass
from repro.graphs.generators import chung_lu, figure1_graph, with_dead_ends
from repro.linalg.exact import exact_ppr, l1_error, max_relative_error
from repro.oracle import assert_equivalent

ALPHA = 0.2
EPS = 0.3


@pytest.fixture(scope="module")
def cl(spark):
    return chung_lu(spark, n=120, avg_deg=5.0, seed=41)


@pytest.fixture(scope="module")
def cl_truth(cl):
    return exact_ppr(cl.to_csr(), 0, ALPHA)


@pytest.fixture(scope="module")
def deadg(spark):
    return with_dead_ends(spark, n=60, m=180, n_dead=8, seed=23)


@pytest.fixture(scope="module")
def fora_index(cl, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("idx") / "fora")
    return build_walk_index(cl, path, policy="fora", eps=EPS, seed=5)


@pytest.fixture(scope="module")
def speed_index(cl, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("idx") / "speed")
    return build_walk_index(cl, path, policy="speedppr", seed=6)


class TestNumWalks:
    def test_eq12_value(self):
        # W = 2(2ε/3+2)·ln n/(ε²μ)
        n, eps, mu = 1000, 0.5, 1e-3
        expected = 2 * (2 * eps / 3 + 2) * math.log(n) / (eps**2 * mu)
        assert num_walks(n, eps, mu) == math.ceil(expected)

    def test_decreasing_in_eps(self):
        assert num_walks(100, 0.1, 0.01) > num_walks(100, 0.5, 0.01)


class TestSimulator:
    def test_passthrough_and_counts(self, cl):
        seeds = cl.spark.range(200).select(
            F.lit(0).cast("long").alias("start"),
            F.col("id").alias("walk_id"),
            F.lit(0.5).alias("weight"),
        )
        walks = simulate_walks_df(cl, seeds, s=0, seed=1)
        pdf = walks.toPandas()
        assert len(pdf) == 200
        assert set(pdf.columns) == {"start", "walk_id", "weight", "endpoint", "pending"}
        assert not pdf["pending"].any()
        assert pdf["endpoint"].between(0, cl.n - 1).all()

    def test_endpoint_distribution_matches_exact(self, cl, cl_truth):
        W = 60_000
        seeds = cl.spark.range(W).select(F.lit(0).cast("long").alias("start"))
        walks = simulate_walks_df(cl, seeds, s=0, seed=2)
        counts = walks.groupBy("endpoint").count().toPandas()
        est = np.zeros(cl.n)
        est[counts["endpoint"].to_numpy()] = counts["count"].to_numpy() / W
        assert l1_error(est, cl_truth) < 0.05

    def test_pending_only_at_dead_ends(self, deadg):
        seeds = deadg.spark.range(3000).select(F.lit(1).cast("long").alias("start"))
        walks = simulate_walks_df(deadg, seeds, s=None, seed=3).toPandas()
        dead = {r["node"] for r in deadg.dead_ends().collect()}
        pend = walks[walks["pending"]]
        assert len(pend) > 0, "walks from a graph with dead ends should freeze sometimes"
        assert set(pend["endpoint"]).issubset(dead)

    def test_no_pending_with_source(self, deadg):
        seeds = deadg.spark.range(2000).select(F.lit(1).cast("long").alias("start"))
        walks = simulate_walks_df(deadg, seeds, s=0, seed=3).toPandas()
        assert not walks["pending"].any()

    def test_weighted_endpoint_mass_matches_oracle_sql(self, cl):
        seeds = cl.spark.range(500).select(
            (F.col("id") % cl.n).alias("start"), F.lit(0.01).alias("weight")
        )
        walks = simulate_walks_df(cl, seeds, s=0, seed=4).cache()
        walks.count()
        agg = weighted_endpoint_mass(walks)
        assert_equivalent(
            agg,
            "SELECT endpoint AS node, SUM(weight) AS pi FROM walks GROUP BY endpoint",
            walks=walks,
        )
        walks.unpersist()


class TestMonteCarlo:
    def test_relative_error_guarantee(self, cl, cl_truth):
        res = monte_carlo(cl, 0, eps=EPS, seed=7)
        est = res.pi_vector(cl.n)
        assert max_relative_error(est, cl_truth, mu=1.0 / cl.n) <= EPS

    def test_mass_sums_to_one(self, cl):
        res = monte_carlo(cl, 0, eps=0.5, seed=8)
        assert res.pi_vector(cl.n).sum() == pytest.approx(1.0, abs=1e-9)

    def test_stats(self, cl):
        res = monte_carlo(cl, 0, eps=0.5, seed=8)
        assert res.stats["num_walks"] == num_walks(cl.n, 0.5, 1.0 / cl.n)


class TestFORA:
    def test_relative_error_guarantee(self, cl, cl_truth):
        res = fora(cl, 0, eps=EPS, seed=9)
        est = res.pi_vector(cl.n)
        assert max_relative_error(est, cl_truth, mu=1.0 / cl.n) <= EPS
        assert res.stats["algorithm"] == "FORA"

    def test_mass_sums_to_one(self, cl):
        res = fora(cl, 0, eps=EPS, seed=10)
        assert res.pi_vector(cl.n).sum() == pytest.approx(1.0, abs=1e-9)

    def test_with_dead_ends(self, deadg):
        truth = exact_ppr(deadg.to_csr(), 0, ALPHA)
        res = fora(deadg, 0, eps=EPS, seed=11)
        assert max_relative_error(res.pi_vector(deadg.n), truth, mu=1.0 / deadg.n) <= EPS

    def test_indexed_matches_guarantee(self, cl, cl_truth, fora_index):
        res = fora(cl, 0, eps=EPS, seed=12, index=fora_index)
        est = res.pi_vector(cl.n)
        assert res.stats["algorithm"] == "FORA+"
        assert max_relative_error(est, cl_truth, mu=1.0 / cl.n) <= EPS
        assert est.sum() == pytest.approx(1.0, abs=1e-9)


class TestSpeedPPR:
    def test_relative_error_guarantee(self, cl, cl_truth):
        res = speedppr(cl, 0, eps=EPS, seed=13)
        est = res.pi_vector(cl.n)
        assert max_relative_error(est, cl_truth, mu=1.0 / cl.n) <= EPS
        assert res.stats["algorithm"] == "SpeedPPR"

    def test_walks_bounded_by_m(self, cl):
        """The headline property: after the refined PowerPush phase,
        W_v ≤ d_v, so at most m (effective) walks are ever needed."""
        res = speedppr(cl, 0, eps=EPS, seed=14)
        m_eff = int(
            cl.degrees.select(
                F.sum(F.when(F.col("deg") == 0, 1).otherwise(F.col("deg")))
            ).collect()[0][0]
        )
        assert res.stats["walks_used"] <= m_eff

    def test_mass_sums_to_one(self, cl):
        res = speedppr(cl, 0, eps=EPS, seed=15)
        assert res.pi_vector(cl.n).sum() == pytest.approx(1.0, abs=1e-9)

    def test_with_dead_ends(self, deadg):
        truth = exact_ppr(deadg.to_csr(), 0, ALPHA)
        res = speedppr(deadg, 0, eps=EPS, seed=16)
        assert max_relative_error(res.pi_vector(deadg.n), truth, mu=1.0 / deadg.n) <= EPS

    def test_indexed_matches_guarantee(self, cl, cl_truth, speed_index):
        res = speedppr(cl, 0, eps=EPS, seed=17, index=speed_index)
        est = res.pi_vector(cl.n)
        assert res.stats["algorithm"] == "SpeedPPR-Index"
        assert max_relative_error(est, cl_truth, mu=1.0 / cl.n) <= EPS
        assert est.sum() == pytest.approx(1.0, abs=1e-9)

    def test_short_index_raises(self, cl, speed_index):
        """An index holding fewer walks than a query needs (here one per
        node) raises instead of dropping the missing walks' mass."""
        short = dataclasses.replace(speed_index, walks=speed_index.walks.where(F.col("walk_idx") <= 1))
        with pytest.raises(RuntimeError, match="walks needed"):
            speedppr(cl, 0, eps=EPS, seed=17, index=short)

    def test_index_reusable_across_eps(self, cl, cl_truth, speed_index):
        """ε-independence: the same index answers a different ε."""
        for eps in (0.5, 0.25):
            res = speedppr(cl, 0, eps=eps, seed=18, index=speed_index)
            assert (
                max_relative_error(res.pi_vector(cl.n), cl_truth, mu=1.0 / cl.n) <= eps
            )


class TestSmallGraphFallback:
    def test_monte_carlo_fallback_when_m_exceeds_w(self, spark):
        # fig1: n=5, m=13; W for a large ε can drop below m → MonteCarlo
        g = figure1_graph(spark)
        res = speedppr(g, 0, eps=3.0, seed=19)
        assert res.stats["algorithm"] == "MonteCarlo"

"""Tests for the vectorized α-random-walk kernel (Monte-Carlo substrate)."""
import numpy as np
import pytest

from repro.graphs.generators import chung_lu, figure1_graph, with_dead_ends
from repro.linalg.exact import exact_ppr, l1_error
from repro.linalg.walks import simulate_endpoints

ALPHA = 0.2


def test_endpoints_shape_and_range(spark):
    csr = figure1_graph(spark).to_csr()
    rng = np.random.default_rng(0)
    ends, _ = simulate_endpoints(csr, 0, np.zeros(500, dtype=np.int64), ALPHA, rng)
    assert ends.shape == (500,)
    assert ends.min() >= 0 and ends.max() < csr.n


def test_monte_carlo_estimates_converge_to_exact(spark):
    csr = figure1_graph(spark).to_csr()
    truth = exact_ppr(csr, 0, ALPHA)
    rng = np.random.default_rng(7)
    W = 200_000
    ends, _ = simulate_endpoints(csr, 0, np.zeros(W, dtype=np.int64), ALPHA, rng)
    est = np.bincount(ends, minlength=csr.n) / W
    # ℓ1 error of W-sample empirical distribution ~ sqrt(n/W) ≈ 0.005
    assert l1_error(est, truth) < 0.02


def test_alpha_one_stops_immediately(spark):
    csr = figure1_graph(spark).to_csr()
    rng = np.random.default_rng(1)
    starts = np.array([2, 3, 4], dtype=np.int64)
    ends, _ = simulate_endpoints(csr, 0, starts, alpha=0.999999, rng=rng)
    assert np.array_equal(ends, starts)


def test_dead_ends_route_to_source(spark):
    # graph: 0 → 1, 1 dead, source s=0. Walks *started at 1* (as FORA's
    # phase 2 does) bounce 1 → 0 → 1 → …; solving the two-state chain:
    # P(stop at 1) = α/(1-(1-α)²) = 0.2/0.36, P(stop at 0) = 0.16/0.36.
    from repro.linalg.csr import CSR

    csr = CSR.from_edges(2, np.array([0]), np.array([1]))
    rng = np.random.default_rng(3)
    ends, _ = simulate_endpoints(csr, 0, np.ones(20_000, dtype=np.int64), ALPHA, rng)
    truth = np.array([0.16 / 0.36, 0.20 / 0.36])
    est = np.bincount(ends, minlength=2) / 20_000
    assert l1_error(est, truth) < 0.02


def test_walks_from_every_node(spark):
    csr = with_dead_ends(spark, n=40, m=120, n_dead=5, seed=9).to_csr()
    rng = np.random.default_rng(11)
    starts = np.repeat(np.arange(csr.n), 50)
    ends, _ = simulate_endpoints(csr, 0, starts, ALPHA, rng)
    assert ends.shape == starts.shape
    # every start contributes stops somewhere inside the graph
    assert ends.max() < csr.n


def test_deterministic_given_rng_state(spark):
    csr = chung_lu(spark, n=80, avg_deg=4.0, seed=5).to_csr()
    a, _ = simulate_endpoints(csr, 0, np.zeros(100, dtype=np.int64), ALPHA, np.random.default_rng(42))
    b, _ = simulate_endpoints(csr, 0, np.zeros(100, dtype=np.int64), ALPHA, np.random.default_rng(42))
    assert np.array_equal(a, b)

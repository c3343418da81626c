"""Tests for the distributed high-precision algorithms (PowItr,
FIFO-FwdPush, SimFwdPush, PowerPush) against the exact ground truth, the
instrumented references, and each other (Lemma 4.1); and for the push
engine under them (superstep cap, Spark jobs per superstep).

Each (algorithm, graph) run is expensive (tens of supersteps), so runs are
computed once in module-scoped fixtures and shared across assertions.
"""
import math

import numpy as np
import pytest

from repro.core import fifo_fwdpush, powerpush, powitr, sim_fwdpush
from repro.core.common import PushState, superstep
from repro.core.driver_tail import finish_on_driver
from repro.core.resacc import resacc
from repro.graphs.generators import chung_lu, figure1_graph, with_dead_ends
from repro.linalg import reference
from repro.linalg.exact import exact_ppr, l1_error

ALPHA = 0.2


@pytest.fixture(scope="module")
def fig1(spark):
    return figure1_graph(spark)


@pytest.fixture(scope="module")
def cl(spark):
    return chung_lu(spark, n=120, avg_deg=5.0, seed=31)


@pytest.fixture(scope="module")
def deadg(spark):
    return with_dead_ends(spark, n=50, m=160, n_dead=6, seed=13)


def count_jobs(spark, group: str, run):
    """``(run(), number of Spark jobs it started)``, counted in the Spark
    job group ``group``."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    # job ids reach the status store through the listener bus
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


# ---------------------------- shared runs -----------------------------
@pytest.fixture(scope="module")
def powitr_fig1(fig1):
    return powitr(fig1, 0, lam=1e-4)


@pytest.fixture(scope="module")
def powitr_cl_jobs(spark, cl):
    """The ``powitr_cl`` run and the number of Spark jobs it started."""
    return count_jobs(spark, "test-powitr-cl", lambda: powitr(cl, 3, lam=1e-3))


@pytest.fixture(scope="module")
def powitr_cl(powitr_cl_jobs):
    return powitr_cl_jobs[0]


@pytest.fixture(scope="module")
def fifo_cl(cl):
    return fifo_fwdpush(cl, 0, lam=1e-3)


@pytest.fixture(scope="module")
def fifo_fig1(fig1):
    return fifo_fwdpush(fig1, 0, lam=1e-4)


@pytest.fixture(scope="module")
def sim_fig1(fig1):
    return sim_fwdpush(fig1, 0, lam=1e-3)


@pytest.fixture(scope="module")
def sim_cl(cl):
    return sim_fwdpush(cl, 0, lam=1e-3)


@pytest.fixture(scope="module")
def pp_fig1(fig1):
    return powerpush(fig1, 0, lam=1e-5)


@pytest.fixture(scope="module")
def pp_cl_jobs(spark, cl):
    """The ``pp_cl`` run and the number of Spark jobs it started, once the
    graph's driver-side CSR exists."""
    cl.to_csr()
    return count_jobs(spark, "test-powerpush-cl", lambda: powerpush(cl, 0, lam=1e-3))


@pytest.fixture(scope="module")
def pp_cl(pp_cl_jobs):
    return pp_cl_jobs[0]


@pytest.fixture(scope="module")
def pp_cl_refined(cl):
    return powerpush(cl, 0, lam=1e-3, refine_r_max=1e-3 / cl.m)


class TestDistributedPowItr:
    def test_matches_exact(self, fig1, powitr_fig1):
        truth = exact_ppr(fig1.to_csr(), 0, ALPHA)
        assert l1_error(powitr_fig1.pi_vector(fig1.n), truth) <= 1e-4

    def test_matches_reference_impl(self, cl, powitr_cl):
        pi_ref, r_ref, _ = reference.powitr(cl.to_csr(), 3, ALPHA, 1e-3)
        assert np.allclose(powitr_cl.pi_vector(cl.n), pi_ref, atol=1e-12)
        assert np.allclose(powitr_cl.r_vector(cl.n), r_ref, atol=1e-12)

    def test_residual_geometric(self, powitr_fig1):
        assert powitr_fig1.stats["r_sum"] == pytest.approx(
            (1 - ALPHA) ** powitr_fig1.stats["supersteps"], rel=1e-9
        )

    def test_dead_end_graph(self, deadg):
        res = powitr(deadg, 2, lam=1e-3)
        truth = exact_ppr(deadg.to_csr(), 2, ALPHA)
        assert l1_error(res.pi_vector(deadg.n), truth) <= 1e-3

    def test_dead_end_graph_two_sources(self, deadg):
        """Back-to-back queries from two sources share the graph's cached
        view: no source may leak into it."""
        for s in (5, 17):
            res = powitr(deadg, s, lam=1e-3)
            truth = exact_ppr(deadg.to_csr(), s, ALPHA)
            assert l1_error(res.pi_vector(deadg.n), truth) <= 1e-3

    def test_mass_conservation(self, fig1, powitr_fig1):
        total = powitr_fig1.pi_vector(fig1.n).sum() + powitr_fig1.r_vector(fig1.n).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


class TestDistributedFwdPush:
    def test_residual_bound(self, cl, fifo_cl):
        lam = 1e-3
        csr = cl.to_csr()
        r = fifo_cl.r_vector(cl.n)
        assert (r <= csr.effective_degrees() * (lam / cl.m) + 1e-15).all()
        assert fifo_cl.stats["r_sum"] <= lam

    def test_matches_exact(self, fig1, fifo_fig1):
        truth = exact_ppr(fig1.to_csr(), 0, ALPHA)
        assert l1_error(fifo_fig1.pi_vector(fig1.n), truth) <= 1e-4

    def test_dead_end_graph(self, deadg):
        res = fifo_fwdpush(deadg, 1, lam=1e-3)
        truth = exact_ppr(deadg.to_csr(), 1, ALPHA)
        assert l1_error(res.pi_vector(deadg.n), truth) <= 1e-3

    def test_mass_conservation(self, cl, fifo_cl):
        total = fifo_cl.pi_vector(cl.n).sum() + fifo_cl.r_vector(cl.n).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_terminates_with_inactive_frontier(self, fifo_fig1):
        assert fifo_fig1.stats["supersteps"] >= 3
        assert fifo_fig1.stats["edge_pushes"] > 0


class TestLemma41Distributed:
    def test_sim_fwdpush_equals_powitr(self, fig1, sim_fig1):
        b = powitr(fig1, 0, lam=1e-3)
        assert np.allclose(sim_fig1.pi_vector(fig1.n), b.pi_vector(fig1.n), atol=1e-14)
        assert np.allclose(sim_fig1.r_vector(fig1.n), b.r_vector(fig1.n), atol=1e-14)

    def test_sim_fwdpush_matches_reference(self, cl, sim_cl):
        pi_ref, r_ref, _ = reference.sim_fwdpush(cl.to_csr(), 0, ALPHA, 1e-3)
        assert np.allclose(sim_cl.pi_vector(cl.n), pi_ref, atol=1e-12)
        assert np.allclose(sim_cl.r_vector(cl.n), r_ref, atol=1e-12)


class TestDistributedPowerPush:
    def test_l1_error_tight(self, fig1, pp_fig1):
        truth = exact_ppr(fig1.to_csr(), 0, ALPHA)
        assert pp_fig1.stats["r_sum"] <= 1e-5 + 1e-15
        assert l1_error(pp_fig1.pi_vector(fig1.n), truth) <= 1e-5

    def test_on_scale_free(self, cl, pp_cl):
        truth = exact_ppr(cl.to_csr(), 0, ALPHA)
        assert l1_error(pp_cl.pi_vector(cl.n), truth) <= 1e-3

    def test_dead_end_graph(self, deadg):
        res = powerpush(deadg, 0, lam=1e-3)
        truth = exact_ppr(deadg.to_csr(), 0, ALPHA)
        assert l1_error(res.pi_vector(deadg.n), truth) <= 1e-3

    def test_refinement_inactive_state(self, cl, pp_cl_refined):
        r_max = 1e-3 / cl.m
        r = pp_cl_refined.r_vector(cl.n)
        assert (r <= cl.to_csr().effective_degrees() * r_max + 1e-15).all()

    def test_mass_conservation(self, fig1, pp_fig1):
        total = pp_fig1.pi_vector(fig1.n).sum() + pp_fig1.r_vector(fig1.n).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_dynamic_thresholds_cut_edge_pushes(self, sim_cl, pp_cl):
        """The paper's Fig-6 claim: PowerPush needs no more residue
        updates than the rigid push-everything schedule (and usually
        fewer). Supersteps may grow — pushes must not."""
        assert pp_cl.stats["edge_pushes"] <= sim_cl.stats["edge_pushes"] * 1.2


class TestPushEngine:
    @pytest.mark.parametrize(
        "run",
        [
            lambda g: fifo_fwdpush(g, 0, lam=1e-3, max_supersteps=1),
            lambda g: sim_fwdpush(g, 0, lam=1e-3, max_supersteps=1),
            lambda g: powerpush(g, 0, lam=1e-3, max_supersteps=1),
            # from source 0 (degree 5) ResAcc's first push leaves a 5-node
            # frontier, which the driver drains; the top-degree node's does not
            lambda g: resacc(
                g, int(np.argmax(g.to_csr().out_degrees())), eps=0.3, max_supersteps=1
            ),
        ],
        ids=["fifo_fwdpush", "sim_fwdpush", "powerpush", "resacc"],
    )
    def test_superstep_cap_raises(self, cl, run):
        """No method stops silently at ``max_supersteps``: each needs more
        than one superstep here, so a cap of one must raise."""
        with pytest.raises(RuntimeError, match="superstep limit"):
            run(cl)

    def test_powerpush_job_budget(self, pp_cl_jobs):
        """One Spark job per superstep: its closing action, which
        materialises the new state and reads every epoch's frontier stats.
        The start state's stats come from the driver's CSR. This run hands
        nothing to the driver; a hand-off would add its collect and at most
        one stats action after it."""
        res, jobs = pp_cl_jobs
        steps = res.stats["supersteps"]
        assert steps > 1
        assert jobs == steps

    def test_powitr_job_count(self, powitr_cl_jobs):
        """Exactly one job per superstep, the action that materialises
        the new state and reads ``Σr`` and ``Σπ``: nothing per query else."""
        res, jobs = powitr_cl_jobs
        steps = res.stats["supersteps"]
        assert steps == math.ceil(math.log(1e-3) / math.log(1 - ALPHA))
        assert jobs == steps

    def test_checkpoint_cuts_lineage(self, spark, cl):
        """Each superstep starts one job, which materialises the lazy
        checkpoint of the new state; a later superstep's job runs no more
        stages than the second one's, so the plan does not grow."""
        st = PushState(cl, 3, alpha=ALPHA)
        tracker = spark.sparkContext.statusTracker()
        stages = []
        for j in range(6):
            _, jobs = count_jobs(spark, f"test-lineage-{j}", lambda: superstep(st))
            assert jobs == 1
            plan = st.state._jdf.queryExecution().analyzed()
            assert plan.nodeName() == "LogicalRDD" and plan.rdd().isCheckpointed()
            job = tracker.getJobIdsForGroup(f"test-lineage-{j}")[0]
            ran = [
                sid for sid in tracker.getJobInfo(job).stageIds
                if (info := tracker.getStageInfo(sid)) is not None and info.numCompletedTasks > 0
            ]
            stages.append(len(ran))
        assert all(n <= stages[1] for n in stages[2:])

    def test_result_checks_mass(self, cl):
        """A state whose mass is not 1 is refused when the result returns."""
        st = PushState(cl, 0, alpha=ALPHA)
        superstep(st)
        st.state = st.state.selectExpr("node", "2 * r AS r", "2 * pi AS pi")
        with pytest.raises(RuntimeError, match="mass not conserved"):
            st.result("PowItr")

    def test_result_after_driver_finish_starts_no_job(self, spark, cl):
        """The driver-side finish hands back the dense vectors with the
        state, so building the result needs no Spark action."""
        st = PushState(cl, 0, alpha=ALPHA)
        st.absorb(finish_on_driver(cl, 0, st.state, 1e-3 / cl.m, ALPHA))
        res, jobs = count_jobs(spark, "test-result-after-finish", lambda: st.result("FIFO-FwdPush"))
        assert jobs == 0
        assert res.stats["pi_sum"] + res.stats["r_sum"] == pytest.approx(1.0, abs=1e-12)
        total = res.pi_vector(cl.n).sum() + res.stats["r_sum"]
        assert total == pytest.approx(1.0, abs=1e-12)

"""Query benchmark for the paper's two speed claims (Figs. 4 and 7).

Run from the root of a checkout:

    python3 perfbench/run.py --workload f4_dblp --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each query is issued when the
previous one has returned and been checked. A run starts a pinned Spark
session, builds the workload's graph ``SETUPS`` times (reporting the
median), builds the workload's indexes, then runs whole rounds of the query
mix, one new source per round, until ``--seconds`` have passed. There is no
separate warm-up query (see the README). A traced run adds the methods that
only it times to every round.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

T_PROCESS = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: graph set-ups per run; setup_s reports their median
SETUPS = 3


def _median(values) -> float:
    return float(statistics.median(values))


def _log(msg: str) -> None:
    print(f"[perfbench {time.perf_counter() - T_PROCESS:6.1f}s] {msg}", file=sys.stderr, flush=True)


@dataclass
class QueryRecord:
    method: object
    source: int
    wall: float
    jobs: int
    stats: dict
    root: object


def set_up_graph(ctx, wl) -> tuple[float, float]:
    """Build the stand-in from scratch and export its CSR; returns the two
    phase times. ``make_dataset`` memoizes per session, so its cache entry
    is dropped first."""
    from repro.experiments import datasets

    if ctx.g is not None:
        ctx.g.unpersist()
    datasets._CACHE.pop((wl.dataset, wl.scale), None)
    t0 = time.perf_counter()
    g = datasets.make_dataset(ctx.spark, wl.dataset, wl.scale)
    t1 = time.perf_counter()
    ctx.csr = g.to_csr()
    t2 = time.perf_counter()
    ctx.g = g
    return t1 - t0, t2 - t1


def run_round(ctx, mix, tracer, s, tol, walk_seed):
    """One query per method of ``mix`` from source ``s``, each checked;
    returns the records of the queries that passed and the failure count."""
    from workloads import normalise_stats

    records, failures = [], 0
    for k, method in enumerate(mix):
        try:
            with tracer.span(method.layer) as root:
                ans = method.run(ctx, s, walk_seed + k, tol)
            tracer.resolve_jobs()
            problems = method.check(ctx, s, ans, tol)
        except Exception:  # a raising query is a failed query; the run goes on
            problems = [traceback.format_exc()]
        if problems:
            failures += 1
            _log(f"FAILED {method.name} s={s}: {'; '.join(problems)}")
            continue
        wall = root.wall - root.tracer_s
        jobs = sum(sp.jobs for sp in tracer.subtree(root))
        records.append(QueryRecord(method, s, wall, jobs, normalise_stats(ans), root))
        _log(f"{method.name} s={s} {wall:.2f}s {jobs} jobs {records[-1].stats}")
    return records, failures


def run_queries(ctx, wl, mix, tracer, sources, seconds, seed):
    """Whole rounds of the mix until ``seconds`` have passed."""
    records, failures, rounds = [], 0, 0
    t0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        s = sources[rounds % len(sources)]
        recs, fails = run_round(ctx, mix, tracer, s, wl.tol, seed * 1000 + rounds * 10)
        records += recs
        failures += fails
        rounds += 1
    return records, rounds * len(mix), failures, rounds


def end_to_end(setup_s, index, records) -> dict:
    """A metric with no checked query behind it is left out: a method that
    fails every query must not read as infinitely fast."""
    out = {
        "setup_s": setup_s,
        "index_build_s": index.seconds,
        "index_mb": index.bytes / 1e6,
    }
    for role in ("unified", "baseline"):
        walls = [r.wall for r in records if r.method.role == role]
        if walls:
            out[f"{role}_s"] = _median(walls)
    if records:
        out["queries_per_min"] = 60.0 * len(records) / sum(r.wall for r in records)
        out["jobs_per_query"] = sum(r.jobs for r in records) / len(records)
    return out


def per_layer(names, setup_layers, index, records, tracer, rounds, jvm_mb) -> dict:
    """Every per-layer metric of ``names``; a layer the workload does not
    run reads 0."""
    measured = dict(setup_layers)
    measured.update(index.layers)
    roots = {r.root.id for r in records}
    calls = {}
    for sp in tracer.spans:
        if sp.id not in roots:
            calls.setdefault(sp.name, []).append(sp)
    for span, spans in calls.items():
        totals = {
            "calls": len(spans),
            "s": sum(sp.self_s for sp in spans),
            "jobs": sum(sp.jobs for sp in spans),
        }
        for sp in spans:
            for q, v in sp.counts.items():
                totals[q] = totals.get(q, 0) + v
        measured.update({f"{span}.{q}": v / rounds for q, v in totals.items()})
    by_layer = {}
    for r in records:
        by_layer.setdefault(r.method.layer, []).append(r)
    for layer, mine in by_layer.items():
        measured[f"{layer}.s"] = _median(r.wall for r in mine)
        measured[f"{layer}.jobs"] = _median(r.jobs for r in mine)
        for q in {q for r in mine for q in r.stats}:
            measured[f"{layer}.{q}"] = _median(r.stats.get(q, 0) for r in mine)
    measured["query.residual_s"] = sum(r.root.self_s for r in records) / rounds
    measured["trace.overhead_s"] = sum(r.root.tracer_s for r in records) / rounds
    measured["process.jvm_peak_rss_mb"] = jvm_mb
    measured["process.py_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return {name: measured.get(name, 0.0) for name in names}


#: median-time ratios and the side of 1 that Figs. 4 and 7 put them on;
#: printed by every run that has both methods, not gated
SHAPE_RATIOS = (
    ("PowerPush", "PowItr", "< 1"),
    ("FIFO-FwdPush", "PowerPush", "> 1"),
    ("SpeedPPR", "FORA", "< 1"),
    ("SpeedPPR-Index", "FORA+", "< 1"),
)


def print_summary(wl, records, index) -> None:
    walls = {}
    for r in records:
        walls.setdefault(r.method.name, []).append(r.wall)
    med = {name: _median(w) for name, w in walls.items()}
    print(f"workload {wl.name}: {wl.dataset} at scale {wl.scale}, {wl.params}")
    for name, value in med.items():
        print(f"  {name}: median {value:.3f} s over {len(walls[name])} queries")
    for num, den, paper in SHAPE_RATIOS:
        if num in med and den in med:
            print(f"  ratio {num} / {den} = {med[num] / med[den]:.3f} (paper: {paper})")
    for problem in index.problems:
        print(f"  INDEX CHECK FAILED: {problem}")


def run(spark, wl, args, work, session_s) -> dict:
    import spark_env
    from tracer import Tracer, install
    from workloads import Context, pick_sources

    ctx = Context(spark, work)
    phases = [set_up_graph(ctx, wl) for _ in range(SETUPS)]
    graph_s = _median(make + csr for make, csr in phases)
    setup_layers = {
        "spark.session.s": session_s,
        "graphs.make_dataset.s": _median(make for make, _ in phases),
        "graphs.to_csr.s": _median(csr for _, csr in phases),
    }
    _log(f"set-up: session {session_s:.2f}s, graph {[round(a + b, 2) for a, b in phases]}")

    sources = pick_sources(wl, ctx.g.n, args.seed)
    index = wl.build_indexes(ctx, bool(args.trace))
    _log(f"indexes: {index.seconds:.2f}s, {index.bytes} bytes")

    tracer = Tracer(spark.sparkContext)
    uninstall = install(tracer) if args.trace else None
    try:
        records, attempted, failures, rounds = run_queries(
            ctx, wl, wl.round(bool(args.trace)), tracer, sources, args.seconds, args.seed
        )
    finally:
        if uninstall is not None:
            uninstall()
    print_summary(wl, records, index)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        metrics = per_layer(
            units, setup_layers, index, records, tracer, rounds, spark_env.jvm_peak_rss_mb(spark)
        )
    else:
        metrics = end_to_end(session_s + graph_s, index, records)
    return {
        "correct": not index.problems and failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    args = parse_args(argv)
    from workloads import WORKLOADS

    import spark_env

    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spark_env.prepare_env(src, work)
    spark = None
    try:
        spark = spark_env.start_session()
        session_s = time.perf_counter() - T_PROCESS
        result = run(spark, WORKLOADS[args.workload], args, work, session_s)
    finally:
        if spark is not None:
            spark_env.stop(spark)
        shutil.rmtree(work, ignore_errors=True)
        _log("stopped")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

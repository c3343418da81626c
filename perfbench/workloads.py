"""The two query workloads and the checks on their answers.

``f4_dblp``  — high-precision SSPPR (the paper's Fig. 4) on the DBLP
stand-in: PowItr against PowerPush, plus BePI-lite from an index built in
set-up; a traced round adds FIFO-FwdPush. Every Spark query is a chain of
bulk push supersteps.

``f7_webst`` — approximate SSPPR (Fig. 7) on the Web-St stand-in: FORA
against SpeedPPR. Both push to a loose threshold, hand the sparse end to
the driver tail or the walks, and refine with α-walks; set-up writes the
SpeedPPR and FORA+ walk indexes, which a traced round reads with
SpeedPPR-Index and FORA+.

Every answer is checked against the dense exact solve of
``(I − (1−α)Pᵀ)x = α·e_s`` or against a property the method must have.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ALPHA = 0.2
#: query sources are ``rng([SOURCE_SEED, workload tag, --seed])`` draws
SOURCE_SEED = 20210620
#: the FORA+ index is built for this ε (as in ``repro.experiments.table2``)
FORA_INDEX_EPS = 0.1
MASS_TOL_HIGHPREC = 1e-9
MASS_TOL_APPROX = 1e-6


@dataclass
class Context:
    """What a workload's set-up leaves for its queries."""

    spark: object
    work_dir: str
    g: object = None
    csr: object = None
    indexes: dict = field(default_factory=dict)
    _truth: dict = field(default_factory=dict)

    def truth(self, s: int) -> np.ndarray:
        from repro.linalg.exact import exact_ppr

        if s not in self._truth:
            self._truth[s] = exact_ppr(self.csr, s, ALPHA)
        return self._truth[s]


@dataclass(frozen=True)
class Method:
    name: str  # the paper's name
    layer: str  # span name and per-layer metric prefix
    role: str | None  # "unified", "baseline" or None
    run: Callable  # (ctx, source, walk_seed, tol) -> answer
    check: Callable  # (ctx, source, answer, tol) -> list of problems


@dataclass
class IndexBuild:
    seconds: float
    bytes: int
    layers: dict
    problems: list


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int
    dataset: str
    scale: float
    params: dict
    #: the accuracy the timed queries ask for: λ on f4_dblp, ε on f7_webst
    tol: float
    build_indexes: Callable  # (ctx, traced) -> IndexBuild
    mix: tuple  # Methods of one round, in order
    #: Methods a traced round runs after ``mix``. They do not fit the
    #: untraced runs' budget (see the README), so only the traced run times
    #: them, reads the walk indexes with them and checks their answers.
    traced_only: tuple = ()

    def round(self, traced: bool) -> tuple:
        return self.mix + self.traced_only if traced else self.mix


def normalise_stats(ans) -> dict:
    """One stats schema over the methods' differing key names."""
    from repro.bepi.query import BepiQueryResult

    if isinstance(ans, BepiQueryResult):
        return {"iterations": ans.iterations}
    st = ans.stats
    out = {}
    for key in ("supersteps", "iterations", "push_supersteps"):
        if key in st:
            out["supersteps"] = int(st[key])
            break
    for key in ("edge_pushes", "push_edge_pushes"):
        if key in st:
            out["edge_pushes"] = int(st[key])
            break
    if "queue_supersteps" in st:
        out["queue_supersteps"] = int(st["queue_supersteps"])
    if "walks_used" in st:
        out["walks"] = int(st["walks_used"])
    return out


# ----------------------------------------------------------------------
# f4_dblp — high precision
# ----------------------------------------------------------------------
F4_LAMBDA = 0.3
#: BePI's ℓ2 stop rule certifies no ℓ1 bound; Δ = λ/100 keeps its ℓ1
#: error two orders of magnitude under λ
BEPI_DELTA_PER_LAMBDA = 0.01


def _check_push(ctx: Context, s: int, res, lam: float) -> list[str]:
    from repro.linalg.exact import l1_error

    pi = res.pi_vector(ctx.g.n)
    r = res.r_vector(ctx.g.n)
    problems = []
    err = l1_error(pi, ctx.truth(s))
    if err > lam:
        problems.append(f"l1 error {err:.3g} > lambda {lam}")
    mass = float(pi.sum() + r.sum())
    if abs(mass - 1.0) > MASS_TOL_HIGHPREC:
        problems.append(f"sum(pi) + sum(r) = {mass!r}, not 1")
    return problems


def _check_bepi(ctx: Context, s: int, res, lam: float) -> list[str]:
    from repro.linalg.exact import l1_error

    err = l1_error(res.pi, ctx.truth(s))
    return [f"l1 error {err:.3g} > lambda {lam}"] if err > lam else []


def _build_bepi(ctx: Context, traced: bool) -> IndexBuild:
    from repro.bepi import build_bepi_index

    t0 = time.perf_counter()
    idx = build_bepi_index(ctx.g, final_cc="local", path=os.path.join(ctx.work_dir, "bepi.npz"))
    seconds = time.perf_counter() - t0
    ctx.indexes["bepi"] = idx
    size = idx.size_bytes
    layers = {
        "bepi.build.s": seconds,
        "bepi.build.mb": size / 1e6,
        "bepi.build.hubs": idx.stats["n_hubs"],
    }
    return IndexBuild(seconds, size, layers, [])


def _powitr(ctx, s, seed, lam):
    from repro.core import powitr

    return powitr(ctx.g, s, alpha=ALPHA, lam=lam)


def _fifo_fwdpush(ctx, s, seed, lam):
    from repro.core import fifo_fwdpush

    return fifo_fwdpush(ctx.g, s, alpha=ALPHA, lam=lam)


def _powerpush(ctx, s, seed, lam):
    from repro.core import powerpush

    return powerpush(ctx.g, s, alpha=ALPHA, lam=lam)


def _bepi(ctx, s, seed, lam):
    from repro.bepi import bepi_query

    return bepi_query(ctx.indexes["bepi"], s, delta=lam * BEPI_DELTA_PER_LAMBDA)


POWITR = Method("PowItr", "core.powitr", "baseline", _powitr, _check_push)
FIFO_FWDPUSH = Method("FIFO-FwdPush", "core.fifo_fwdpush", None, _fifo_fwdpush, _check_push)
POWERPUSH = Method("PowerPush", "core.powerpush", "unified", _powerpush, _check_push)
BEPI = Method("BePI", "bepi.query", None, _bepi, _check_bepi)

F4_DBLP = Workload(
    name="f4_dblp",
    tag=4,
    dataset="DBLP",
    scale=0.25,
    params={
        "lambda": F4_LAMBDA,
        "bepi_delta": F4_LAMBDA * BEPI_DELTA_PER_LAMBDA,
        "alpha": ALPHA,
    },
    tol=F4_LAMBDA,
    build_indexes=_build_bepi,
    mix=(POWITR, POWERPUSH, BEPI),
    traced_only=(FIFO_FWDPUSH,),
)


# ----------------------------------------------------------------------
# f7_webst — approximate
# ----------------------------------------------------------------------
#: W = 8,300 still exceeds m, so FORA does not fall back to plain
#: MonteCarlo
F7_EPS = 1.9


def _check_approx(ctx: Context, s: int, res, eps: float) -> list[str]:
    from repro.linalg.exact import max_relative_error

    n = ctx.g.n
    pi = res.pi_vector(n)
    problems = []
    err = max_relative_error(pi, ctx.truth(s), 1.0 / n)
    if err > eps:
        problems.append(f"max relative error {err:.3g} > eps {eps}")
    mass = float(pi.sum())
    if abs(mass - 1.0) > MASS_TOL_APPROX:
        problems.append(f"sum(pi) = {mass!r}, not 1 (short walk supply?)")
    if res.stats["algorithm"].startswith("SpeedPPR") and res.stats["walks_used"] > ctx.g.m:
        problems.append(f"{res.stats['walks_used']} walks used > m = {ctx.g.m}")
    return problems


def _expected_index_walks(ctx: Context) -> dict[str, int]:
    """Walk counts the two index policies must store, from the degrees."""
    from repro.core.montecarlo import num_walks

    deg = ctx.csr.effective_degrees()
    W = num_walks(ctx.g.n, FORA_INDEX_EPS, 1.0 / ctx.g.n)
    fora = np.floor(deg * math.sqrt(W / ctx.g.m)) + 1
    return {"speedppr": int(deg.sum()), "fora": int(fora.sum())}


def _build_walk_indexes(ctx: Context, traced: bool) -> IndexBuild:
    from pyspark.sql import functions as F

    from repro.core import build_walk_index

    expected = _expected_index_walks(ctx)
    seconds, size, layers, problems = 0.0, 0, {}, []
    for policy, eps in (("speedppr", None), ("fora", FORA_INDEX_EPS)):
        t0 = time.perf_counter()
        idx = build_walk_index(
            ctx.g, os.path.join(ctx.work_dir, f"walks-{policy}"), policy=policy, eps=eps, alpha=ALPHA
        )
        dt = time.perf_counter() - t0
        ctx.indexes[policy] = idx
        seconds += dt
        size += idx.size_bytes
        prefix = f"core.walk_index.build.{policy}"
        layers[f"{prefix}.s"] = dt
        layers[f"{prefix}.mb"] = idx.size_bytes / 1e6
        layers[f"{prefix}.walks"] = idx.num_walks_stored
        if traced:
            layers[f"{prefix}.pending"] = idx.walks.where(F.col("pending")).count()
        if idx.num_walks_stored != expected[policy]:
            problems.append(
                f"{policy} index holds {idx.num_walks_stored} walks, expected {expected[policy]}"
            )
    return IndexBuild(seconds, size, layers, problems)


def _fora(ctx, s, seed, eps):
    from repro.core import fora

    return fora(ctx.g, s, eps=eps, alpha=ALPHA, seed=seed)


def _fora_index(ctx, s, seed, eps):
    from repro.core import fora

    return fora(ctx.g, s, eps=eps, alpha=ALPHA, seed=seed, index=ctx.indexes["fora"])


def _speedppr(ctx, s, seed, eps):
    from repro.core import speedppr

    return speedppr(ctx.g, s, eps=eps, alpha=ALPHA, seed=seed)


def _speedppr_index(ctx, s, seed, eps):
    from repro.core import speedppr

    return speedppr(ctx.g, s, eps=eps, alpha=ALPHA, seed=seed, index=ctx.indexes["speedppr"])


FORA = Method("FORA", "core.fora", "baseline", _fora, _check_approx)
FORA_INDEX = Method("FORA+", "core.fora_index", None, _fora_index, _check_approx)
SPEEDPPR = Method("SpeedPPR", "core.speedppr", "unified", _speedppr, _check_approx)
SPEEDPPR_INDEX = Method(
    "SpeedPPR-Index", "core.speedppr_index", None, _speedppr_index, _check_approx
)

F7_WEBST = Workload(
    name="f7_webst",
    tag=7,
    dataset="Web-St",
    scale=0.25,
    params={
        "eps": F7_EPS,
        "mu": "1/n",
        "alpha": ALPHA,
        "fora_index_eps": FORA_INDEX_EPS,
    },
    tol=F7_EPS,
    build_indexes=_build_walk_indexes,
    mix=(FORA, SPEEDPPR),
    traced_only=(FORA_INDEX, SPEEDPPR_INDEX),
)

WORKLOADS = {w.name: w for w in (F4_DBLP, F7_WEBST)}


def pick_sources(wl: Workload, n: int, seed: int, k: int = 64) -> list[int]:
    """Distinct query sources, one per round."""
    rng = np.random.default_rng([SOURCE_SEED, wl.tag, seed])
    return [int(v) for v in rng.choice(n, size=min(k, n), replace=False)]

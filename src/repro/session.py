"""The one SparkSession factory, shared by the tests and the job entrypoints.

:func:`session` sets the launch arguments (master, driver heap) and then
builds the session with the settings every run uses. Launch arguments are
only honoured when the JVM starts, so they go into ``PYSPARK_SUBMIT_ARGS``
before the first session is created; a value already in the environment
wins. ``SPARK_DRIVER_MEM`` sets the driver heap, ``SPARK_MASTER`` the
master (default ``local[*]``).
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

#: the stand-in graphs' vectors hold at most a few thousand rows, so every
#: shuffle is one task and adaptive re-planning only adds overhead
SQL_CONF = {
    "spark.sql.shuffle.partitions": "1",
    "spark.sql.adaptive.enabled": "false",
    # shuffle joins throughout; a query that wants a broadcast join sets
    # the threshold back for itself
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    # unknown-size checkpointed relations default to Long.MaxValue, whose
    # per-join products explode into huge BigInts in the stats visitor;
    # broadcast planning is off anyway, so cap it
    "spark.sql.defaultSizeInBytes": str(1 << 30),
}


def driver_memory() -> tuple[str, str]:
    """``(heap, where it came from)``: ``SPARK_DRIVER_MEM`` if set, else
    ~75% of the container's cgroup memory limit, else 48g.

    The cgroup read is best-effort: a sandbox's sysfs emulation may not
    pass the host limit through. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent so the
    JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m, "env"
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(p) as f:
                raw = f.read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
        except (OSError, ValueError):
            continue
    return "48g", "fallback"


def session(app: str) -> SparkSession:
    """The SparkSession for ``app`` (the running one, if there is one)."""
    mem, _ = driver_memory()
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {mem} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    builder = SparkSession.builder.appName(app)
    for key, value in SQL_CONF.items():
        builder = builder.config(key, value)
    return builder.getOrCreate()

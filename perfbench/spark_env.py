"""Pinned Spark run conditions for the query benchmark.

The session settings are the ones ``jobs/_common.session`` applies (one
shuffle partition, AQE off, broadcast joins off, Arrow on, capped default
relation size), plus what makes a run repeatable and self-contained:

* ``local[k]`` with ``k = min(CORES, nproc)``, a fixed driver heap and a
  fixed garbage collector (the parallel one);
* UI and console progress bars off;
* every scratch file (Spark local dirs, JVM and Python temp files, the
  persisted indexes) under one work directory inside the checkout;
* ``PYTHONPATH`` pointing at ``src/`` so the Python workers that run the
  ``mapInPandas`` walks can import ``repro`` (it is not installed).

``spark.driver.memory`` and the JVM options are only honoured at JVM
launch, so :func:`prepare_env` must run before pyspark starts a gateway.
"""
from __future__ import annotations

import os
import shlex
import subprocess

CORES = 4
DRIVER_MEMORY = "2g"
#: the status store keeps this many finished jobs; job ids are read after
#: every query, which starts far fewer
RETAINED_JOBS = 1000

SQL_CONF = {
    "spark.sql.shuffle.partitions": "1",
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.defaultSizeInBytes": str(1 << 30),
}


def cores() -> int:
    return max(1, min(CORES, os.cpu_count() or 1))


def settings(work_dir: str) -> dict[str, str]:
    """Every launch-time Spark setting, as recorded in the README."""
    return {
        "master": f"local[{cores()}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.ui.retainedJobs": str(RETAINED_JOBS),
        "spark.local.dir": os.path.join(work_dir, "spark-local"),
        "spark.sql.warehouse.dir": os.path.join(work_dir, "warehouse"),
    }


def prepare_env(src_dir: str, work_dir: str) -> None:
    """Export the environment the JVM and the Python workers start with."""
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src_dir + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = tmp
    conf = settings(work_dir)
    args = ["--master", conf.pop("master"), "--driver-memory", conf.pop("spark.driver.memory")]
    for key, value in conf.items():
        args += ["--conf", f"{key}={value}"]
    # no hsperfdata files: both JVMs (spark-submit's launcher and the
    # driver) would write them under /tmp, outside the work dir. The
    # collector is pinned because the JVM otherwise picks it from the
    # machine's CPU and memory count; the parallel collector also starts
    # faster than G1, 2-3 s less per run on 4 cores.
    jvm_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:+UseParallelGC"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    args += ["--driver-java-options", jvm_opts, "pyspark-shell"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(shlex.quote(a) for a in args)


def start_session():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in SQL_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _jvm_proc(spark) -> subprocess.Popen | None:
    return getattr(spark.sparkContext._gateway, "proc", None)


def jvm_peak_rss_mb(spark) -> float:
    """Peak resident set of the driver JVM (``VmHWM``), in MB."""
    proc = _jvm_proc(spark)
    if proc is None:
        return 0.0
    try:
        with open(f"/proc/{proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def stop(spark) -> None:
    """Stop the session and wait until the JVM (and with it the Python
    worker daemon it started) has exited."""
    gateway = spark.sparkContext._gateway
    proc = _jvm_proc(spark)
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    # the gateway JVM exits when its stdin reaches EOF
    if proc.stdin is not None:
        proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()

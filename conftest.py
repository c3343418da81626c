import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import driver_memory, session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, built by
    :func:`repro.session.session` exactly as the job entrypoints build it."""
    s = session("repro")
    mem, src = driver_memory()
    # one line in the test output that tells whether the cgroup derivation
    # saw the real memory limit
    print(
        f"[conftest] SPARK_DRIVER_MEM={mem} (src={src}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()

"""Shared bootstrap for the spark-submit job entrypoints.

Jobs are thin wrappers: every harness is a function taking a SparkSession
(in ``repro.experiments``), and :func:`repro.session.session` builds it
exactly as the tests' session fixture does.
"""
import os

from repro.session import session  # noqa: F401  (the jobs import it from here)


def scale() -> float:
    """Dataset scale multiplier (REPRO_SCALE env; 1.0 = DESIGN.md sizes)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))

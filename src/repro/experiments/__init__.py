"""Experiment harnesses — one module per reproduced table (DESIGN.md §6).

Each harness is a function ``(spark, …) -> pandas.DataFrame`` printing the
same row structure the paper reports; ``jobs/`` wraps them for
``spark-submit``.
"""

"""Campaign benchmark suite: four workloads, cold and warm, plus a
per-layer ledger from one traced repetition.

``PYTHONPATH=src python -m benchmarks.suite`` runs every workload, each
in a fresh interpreter (``benchmarks/suite/run.py``); see ``README.md``
in this directory for the metrics, the workloads and how to compare two
commits.
"""

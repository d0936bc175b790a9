"""The repository benchmark: calibrated end-to-end and per-layer metrics.

``python3 -m bench_e2e`` runs four workloads over the reproduction's
real entry points (``Session``, the in-process gateway, ``repro serve``
over sockets), verifies every sampled output bitwise against the
sequential ``Session.run`` path, and prints each metric by name with its
unit.  ``BENCHMARK.json`` at the repository root is the contract; the
README beside this file explains the workloads, the estimator and the
moves / flat-on predictions for every per-layer metric.
"""

"""The repo's one benchmark: four closed-loop workloads, one result schema.

``BENCHMARK.json`` at the repo root names the command, the workloads and
the metrics; ``README.md`` in this directory defines each of them and
records which layer metric is expected to move which end-to-end metric.
"""

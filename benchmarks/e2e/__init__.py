"""End-to-end benchmark of the profiler, its recorder and its campaign service.

``run.py`` is the entry point; ``README.md`` describes the workloads and
metrics.
"""

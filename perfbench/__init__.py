"""The repository's benchmark: simulator speed and simulated-array results.

See ``perfbench/README.md`` for the workloads, the metrics and how to run
them; ``perfbench/run.py`` is the entry point.
"""

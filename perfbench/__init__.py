"""The repository benchmark: spec in, canonical result out, layer by layer.

Run it from the repository root::

    python3 perfbench/run.py --workload yield_lot --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which
layer metric should move which end-to-end metric.
"""

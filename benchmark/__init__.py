"""Repository benchmark: CP-ALS iteration time and serve-job latency/throughput.

See ``benchmark/README.md`` for the workloads, the metrics and the
comparison protocol; ``python3 benchmark/run.py --help`` for the command.
"""

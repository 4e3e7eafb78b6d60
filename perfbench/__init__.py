"""The repository's benchmark: end-to-end and per-layer numbers for the proxy.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload named in ``BENCHMARK.json`` and prints
one JSON result as its last line of output.  See :mod:`perfbench.phases`
for the phases of a run and :mod:`perfbench.tracing` for the spans a
traced run records.
"""

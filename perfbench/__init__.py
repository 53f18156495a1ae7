"""perfbench: the repo's two-clock benchmark (modeled time + host time).

See ``perfbench/README.md`` for the metric and workload definitions.
"""

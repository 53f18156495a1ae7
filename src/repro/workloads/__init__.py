"""The paper's three applications and their workload generators.

* **UPC** (user profile cache): YCSB-C-style uniform key lookups on a
  chained hash table with long chains -- section 7's Table 2.
* **TC** (threaded conversations): YCSB-E-style scans on a B+Tree.
* **TSV** (time-series visualization): windowed aggregations over a
  synthetic Open-uPMU-like power-grid trace stored in a B+Tree keyed by
  timestamp.
"""

from repro.workloads.ycsb import UniformKeyGenerator, ZipfianKeyGenerator
from repro.workloads.upmu import UPMU_SAMPLE_HZ, generate_upmu_trace
from repro.workloads.apps import (
    TSV_WINDOWS_S,
    Workload,
    build_tc,
    build_tsv,
    build_upc,
)

__all__ = [
    "TSV_WINDOWS_S",
    "UPMU_SAMPLE_HZ",
    "UniformKeyGenerator",
    "Workload",
    "ZipfianKeyGenerator",
    "build_tc",
    "build_tsv",
    "build_upc",
    "generate_upmu_trace",
]

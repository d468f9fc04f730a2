"""Prior-work comparators the experiments run against the paper's algorithms.

* :func:`block_aggregation_pa` — PA by aggregation within blocks, the
  prior scheme that needs Omega(nD) messages on Figure 2a's apex grid
  (Section 3.1; ``bench_fig2_bad_example``);
* :func:`ghs_mst` — a GHS-style MST, message-optimal but round-poor, the
  other arm of Corollary 1.3's crossover (``bench_cor13_mst``).
"""

from .ghs_mst import ghs_mst
from .naive_block_pa import block_aggregation_pa

__all__ = ["block_aggregation_pa", "ghs_mst"]

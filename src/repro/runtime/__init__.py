"""Execution runtime — the reproduction's real parallel search engines.

Where :mod:`repro.devices` *models* the paper's accelerators, this package
*executes* the RBC search on the host machine:

* :mod:`repro.runtime.executor` — single-process, NumPy-vectorized batch
  search (the lane-parallel analogue of one GPU);
* :mod:`repro.runtime.maskplan` — where candidates come from: the
  dispatcher's rank-range generator and the batch engine's plan cache;
* :mod:`repro.runtime.partition` — seed-space partitioning.

The multi-core search (the analogue of the paper's OpenMP SALTED-CPU)
is the fleet engine's worker set, one scan thread per core
(:class:`repro.fleet.batcher.WorkerSet`): ``pool:`` and ``parallel:``
specs build it.

Reduced-scale runs of these engines validate the device models' control
flow in the test suite.

All engines here are registered with :mod:`repro.engines` — prefer
``build_engine("batch:sha3-256,bs=16384")`` over direct construction.
``SearchResult`` / ``ShellStats`` now live in
:mod:`repro.engines.result` and are re-exported for compatibility.
"""

from repro.runtime.executor import BatchSearchExecutor, SearchResult, ShellStats
from repro.runtime.partition import partition_ranks, thread_rank_ranges
from repro.runtime.original_batch import BatchOriginalRBCSearch

__all__ = [
    "BatchSearchExecutor",
    "SearchResult",
    "ShellStats",
    "partition_ranks",
    "thread_rank_ranges",
    "BatchOriginalRBCSearch",
]

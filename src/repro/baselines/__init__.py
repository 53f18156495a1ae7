"""The compared systems of section 7.

* :class:`~repro.baselines.rpc.RpcSystem` -- pointer traversals offloaded
  as RPCs to the memory-node CPU (eRPC/DPDK-style stack); ``wimpy=True``
  gives RPC-W, the 1.0 GHz SmartNIC-core emulation.
* :class:`~repro.baselines.cache.CacheSystem` -- Fastswap-style demand
  paging: traversals run at the CPU node against a page cache, every miss
  is a 4 KB fault over the network.
* :class:`~repro.baselines.aifm.CacheRpcSystem` -- AIFM-style
  data-structure-aware object cache with RPC fallback over a TCP-flavored
  stack (single node, as in the paper).

All of them execute the *same* compiled kernels through the same
interpreter as pulse; only where the instructions run and what each step
costs differ -- which is precisely the comparison the paper makes.  Each
is a :class:`~repro.core.cluster.Rack`, as pulse's cluster is, so one
measurement contract reads all five systems.
"""

from repro.baselines.rpc import RpcSystem
from repro.baselines.cache import CacheSystem
from repro.baselines.aifm import CacheRpcSystem

__all__ = ["CacheRpcSystem", "CacheSystem", "RpcSystem"]

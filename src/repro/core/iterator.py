"""The pulse iterator abstraction (section 3).

A data-structure developer ports an operation by providing:

* ``program`` -- the compiled ``next()``/``end()`` logic as a pulse ISA
  :class:`~repro.isa.program.Program` (usually produced with
  :class:`~repro.core.kernel.KernelBuilder`);
* :meth:`PulseIterator.init` -- data-structure-specific Python that runs
  on the CPU node and produces the start pointer and initial scratch pad
  (e.g. the hash-bucket head and the search key);
* :meth:`PulseIterator.finalize` -- decodes the returned scratch pad into
  the operation's result.

This mirrors the paper's Listing 1: ``init()`` executes at the CPU node
while ``next()``/``end()`` (here: the program) execute wherever the
offload engine decides -- accelerator, memory-node CPU (RPC baselines), or
the CPU node itself with remote reads.  :func:`walk` is the loop of every
host that runs a kernel on a CPU: the client fallback, the Cache and
Cache+RPC baselines and the RPC worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.core.messages import RequestStatus
from repro.isa.instructions import ExecutionFault, wrap64
from repro.isa.program import Program
from repro.mem.translation import ProtectionFault, TranslationFault


@dataclass(frozen=True)
class FaultInfo:
    """Structured description of a failed traversal.

    ``kind`` classifies where the fault arose: ``"execution"`` (ISA
    fault in the iterator logic), ``"translation"`` (bad pointer),
    ``"protection"`` (permission check), ``"budget"`` (iteration cap
    exhausted without completion), or ``"remote"`` (reported by the
    rack in a FAULT response, reason string carried on the wire).
    """

    reason: str
    kind: str = "execution"


class TraversalResult:
    """What the client hands back to the application.

    Fault state is a structured :class:`FaultInfo` under ``fault``
    (``None`` on success); ``ok`` is the success predicate.
    """

    __slots__ = ("value", "iterations", "latency_ns", "offloaded",
                 "hops", "fault")

    def __init__(self, value: Any, iterations: int,
                 latency_ns: float = 0.0, offloaded: bool = True,
                 hops: int = 0, fault: Optional[FaultInfo] = None):
        self.value = value
        self.iterations = iterations
        self.latency_ns = latency_ns
        self.offloaded = offloaded
        self.hops = hops               # inter-memory-node continuations
        self.fault = fault

    @classmethod
    def from_response(cls, iterator: "PulseIterator", response,
                      latency_ns: float) -> "TraversalResult":
        """The result an offloaded traversal's terminal response gives:
        the finalized scratch pad on DONE, a ``"remote"`` fault carrying
        the wire reason on FAULT."""
        faulted = response.status is RequestStatus.FAULT
        return cls(
            value=None if faulted else iterator.finalize(response.scratch),
            iterations=response.iterations_done,
            latency_ns=latency_ns,
            offloaded=True,
            hops=response.node_hops,
            fault=(FaultInfo(reason=response.fault_reason, kind="remote")
                   if faulted else None),
        )

    @property
    def ok(self) -> bool:
        """True when the traversal completed without a fault."""
        return self.fault is None


class PulseIterator:
    """Base class for offloadable pointer traversals."""

    #: compiled next()/end() logic; subclasses must set this
    program: Program = None

    #: True when this iterator is a point lookup whose terminal node the
    #: split index can cache (see ``repro.index``).  Indexable iterators
    #: must implement the four ``index_*`` hooks below.
    indexable: bool = False

    # -- split-index hooks (indexable point lookups only) --------------------
    def index_key(self, *args) -> int:
        """The directory key for this lookup's ``init(*args)``."""
        raise NotImplementedError

    def index_window(self) -> Tuple[int, int]:
        """(offset, size) to read at the terminal node for a direct hit."""
        raise NotImplementedError

    def index_locate(self, response) -> Optional[int]:
        """Terminal-node vaddr from a completed traversal response.

        Returns ``None`` when the traversal did not find the key (a
        negative lookup caches nothing).
        """
        raise NotImplementedError

    def index_decode(self, key: int, raw: bytes):
        """Decode a direct read's bytes: (matched, value).

        ``matched=False`` means the bytes at the cached address no
        longer describe ``key`` (e.g. a B-tree leaf split moved it) --
        the client treats it like a miss and falls back to traversal.
        """
        raise NotImplementedError

    def init(self, *args) -> Tuple[int, bytes]:
        """CPU-node setup: returns (start cur_ptr, initial scratch bytes).

        Runs on the CPU node with full Python expressiveness -- the paper
        allows arbitrary logic here (e.g. computing a hash to pick the
        bucket) because it is not offloaded.
        """
        raise NotImplementedError

    def finalize(self, scratch: bytes) -> Any:
        """Decode the scratch pad returned by the traversal."""
        raise NotImplementedError


def walk(machine, read, write, fetch, compute, budget=None):
    """Process body: step ``machine`` on a CPU until RETURN.

    The one loop of every host that runs a kernel on a CPU (the client
    fallback, the Cache and Cache+RPC baselines at the CPU node, the RPC
    worker at a memory node); the caller's process drives it with
    ``yield from``, so it adds no process of its own.  Each iteration
    runs ``yield from fetch(addr)`` -- whatever brings the window at
    ``addr`` to the CPU; a ``False`` return ends the walk unfinished --
    then reads the window once with ``read``, calls ``machine.step`` on
    it (STOREs go to ``write``) and yields ``compute(executed)``, the
    event that charges its logic.

    Returns ``(iterations, fault, done)``.  ``fault`` is a
    :class:`FaultInfo` when ``fetch``, the read or the step raised, or
    when ``budget`` iterations ran without RETURN; ``done`` is True once
    RETURN was reached.
    """
    offset, size = machine.program.load_window
    iterations = 0
    while True:
        addr = wrap64(machine.cur_ptr + offset)
        try:
            if not (yield from fetch(addr)):
                return iterations, None, False
            done, executed = machine.step(read(addr, size), write)
        except ExecutionFault as exc:
            return iterations, FaultInfo(str(exc), "execution"), False
        except TranslationFault as exc:
            return iterations, FaultInfo(str(exc), "translation"), False
        except ProtectionFault as exc:
            return iterations, FaultInfo(str(exc), "protection"), False
        iterations += 1
        yield compute(executed)
        if done:
            return iterations, None, True
        if budget is not None and iterations >= budget:
            return (iterations,
                    FaultInfo(f"traversal exceeded {budget} iterations",
                              "budget"),
                    False)

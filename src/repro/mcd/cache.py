"""Set-associative caches and the memory hierarchy.

Matches the paper's Table 1: 64 KB 2-way L1 instruction and data caches, a
1 MB direct-mapped unified L2 in the load/store domain, and an 80 ns main
memory.  L1/L2 access times are counted in *domain cycles* by the pipeline
(their latency scales with the LS-domain frequency); main-memory time is
frequency-independent -- exactly the split that motivates the paper's mu-f
service-rate model (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

#: what a set reads as until its first miss allocates its list
_UNTOUCHED: Sequence[int] = ()


class Cache:
    """A set-associative cache with LRU replacement.

    Only tags are modelled (no data), which is all that hit/miss behaviour
    needs.  ``assoc=1`` gives a direct-mapped cache.  A set gets its own
    list on its first miss; until then it reads as an empty sequence, so a
    short run does not pay for (or garbage-collect) thousands of empty
    lists it never touches.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int, line_size: int) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_size <= 0:
            raise ValueError("size, associativity and line size must be positive")
        if size_bytes % (assoc * line_size) != 0:
            raise ValueError("size must be a multiple of assoc * line_size")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size_bytes // (assoc * line_size)
        # each set is an LRU-ordered list of tags (most recent last)
        self._sets: List[Sequence[int]] = [_UNTOUCHED] * self.n_sets
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def _index_tag(self, addr: int) -> "tuple[int, int]":
        line = addr // self.line_size
        return line % self.n_sets, line // self.n_sets

    def access(self, addr: int) -> bool:
        """Access ``addr``; return True on hit.  Misses allocate the line."""
        index, tag = self._index_tag(addr)
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if ways is _UNTOUCHED:
            self._sets[index] = [tag]
            return False
        ways.append(tag)
        if len(ways) > self.assoc:
            ways.pop(0)
        return False

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU state or counters."""
        index, tag = self._index_tag(addr)
        return tag in self._sets[index]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access: which levels hit."""

    l1_hit: bool
    l2_hit: bool  # meaningful only when not l1_hit

    @property
    def went_to_memory(self) -> bool:
        return not self.l1_hit and not self.l2_hit


class MemoryHierarchy:
    """L1I + L1D + unified L2 + main memory."""

    def __init__(
        self,
        l1i: Cache,
        l1d: Cache,
        l2: Cache,
        l1_hit_cycles: int,
        l2_hit_cycles: int,
        memory_latency_ns: float,
    ) -> None:
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.l1_hit_cycles = l1_hit_cycles
        self.l2_hit_cycles = l2_hit_cycles
        self.memory_latency_ns = memory_latency_ns
        self.memory_accesses = 0

    @classmethod
    def from_config(cls, config: "MachineConfig") -> "MemoryHierarchy":  # noqa: F821
        from repro.mcd.domains import MachineConfig  # local to avoid cycle

        assert isinstance(config, MachineConfig)
        return cls(
            l1i=Cache("L1I", config.l1i_size, config.l1i_assoc, config.line_size),
            l1d=Cache("L1D", config.l1d_size, config.l1d_assoc, config.line_size),
            l2=Cache("L2", config.l2_size, config.l2_assoc, config.line_size),
            l1_hit_cycles=config.l1_hit_cycles,
            l2_hit_cycles=config.l2_hit_cycles,
            memory_latency_ns=config.memory_latency_ns,
        )

    # ------------------------------------------------------------------

    def access_data(self, addr: int) -> AccessResult:
        """Access the data side (loads and stores; write-allocate)."""
        return self._access(self.l1d, addr)

    def access_inst(self, pc: int) -> AccessResult:
        """Access the instruction side."""
        return self._access(self.l1i, pc)

    def _access(self, l1: Cache, addr: int) -> AccessResult:
        if l1.access(addr):
            return AccessResult(l1_hit=True, l2_hit=True)
        l2_hit = self.l2.access(addr)
        if not l2_hit:
            self.memory_accesses += 1
        return AccessResult(l1_hit=False, l2_hit=l2_hit)

    # ------------------------------------------------------------------

    def latency_split(self, result: AccessResult) -> "tuple[int, float]":
        """Split an access latency into (domain cycles, fixed nanoseconds).

        The cycle part scales with the accessing domain's frequency; the ns
        part (main memory) does not.
        """
        cycles = self.l1_hit_cycles
        fixed_ns = 0.0
        if not result.l1_hit:
            cycles += self.l2_hit_cycles
            if not result.l2_hit:
                fixed_ns += self.memory_latency_ns
        return cycles, fixed_ns

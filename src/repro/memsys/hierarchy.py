"""Cache hierarchy + memory channel simulation of an access trace."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import units
from repro.dram.address_map import AddressMapper
from repro.dram.geometry import DramGeometry, RankLocation
from repro.errors import ConfigurationError
from repro.memsys.access import AccessTrace, MemoryAccess
from repro.memsys.cache import CacheConfig, xgene2_l1_config, xgene2_l2_config


@dataclass
class HierarchyStats:
    """Aggregate statistics of simulating one workload trace."""

    total_accesses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0
    l1_accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    writebacks: int = 0
    per_mcu_reads: Dict[int, int] = field(default_factory=dict)
    per_mcu_writes: Dict[int, int] = field(default_factory=dict)
    per_rank_accesses: Dict[RankLocation, int] = field(default_factory=dict)

    @property
    def dram_accesses(self) -> int:
        return self.dram_reads + self.dram_writes

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def dram_access_fraction(self) -> float:
        """Fraction of program memory accesses that reach DRAM."""
        return self.dram_accesses / self.total_accesses if self.total_accesses else 0.0


def _lru_level(
    sets: np.ndarray, lines: np.ndarray, ways: int, writes: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """True-LRU simulation of one cache level over an access stream.

    ``sets`` gives each access's cache set (distinct caches use distinct
    set ids) and ``lines`` its line address.  ``writes`` marks the
    accesses that dirty their line (``None`` for a level whose dirty
    state is never read).  Returns two boolean masks in stream order:
    the misses, and the misses whose eviction dropped a dirty line.

    Sets are independent, so the stream is stably sorted by set and each
    set's accesses are replayed together.  A repeat access to the line
    its set touched last is a hit that leaves the LRU order unchanged;
    such runs are folded into their first access (carrying any write in
    the run) before the sequential replay.
    """
    n = int(sets.size)
    misses = np.zeros(n, dtype=bool)
    dirty_evictions = np.zeros(n, dtype=bool)
    if n == 0:
        return misses, dirty_evictions
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = lines[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (sorted_sets[1:] != sorted_sets[:-1]) | (sorted_lines[1:] != sorted_lines[:-1])
    firsts = np.flatnonzero(starts)
    if writes is None:
        run_writes: List[bool] = [False] * int(firsts.size)
    else:
        run_writes = np.logical_or.reduceat(writes[order], firsts).tolist()

    miss_runs: List[int] = []
    dirty_runs: List[int] = []
    current = -1
    resident: List[int] = []
    dirty: set = set()
    for run, (cache_set, line, write) in enumerate(
        zip(sorted_sets[firsts].tolist(), sorted_lines[firsts].tolist(), run_writes)
    ):
        if cache_set != current:
            current = cache_set
            resident = []
            dirty = set()
        if line in resident:
            resident.remove(line)
            resident.append(line)
        else:
            miss_runs.append(run)
            if len(resident) == ways:
                victim = resident.pop(0)
                if victim in dirty:
                    dirty.discard(victim)
                    dirty_runs.append(run)
            resident.append(line)
        if write:
            dirty.add(line)
    misses[order[firsts[miss_runs]]] = True
    dirty_evictions[order[firsts[dirty_runs]]] = True
    return misses, dirty_evictions


class MemoryHierarchy:
    """Two-level cache hierarchy in front of the MCUs.

    Every workload access is filtered through a private L1 (per thread)
    and a shared L2; L2 misses and dirty writebacks become DRAM commands,
    counted per MCU and per DIMM/rank.  Each :meth:`simulate` call starts
    from cold caches and zeroed command counters.
    """

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        l1_config: Optional[CacheConfig] = None,
        l2_config: Optional[CacheConfig] = None,
        num_threads: int = 1,
    ) -> None:
        if num_threads <= 0:
            raise ConfigurationError("num_threads must be positive")
        self.geometry = geometry or DramGeometry()
        if self.geometry.num_dimms % units.NUM_MCUS != 0:
            raise ConfigurationError("num_dimms must be divisible by the number of MCUs")
        self.num_threads = num_threads
        self._l1_config = l1_config or xgene2_l1_config()
        self._l2_config = l2_config or xgene2_l2_config()
        self._mapper = AddressMapper(self.geometry)

    def simulate(self, trace: Union[AccessTrace, Iterable[MemoryAccess]]) -> HierarchyStats:
        """Run the whole trace through the hierarchy and collect statistics.

        An L2 miss issues a DRAM read of the missing address.  It also
        issues a DRAM write when it evicted a dirty line (or when it is a
        write and the L2 is write-through); that write is charged to the
        missing access's address, not the victim's.
        """
        trace = AccessTrace.coerce(trace)
        total = len(trace)
        writes = int(np.count_nonzero(trace.is_write))

        l1 = self._l1_config
        l1_lines = trace.address // l1.line_bytes
        l1_sets = (trace.thread_id % self.num_threads) * l1.num_sets + l1_lines % l1.num_sets
        l1_misses, _ = _lru_level(l1_sets, l1_lines, l1.associativity)

        l2 = self._l2_config
        l2_addresses = trace.address[l1_misses]
        l2_writes = trace.is_write[l1_misses]
        l2_lines = l2_addresses // l2.line_bytes
        l2_misses, dirty_evictions = _lru_level(
            l2_lines % l2.num_sets, l2_lines, l2.associativity,
            l2_writes if l2.write_back else None,
        )
        dram_writes = dirty_evictions if l2.write_back else l2_misses & l2_writes

        num_ranks = self.geometry.num_ranks
        read_ranks = np.bincount(
            self._mapper.rank_indices(l2_addresses[l2_misses]), minlength=num_ranks
        )
        write_ranks = np.bincount(
            self._mapper.rank_indices(l2_addresses[dram_writes]), minlength=num_ranks
        )
        # Rank index r sits on DIMM r // ranks_per_dimm, driven by MCU dimm % NUM_MCUS.
        rank_mcus = (np.arange(num_ranks) // self.geometry.ranks_per_dimm) % units.NUM_MCUS
        mcu_reads = np.bincount(rank_mcus, weights=read_ranks, minlength=units.NUM_MCUS)
        mcu_writes = np.bincount(rank_mcus, weights=write_ranks, minlength=units.NUM_MCUS)

        return HierarchyStats(
            total_accesses=total,
            read_accesses=total - writes,
            write_accesses=writes,
            l1_accesses=total,
            l1_misses=int(l2_addresses.size),
            l2_accesses=int(l2_addresses.size),
            l2_misses=int(np.count_nonzero(l2_misses)),
            dram_reads=int(read_ranks.sum()),
            dram_writes=int(write_ranks.sum()),
            writebacks=int(np.count_nonzero(dirty_evictions)),
            per_mcu_reads={mcu: int(mcu_reads[mcu]) for mcu in range(units.NUM_MCUS)},
            per_mcu_writes={mcu: int(mcu_writes[mcu]) for mcu in range(units.NUM_MCUS)},
            per_rank_accesses={
                rank: int(read_ranks[index] + write_ranks[index])
                for index, rank in enumerate(self.geometry.iter_ranks())
            },
        )

"""Per-access object oracle of the profiling path.

This is the profiling pipeline as it ran before the columnar layer: the
instrumentation builds one frozen :class:`MemoryAccess` per access, the
hierarchy walks them one at a time through ``OrderedDict`` LRU sets and
per-MCU command counters, reuse is tracked with a last-seen dict and the
entropy with a ``Counter``.  The library's columnar path
(:class:`repro.memsys.access.AccessTrace`, ``MemoryHierarchy.simulate``,
``reuse_statistics``, ``DataEntropyEstimator.estimate``) must reproduce
every number it computes exactly; :class:`OracleProfiler` strings the
pieces together into a whole :class:`WorkloadProfile`.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro import units
from repro.dram.address_map import AddressMapper
from repro.dram.geometry import CellLocation, DramGeometry, RankLocation
from repro.errors import ConfigurationError, DataError, WorkloadError
from repro.memsys.access import AccessType, MemoryAccess
from repro.memsys.cache import CacheConfig, xgene2_l1_config, xgene2_l2_config
from repro.memsys.hierarchy import HierarchyStats
from repro.profiling.entropy import shannon_entropy_bits
from repro.profiling.profile import WorkloadProfile
from repro.profiling.profiler import WorkloadProfiler, scaled_profiling_cache_configs
from repro.profiling.reuse import ReuseStatistics
from repro.workloads.base import Workload, float_to_word


# ---------------------------------------------------------------------------
# Instrumentation: one MemoryAccess object per access.
# ---------------------------------------------------------------------------
class ObjectInstrumentedArray:
    """An instrumented allocation that records each access as an object."""

    def __init__(self, recorder: "ObjectTraceRecorder", base_address: int, length: int,
                 name: str = "") -> None:
        if length <= 0:
            raise WorkloadError("array length must be positive")
        self._recorder = recorder
        self.base_address = base_address
        self.length = length
        self.name = name
        self._data = np.zeros(length, dtype=float)

    def _address(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise WorkloadError(
                f"index {index} out of bounds for array {self.name!r} of length {self.length}"
            )
        return self.base_address + index * units.WORD_BYTES

    def read(self, index: int, thread_id: int = 0) -> float:
        address = self._address(index)
        value = float(self._data[index])
        self._recorder.record_access(address, AccessType.READ, float_to_word(value), thread_id)
        return value

    def write(self, index: int, value: float, thread_id: int = 0) -> None:
        address = self._address(index)
        self._data[index] = float(value)
        self._recorder.record_access(
            address, AccessType.WRITE, float_to_word(float(value)), thread_id
        )


class ObjectTraceRecorder:
    """Collects the trace as a list of :class:`MemoryAccess` objects."""

    HEAP_BASE = 0x1000_0000

    def __init__(self) -> None:
        self.accesses: List[MemoryAccess] = []
        self.instruction_count = 0
        self.allocated_bytes = 0
        self._next_address = self.HEAP_BASE

    def alloc(self, num_words: int, name: str = "") -> ObjectInstrumentedArray:
        array = ObjectInstrumentedArray(self, self._next_address, num_words, name=name)
        size = num_words * units.WORD_BYTES
        self._next_address += size
        remainder = self._next_address % 4096
        if remainder:
            self._next_address += 4096 - remainder
        self.allocated_bytes += size
        return array

    def record_access(self, address: int, access_type: AccessType, value: int,
                      thread_id: int = 0) -> None:
        self.instruction_count += 1
        self.accesses.append(
            MemoryAccess(
                address=address,
                access_type=access_type,
                instruction_index=self.instruction_count,
                value=value,
                thread_id=thread_id,
            )
        )

    def compute(self, instructions: int = 1) -> None:
        if instructions < 0:
            raise WorkloadError("instruction count cannot be negative")
        self.instruction_count += instructions

    @property
    def num_accesses(self) -> int:
        return len(self.accesses)

    @property
    def memory_instruction_fraction(self) -> float:
        if self.instruction_count == 0:
            return 0.0
        return self.num_accesses / self.instruction_count


def record_object_trace(workload: Workload) -> ObjectTraceRecorder:
    """``Workload.record_trace`` into an :class:`ObjectTraceRecorder`."""
    recorder = ObjectTraceRecorder()
    workload._rng = np.random.default_rng(workload.seed)
    workload.run(recorder)
    if recorder.num_accesses == 0:
        raise WorkloadError(f"workload {workload.display_name} produced no memory accesses")
    return recorder


# ---------------------------------------------------------------------------
# Caches and memory controllers, one access at a time.
# ---------------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss counters of one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class SetAssociativeCache:
    """A single cache level with true-LRU replacement.

    ``access`` returns True on a hit.  Dirty evictions are counted as
    writebacks (they become DRAM write traffic in the hierarchy model).
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # One LRU-ordered dict per set: line_tag -> dirty flag.
        self._sets: Dict[int, OrderedDict] = {}

    def _locate(self, address: int):
        line = address // self.config.line_bytes
        set_index = line % self.config.num_sets
        tag = line // self.config.num_sets
        return set_index, tag

    def access(self, address: int, is_write: bool = False) -> bool:
        """Perform one access; returns True on hit, False on miss."""
        if address < 0:
            raise ConfigurationError("address must be non-negative")
        set_index, tag = self._locate(address)
        cache_set = self._sets.setdefault(set_index, OrderedDict())
        self.stats.accesses += 1

        if tag in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(tag)
            if is_write and self.config.write_back:
                cache_set[tag] = True
            return True

        self.stats.misses += 1
        if len(cache_set) >= self.config.associativity:
            _victim_tag, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
        cache_set[tag] = bool(is_write and self.config.write_back)
        return False

    def flush(self) -> int:
        """Drop every line; returns the number of dirty lines written back."""
        dirty = sum(1 for s in self._sets.values() for d in s.values() if d)
        self.stats.writebacks += dirty
        self._sets.clear()
        return dirty


@dataclass
class McuStats:
    """Command counters of one MCU."""

    read_commands: int = 0
    write_commands: int = 0

    @property
    def total_commands(self) -> int:
        return self.read_commands + self.write_commands


class MemoryControllerUnit:
    """One memory channel: command accounting for the attached DIMM."""

    def __init__(self, index: int) -> None:
        if index < 0:
            raise ConfigurationError("MCU index must be non-negative")
        self.index = index
        self.stats = McuStats()

    def issue(self, is_write: bool) -> None:
        if is_write:
            self.stats.write_commands += 1
        else:
            self.stats.read_commands += 1

    def reset(self) -> None:
        self.stats = McuStats()


class MemoryChannelSystem:
    """All MCUs plus the address mapping onto DIMMs/ranks."""

    def __init__(self, geometry: Optional[DramGeometry] = None,
                 num_mcus: int = units.NUM_MCUS) -> None:
        if num_mcus <= 0:
            raise ConfigurationError("num_mcus must be positive")
        self.geometry = geometry or DramGeometry()
        if self.geometry.num_dimms % num_mcus != 0:
            raise ConfigurationError("num_dimms must be divisible by num_mcus")
        self.num_mcus = num_mcus
        self.mcus = [MemoryControllerUnit(i) for i in range(num_mcus)]
        self.mapper = AddressMapper(self.geometry)
        self.rank_accesses: Dict[RankLocation, int] = {
            rank: 0 for rank in self.geometry.iter_ranks()
        }

    def mcu_for_dimm(self, dimm: int) -> MemoryControllerUnit:
        return self.mcus[dimm % self.num_mcus]

    def access(self, address: int, is_write: bool) -> CellLocation:
        """Route one DRAM access; returns the DRAM coordinates it hit."""
        location = self.mapper.map_address(address)
        self.mcu_for_dimm(location.dimm).issue(is_write)
        self.rank_accesses[location.rank_location] += 1
        return location

    def total_commands(self) -> int:
        return sum(mcu.stats.total_commands for mcu in self.mcus)

    def per_mcu_commands(self) -> Dict[int, McuStats]:
        return {mcu.index: mcu.stats for mcu in self.mcus}

    def reset(self) -> None:
        for mcu in self.mcus:
            mcu.reset()
        for rank in self.rank_accesses:
            self.rank_accesses[rank] = 0


def oracle_simulate(
    trace: Iterable[MemoryAccess],
    geometry: Optional[DramGeometry] = None,
    l1_config: Optional[CacheConfig] = None,
    l2_config: Optional[CacheConfig] = None,
    num_threads: int = 1,
) -> HierarchyStats:
    """``MemoryHierarchy(...).simulate(trace)``, one access at a time."""
    if num_threads <= 0:
        raise ConfigurationError("num_threads must be positive")
    l1_config = l1_config or xgene2_l1_config()
    l2_config = l2_config or xgene2_l2_config()
    l1_caches = [SetAssociativeCache(l1_config, name=f"L1-{t}") for t in range(num_threads)]
    l2_cache = SetAssociativeCache(l2_config, name="L2")
    channels = MemoryChannelSystem(geometry or DramGeometry())

    stats = HierarchyStats()
    for access in trace:
        stats.total_accesses += 1
        if access.is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1

        l1 = l1_caches[access.thread_id % num_threads]
        stats.l1_accesses += 1
        if l1.access(access.address, access.is_write):
            continue
        stats.l1_misses += 1

        stats.l2_accesses += 1
        writebacks_before = l2_cache.stats.writebacks
        if l2_cache.access(access.address, access.is_write):
            continue
        stats.l2_misses += 1

        # L2 miss: fetch the line from DRAM (a read command), and account
        # a write command for the dirty line this miss may have evicted.
        channels.access(access.address, is_write=False)
        stats.dram_reads += 1
        new_writebacks = l2_cache.stats.writebacks - writebacks_before
        if new_writebacks > 0 or (access.is_write and not l2_config.write_back):
            channels.access(access.address, is_write=True)
            stats.dram_writes += 1
            stats.writebacks += new_writebacks

    for index, mcu_stats in channels.per_mcu_commands().items():
        stats.per_mcu_reads[index] = mcu_stats.read_commands
        stats.per_mcu_writes[index] = mcu_stats.write_commands
    stats.per_rank_accesses = dict(channels.rank_accesses)
    return stats


# ---------------------------------------------------------------------------
# Reuse and entropy, one access at a time.
# ---------------------------------------------------------------------------
def oracle_reuse_statistics(trace: Iterable[MemoryAccess]) -> ReuseStatistics:
    """``reuse_statistics`` with a last-seen dict."""
    last_seen: Dict[int, int] = {}
    total_distance = 0.0
    reused = 0
    total = 0
    for access in trace:
        total += 1
        word = access.word_address
        previous = last_seen.get(word)
        if previous is not None:
            total_distance += access.instruction_index - previous
            reused += 1
        last_seen[word] = access.instruction_index
    if total == 0:
        raise DataError("cannot compute reuse statistics of an empty trace")
    mean_distance = total_distance / reused if reused else float(total)
    return ReuseStatistics(
        mean_reuse_distance_instructions=mean_distance,
        reused_access_fraction=reused / total,
        unique_words=len(last_seen),
        total_accesses=total,
    )


def oracle_entropy(trace: Iterable[MemoryAccess], value_bits: int = 32,
                   max_samples: int = 200_000) -> float:
    """``DataEntropyEstimator(value_bits, max_samples).estimate`` with a ``Counter``."""
    counter: Counter = Counter()
    samples = 0
    for access in trace:
        if not access.is_write:
            continue
        counter[(access.value >> (64 - value_bits)) & ((1 << value_bits) - 1)] += 1
        samples += 1
        if samples >= max_samples:
            break
    if samples == 0:
        return 0.0
    return shannon_entropy_bits(counter.values())


class OracleProfiler(WorkloadProfiler):
    """:class:`WorkloadProfiler` on the per-access object path.

    Only trace recording, simulation, reuse and entropy differ; feature
    assembly is the library's own.
    """

    def profile(self, workload: Workload) -> WorkloadProfile:
        recorder = record_object_trace(workload)
        configs = scaled_profiling_cache_configs()
        stats = oracle_simulate(
            recorder.accesses, geometry=self.geometry, l1_config=configs["l1"],
            l2_config=configs["l2"], num_threads=workload.threads,
        )
        reuse_stats = oracle_reuse_statistics(recorder.accesses)
        estimator = self._entropy_estimator
        hdp = oracle_entropy(recorder.accesses, estimator.value_bits, estimator.max_samples)
        return self._assemble_profile(workload, recorder, stats, reuse_stats, hdp)

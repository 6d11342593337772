"""Workload abstraction and the instrumentation layer.

The paper instruments real benchmarks with DynamoRIO to capture every
memory access (address, read/write, written data) and the dynamic
instruction count.  Here each benchmark is re-implemented as a miniature
Python kernel operating on :class:`InstrumentedArray` objects: real
computations produce a real access trace with real data values, from
which the profiler derives the program-inherent features
(Section III.D).

Footprints are miniature (tens of kilobytes instead of the paper's 8 GB)
so that traces stay tractable; the profiler scales footprint-dependent
quantities (reuse time, footprint words) up to the workload's
``nominal_footprint_bytes`` — a documented modelling substitution, see
DESIGN.md.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from typing import List

import numpy as np

from repro import units
from repro.errors import WorkloadError
from repro.memsys.access import AccessTrace


def float_to_word(value: float) -> int:
    """Raw 64-bit pattern of a float — what actually sits in DRAM."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


class InstrumentedArray:
    """A heap allocation whose every element access is recorded.

    Elements are 64-bit words (one float or integer each), matching the
    ECC protection granularity used for the WER metric.  They live in an
    ``array('d')``, and each access appends one entry to the recorder's
    typed columns — no per-access objects are built.  ``read``/``write``
    append inline rather than through a recorder method: this is the
    innermost loop of every workload, so each access pays for no extra
    Python call.
    """

    def __init__(self, recorder: "TraceRecorder", base_address: int, length: int,
                 name: str = "") -> None:
        if length <= 0:
            raise WorkloadError("array length must be positive")
        self._recorder = recorder
        self.base_address = base_address
        self.length = length
        self.name = name
        self._data = array("d", bytes(length * units.WORD_BYTES))

    def __len__(self) -> int:
        return self.length

    def _out_of_bounds(self, index: int) -> WorkloadError:
        return WorkloadError(
            f"index {index} out of bounds for array {self.name!r} of length {self.length}"
        )

    def read(self, index: int, thread_id: int = 0) -> float:
        """Load one element, recording the access."""
        if not 0 <= index < self.length:
            raise self._out_of_bounds(index)
        value = self._data[index]
        recorder = self._recorder
        recorder.instruction_count += 1
        recorder._addresses.append(self.base_address + index * units.WORD_BYTES)
        recorder._is_write.append(0)
        recorder._instruction_index.append(recorder.instruction_count)
        recorder._values.append(value)
        recorder._thread_ids.append(thread_id)
        return value

    def write(self, index: int, value: float, thread_id: int = 0) -> None:
        """Store one element, recording the access and the written data."""
        if not 0 <= index < self.length:
            raise self._out_of_bounds(index)
        value = float(value)
        self._data[index] = value
        recorder = self._recorder
        recorder.instruction_count += 1
        recorder._addresses.append(self.base_address + index * units.WORD_BYTES)
        recorder._is_write.append(1)
        recorder._instruction_index.append(recorder.instruction_count)
        recorder._values.append(value)
        recorder._thread_ids.append(thread_id)

    def raw(self) -> np.ndarray:
        """Un-instrumented zero-copy view of the data (for result verification only)."""
        return np.frombuffer(self._data, dtype=np.float64)


class TraceRecorder:
    """Collects the dynamic memory-access trace and instruction count.

    Accesses are appended to typed column buffers (address, is_write,
    instruction index, value, thread); :attr:`accesses` turns them into
    an :class:`AccessTrace`.
    """

    #: virtual base address of the instrumented heap
    HEAP_BASE = 0x1000_0000

    def __init__(self) -> None:
        self.instruction_count = 0
        self.allocated_bytes = 0
        self._next_address = self.HEAP_BASE
        self._addresses = array("q")
        self._is_write = array("b")
        self._instruction_index = array("q")
        self._values = array("d")
        self._thread_ids = array("q")

    # -- allocation ---------------------------------------------------------
    def alloc(self, num_words: int, name: str = "") -> InstrumentedArray:
        """Allocate an instrumented array of ``num_words`` 64-bit words."""
        allocation = InstrumentedArray(self, self._next_address, num_words, name=name)
        size = num_words * units.WORD_BYTES
        self._next_address += size
        # Keep allocations page-aligned like a real allocator would.
        remainder = self._next_address % 4096
        if remainder:
            self._next_address += 4096 - remainder
        self.allocated_bytes += size
        return allocation

    # -- event recording ------------------------------------------------------
    def compute(self, instructions: int = 1) -> None:
        """Account non-memory (ALU/branch) instructions."""
        if instructions < 0:
            raise WorkloadError("instruction count cannot be negative")
        self.instruction_count += instructions

    # -- summary ------------------------------------------------------------
    @property
    def accesses(self) -> AccessTrace:
        """Every access recorded so far, as a frozen columnar copy.

        The recorded floats become their raw 64-bit words here, in one
        ``float64 -> uint64`` view of the whole value column.
        """
        return AccessTrace(
            address=np.frombuffer(self._addresses, dtype=np.int64),
            is_write=np.frombuffer(self._is_write, dtype=np.int8),
            instruction_index=np.frombuffer(self._instruction_index, dtype=np.int64),
            value=np.frombuffer(self._values, dtype=np.float64).view(np.uint64),
            thread_id=np.frombuffer(self._thread_ids, dtype=np.int64),
        )

    @property
    def num_accesses(self) -> int:
        return len(self._addresses)

    @property
    def memory_instruction_fraction(self) -> float:
        if self.instruction_count == 0:
            return 0.0
        return self.num_accesses / self.instruction_count


@dataclass(frozen=True)
class WorkloadMetadata:
    """Static description of a workload."""

    name: str
    suite: str                      #: e.g. "rodinia", "parsec", "cloud", "graph", "micro"
    threads: int = 1
    nominal_footprint_bytes: int = units.BENCHMARK_FOOTPRINT_BYTES
    description: str = ""

    @property
    def is_parallel(self) -> bool:
        return self.threads > 1


class Workload(ABC):
    """A benchmark that can be executed to produce an instrumented trace."""

    #: subclasses set these
    name: str = "workload"
    suite: str = "generic"
    description: str = ""
    #: whether the parallel variant is labelled "(par)" in figures; the cloud
    #: and graph benchmarks always run with 8 threads and keep their plain name
    suffix_parallel: bool = True

    def __init__(self, threads: int = 1, seed: int = 7,
                 nominal_footprint_bytes: int = units.BENCHMARK_FOOTPRINT_BYTES) -> None:
        if threads < 1:
            raise WorkloadError("threads must be >= 1")
        self.threads = threads
        self.seed = seed
        self.nominal_footprint_bytes = nominal_footprint_bytes
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    @property
    def metadata(self) -> WorkloadMetadata:
        return WorkloadMetadata(
            name=self.display_name,
            suite=self.suite,
            threads=self.threads,
            nominal_footprint_bytes=self.nominal_footprint_bytes,
            description=self.description,
        )

    @property
    def display_name(self) -> str:
        """Name as used in the paper's figures, e.g. ``backprop(par)``."""
        if self.threads > 1 and self.suffix_parallel:
            return f"{self.name}(par)"
        return self.name

    @abstractmethod
    def run(self, recorder: TraceRecorder) -> None:
        """Execute the kernel, emitting accesses into ``recorder``."""

    def record_trace(self) -> TraceRecorder:
        """Run the workload from scratch and return the filled recorder."""
        recorder = TraceRecorder()
        self._rng = np.random.default_rng(self.seed)
        self.run(recorder)
        if recorder.num_accesses == 0:
            raise WorkloadError(f"workload {self.display_name} produced no memory accesses")
        return recorder

    # -- helpers for parallel kernels ----------------------------------------
    def thread_chunks(self, num_items: int) -> List[range]:
        """Split ``num_items`` work items into one contiguous chunk per thread."""
        if num_items <= 0:
            raise WorkloadError("num_items must be positive")
        base, extra = divmod(num_items, self.threads)
        chunks = []
        start = 0
        for thread in range(self.threads):
            size = base + (1 if thread < extra else 0)
            chunks.append(range(start, start + size))
            start += size
        return chunks

    def interleaved_schedule(self, num_items: int, block: int = 8) -> List[tuple]:
        """Round-robin (item, thread) schedule approximating parallel execution.

        Parallel threads execute simultaneously; in the single global
        dynamic instruction stream this shows up as their accesses being
        interleaved block by block, which is what shortens the reuse
        distance of shared data structures for the ``(par)`` versions.
        """
        chunks = self.thread_chunks(num_items)
        positions = [0] * self.threads
        schedule: List[tuple] = []
        remaining = num_items
        while remaining > 0:
            for thread, chunk in enumerate(chunks):
                taken = 0
                while positions[thread] < len(chunk) and taken < block:
                    schedule.append((chunk[positions[thread]], thread))
                    positions[thread] += 1
                    taken += 1
                    remaining -= 1
        return schedule

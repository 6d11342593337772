"""The columnar profiling path against its per-access object oracle.

``tests/oracles/profiling.py`` holds the profiling path that walks one
:class:`MemoryAccess` object at a time.  These tests pin the columnar
path — typed trace buffers, :class:`AccessTrace`, the level-by-level
LRU simulation and the vectorized reuse/entropy passes — to it exactly,
and cover the trace's error paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.address_map import AddressMapper
from repro.dram.geometry import DramGeometry
from repro.errors import ConfigurationError, DataError, WorkloadError
from repro.memsys.access import AccessTrace, AccessType, MemoryAccess
from repro.memsys.cache import CacheConfig
from repro.memsys.hierarchy import MemoryHierarchy
from repro.profiling.entropy import DataEntropyEstimator
from repro.profiling.profiler import profile_workload
from repro.profiling.reuse import reuse_statistics
from repro.workloads.base import TraceRecorder, float_to_word
from repro.workloads.registry import available_workloads, create_workload
from tests.oracles.profiling import (
    OracleProfiler,
    oracle_entropy,
    oracle_reuse_statistics,
    oracle_simulate,
    record_object_trace,
)

WORD = 8


def _access(address, write=False, index=0, value=0, thread=0):
    return MemoryAccess(
        address=address,
        access_type=AccessType.WRITE if write else AccessType.READ,
        instruction_index=index,
        value=value,
        thread_id=thread,
    )


@st.composite
def traces(draw, max_lines=24, max_size=300, write_probability=None):
    """Small traces over a few cache lines, so sets conflict and lines return."""
    num_lines = draw(st.integers(min_value=1, max_value=max_lines))
    size = draw(st.integers(min_value=0, max_value=max_size))
    if write_probability is None:
        write_probability = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    lines = rng.integers(0, num_lines, size=size)
    offsets = rng.integers(0, 64, size=size)
    writes = rng.random(size) < write_probability
    gaps = rng.integers(0, 5, size=size)
    values = rng.integers(0, 2 ** 63, size=size, dtype=np.int64).astype(np.uint64) * 2
    threads = rng.integers(0, 4, size=size)
    index = 0
    out = []
    for i in range(size):
        index += int(gaps[i])
        out.append(_access(
            int(lines[i]) * 64 + int(offsets[i]), bool(writes[i]), index,
            int(values[i]), int(threads[i]),
        ))
    return out


# ---------------------------------------------------------------------------
# Whole profiles.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", available_workloads())
def test_profile_matches_object_oracle(name):
    profile = profile_workload(name)
    oracle = OracleProfiler().profile(create_workload(name))
    assert profile.workload == oracle.workload
    assert profile.metadata == oracle.metadata
    assert profile.features == oracle.features


def test_recorded_columns_match_object_trace():
    workload = create_workload("backprop(par)")
    trace = workload.record_trace().accesses
    objects = AccessTrace.from_accesses(record_object_trace(workload).accesses)
    for column in ("address", "is_write", "instruction_index", "value", "thread_id"):
        assert np.array_equal(getattr(trace, column), getattr(objects, column)), column


# ---------------------------------------------------------------------------
# Hierarchy simulation.
# ---------------------------------------------------------------------------
@given(
    trace=traces(),
    ways=st.sampled_from([1, 2, 4]),
    l1_sets=st.sampled_from([1, 2, 4]),
    l2_sets=st.sampled_from([1, 2, 8]),
    l2_ways=st.sampled_from([1, 2, 4, 8]),
    threads=st.integers(min_value=1, max_value=3),
    write_back=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_simulate_matches_oracle(trace, ways, l1_sets, l2_sets, l2_ways, threads, write_back):
    l1 = CacheConfig(size_bytes=ways * l1_sets * 64, associativity=ways)
    l2 = CacheConfig(size_bytes=l2_ways * l2_sets * 64, associativity=l2_ways,
                     write_back=write_back)
    hierarchy = MemoryHierarchy(l1_config=l1, l2_config=l2, num_threads=threads)
    expected = oracle_simulate(trace, l1_config=l1, l2_config=l2, num_threads=threads)
    assert hierarchy.simulate(trace) == expected
    assert hierarchy.simulate(AccessTrace.from_accesses(trace)) == expected


@given(trace=traces(max_lines=40, write_probability=0.9))
@settings(max_examples=60, deadline=None)
def test_dirty_eviction_heavy_streams_match_oracle(trace):
    # A one-set, two-way L2 under mostly-write traffic evicts dirty lines
    # on almost every miss.
    l1 = CacheConfig(size_bytes=64, associativity=1)
    l2 = CacheConfig(size_bytes=128, associativity=2)
    expected = oracle_simulate(trace, l1_config=l1, l2_config=l2)
    assert MemoryHierarchy(l1_config=l1, l2_config=l2).simulate(trace) == expected


def test_dirty_writeback_is_charged_to_the_missing_address():
    # One-line L1 and L2: the write to line 0 leaves it dirty in L2; the
    # read of line 1 evicts it, and the DRAM write lands on line 1's rank.
    l1 = CacheConfig(size_bytes=64, associativity=1)
    l2 = CacheConfig(size_bytes=64, associativity=1)
    stride = 256    # one channel interleave: consecutive accesses change rank
    trace = [_access(0, write=True, index=1), _access(stride, index=2)]
    stats = MemoryHierarchy(l1_config=l1, l2_config=l2).simulate(trace)
    assert stats.writebacks == stats.dram_writes == 1
    mapper = AddressMapper(DramGeometry())
    missing_rank = mapper.map_address(stride).rank_location
    victim_rank = mapper.map_address(0).rank_location
    assert stats.per_rank_accesses[missing_rank] == 2
    assert stats.per_rank_accesses[victim_rank] == 1
    assert stats == oracle_simulate(trace, l1_config=l1, l2_config=l2)


def test_each_simulate_starts_cold():
    hierarchy = MemoryHierarchy()
    trace = [_access(0, index=1), _access(0, index=2)]
    assert hierarchy.simulate(trace) == hierarchy.simulate(trace)
    assert hierarchy.simulate(trace).l1_misses == 1


def test_empty_trace_simulates_to_zero_counts():
    stats = MemoryHierarchy().simulate([])
    assert stats == oracle_simulate([])
    assert stats.total_accesses == stats.dram_accesses == 0


@given(addresses=st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=50))
@settings(max_examples=50, deadline=None)
def test_vectorized_rank_indices_match_map_address(addresses):
    geometry = DramGeometry()
    mapper = AddressMapper(geometry)
    expected = [geometry.rank_index(mapper.map_address(a).rank_location) for a in addresses]
    assert mapper.rank_indices(np.array(addresses, dtype=np.int64)).tolist() == expected


def test_rank_indices_reject_negative_addresses():
    with pytest.raises(ConfigurationError):
        AddressMapper(DramGeometry()).rank_indices(np.array([64, -8]))


# ---------------------------------------------------------------------------
# Reuse and entropy.
# ---------------------------------------------------------------------------
@given(trace=traces(max_size=200).filter(bool))
@settings(max_examples=100, deadline=None)
def test_reuse_statistics_match_oracle(trace):
    assert reuse_statistics(trace) == oracle_reuse_statistics(trace)


@given(
    trace=traces(max_size=200),
    value_bits=st.sampled_from([1, 8, 32, 64]),
    max_samples=st.integers(min_value=1, max_value=250),
)
@settings(max_examples=100, deadline=None)
def test_entropy_matches_oracle(trace, value_bits, max_samples):
    estimator = DataEntropyEstimator(value_bits=value_bits, max_samples=max_samples)
    assert estimator.estimate(trace) == oracle_entropy(trace, value_bits, max_samples)


def test_entropy_stops_at_max_samples():
    trace = [_access(0, write=True, index=i + 1, value=i << 32) for i in range(8)]
    assert DataEntropyEstimator(max_samples=4).estimate(trace) == pytest.approx(2.0)
    assert DataEntropyEstimator(max_samples=8).estimate(trace) == pytest.approx(3.0)


def test_empty_trace_has_no_reuse_statistics():
    with pytest.raises(DataError):
        reuse_statistics(AccessTrace.from_accesses([]))


def test_trace_without_writes_has_zero_entropy():
    trace = [_access(i * WORD, index=i + 1, value=i) for i in range(16)]
    assert DataEntropyEstimator().estimate(trace) == 0.0
    assert DataEntropyEstimator().estimate([]) == 0.0


# ---------------------------------------------------------------------------
# AccessTrace and recorder error paths.
# ---------------------------------------------------------------------------
def _columns(**overrides):
    columns = dict(address=[0, 8], is_write=[True, False], instruction_index=[1, 2],
                   value=[5, 6], thread_id=[0, 1])
    columns.update(overrides)
    return columns


@pytest.mark.parametrize("column", ["address", "instruction_index", "thread_id"])
def test_negative_trace_fields_rejected(column):
    with pytest.raises(ConfigurationError):
        AccessTrace(**_columns(**{column: [0, -1]}))


def test_ragged_columns_rejected():
    with pytest.raises(ConfigurationError):
        AccessTrace(**_columns(value=[5]))


def test_values_outside_64_bits_rejected():
    with pytest.raises(ConfigurationError):
        AccessTrace(**_columns(value=[5, 2 ** 64]))


def test_trace_columns_are_read_only_copies():
    address = np.array([0, 8])
    trace = AccessTrace(**_columns(address=address))
    address[0] = 64
    assert trace.address[0] == 0
    with pytest.raises(ValueError):
        trace.address[0] = 16


def test_trace_rows_round_trip():
    rows = [_access(16, write=True, index=3, value=7, thread=2), _access(24, index=4)]
    trace = AccessTrace.from_accesses(rows)
    assert len(trace) == 2
    assert list(trace) == rows
    assert trace[1] == rows[1]
    assert list(trace[1:]) == rows[1:]


def test_negative_thread_id_rejected_when_the_trace_is_built():
    recorder = TraceRecorder()
    recorder.alloc(2).write(0, 1.0, thread_id=-1)
    with pytest.raises(ConfigurationError):
        recorder.accesses


@pytest.mark.parametrize("index", [-1, 2, 100])
def test_out_of_bounds_instrumented_index_rejected(index):
    array = TraceRecorder().alloc(2, "a")
    with pytest.raises(WorkloadError):
        array.read(index)
    with pytest.raises(WorkloadError):
        array.write(index, 1.0)


def test_recorder_columns_hold_raw_words():
    recorder = TraceRecorder()
    array = recorder.alloc(2)
    recorder.compute(3)
    array.write(1, -0.5, thread_id=4)
    trace = recorder.accesses
    assert trace.address.tolist() == [array.base_address + WORD]
    assert trace.is_write.tolist() == [True]
    assert trace.instruction_index.tolist() == [4]
    assert trace.value.tolist() == [float_to_word(-0.5)]
    assert trace.thread_id.tolist() == [4]


def test_raw_is_a_zero_copy_view():
    array = TraceRecorder().alloc(3)
    view = array.raw()
    array.write(2, 7.5)
    assert view[2] == 7.5
    assert view.shape == (3,)

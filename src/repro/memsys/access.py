"""Memory access records emitted by instrumented workloads.

The canonical trace representation is :class:`AccessTrace`: one frozen
numpy column per access field.  :class:`MemoryAccess` is the row view of
one access — what indexing or iterating a trace yields, and what
hand-built traces are written as (``AccessTrace.from_accesses``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Union, overload

import numpy as np

from repro.errors import ConfigurationError


class AccessType(Enum):
    """Kind of memory operation."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class MemoryAccess:
    """One dynamic memory access of a workload.

    ``instruction_index`` is the position of the access in the dynamic
    instruction stream — the quantity DynamoRIO gives the paper for the
    reuse-distance computation (Eq. 4).  ``value`` is the 64-bit data
    written (for writes), used for the data-entropy estimate (Eq. 5).
    """

    address: int
    access_type: AccessType
    instruction_index: int
    value: int = 0
    thread_id: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ConfigurationError("address must be non-negative")
        if self.instruction_index < 0:
            raise ConfigurationError("instruction_index must be non-negative")
        if self.thread_id < 0:
            raise ConfigurationError("thread_id must be non-negative")

    @property
    def is_write(self) -> bool:
        return self.access_type is AccessType.WRITE

    @property
    def is_read(self) -> bool:
        return self.access_type is AccessType.READ

    @property
    def word_address(self) -> int:
        """Address rounded down to the 64-bit word the access touches."""
        return self.address & ~0x7


def _column(values: object, dtype: type, name: str) -> np.ndarray:
    try:
        column = np.array(values, dtype=dtype)
    except OverflowError:
        raise ConfigurationError(f"{name} does not fit a 64-bit column") from None
    if column.ndim != 1:
        raise ConfigurationError(f"{name} must be a 1-D column")
    column.flags.writeable = False
    return column


_COLUMN_DTYPES = {
    "address": np.int64,
    "is_write": np.bool_,
    "instruction_index": np.int64,
    "value": np.uint64,
    "thread_id": np.int64,
}


@dataclass(frozen=True, eq=False)
class AccessTrace:
    """A whole access trace as read-only numpy columns, one entry per access.

    ``address``, ``instruction_index`` and ``thread_id`` are int64,
    ``is_write`` is bool and ``value`` holds the raw 64-bit data words as
    uint64.  The constructor copies its inputs and validates them column
    at a time: every column has the same length and no address,
    instruction index or thread id is negative.
    """

    address: np.ndarray
    is_write: np.ndarray
    instruction_index: np.ndarray
    value: np.ndarray
    thread_id: np.ndarray

    def __post_init__(self) -> None:
        columns = {
            name: _column(getattr(self, name), dtype, name)
            for name, dtype in _COLUMN_DTYPES.items()
        }
        if len({column.size for column in columns.values()}) != 1:
            raise ConfigurationError("trace columns must all have the same length")
        for name in ("address", "instruction_index", "thread_id"):
            if columns[name].size and columns[name].min() < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemoryAccess]) -> "AccessTrace":
        """Columns of a sequence of :class:`MemoryAccess` records."""
        accesses = list(accesses)
        return cls(
            address=[a.address for a in accesses],
            is_write=[a.is_write for a in accesses],
            instruction_index=[a.instruction_index for a in accesses],
            value=[a.value for a in accesses],
            thread_id=[a.thread_id for a in accesses],
        )

    @classmethod
    def coerce(cls, trace: Union["AccessTrace", Iterable[MemoryAccess]]) -> "AccessTrace":
        """``trace`` itself if it is columnar, else its columns."""
        return trace if isinstance(trace, cls) else cls.from_accesses(trace)

    @property
    def word_address(self) -> np.ndarray:
        """Addresses rounded down to the 64-bit word each access touches."""
        return self.address & ~0x7

    def __len__(self) -> int:
        return int(self.address.size)

    @overload
    def __getitem__(self, index: int) -> MemoryAccess:
        ...

    @overload
    def __getitem__(self, index: slice) -> "AccessTrace":
        ...

    def __getitem__(self, index: Union[int, slice]) -> Union[MemoryAccess, "AccessTrace"]:
        if isinstance(index, slice):
            return AccessTrace(**{name: getattr(self, name)[index] for name in _COLUMN_DTYPES})
        return MemoryAccess(
            address=int(self.address[index]),
            access_type=AccessType.WRITE if self.is_write[index] else AccessType.READ,
            instruction_index=int(self.instruction_index[index]),
            value=int(self.value[index]),
            thread_id=int(self.thread_id[index]),
        )

    def __iter__(self) -> Iterator[MemoryAccess]:
        for index in range(len(self)):
            yield self[index]

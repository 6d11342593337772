"""Set-associative cache geometry.

:class:`~repro.memsys.hierarchy.MemoryHierarchy` simulates true-LRU
caches of these shapes to derive the cache-related program features
(L1/L2 accesses and misses per cycle) and to decide which accesses
actually reach DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    associativity: int
    line_bytes: int = 64
    write_back: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("cache geometry values must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes) != 0:
            raise ConfigurationError(
                "size_bytes must be a multiple of associativity * line_bytes"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


def xgene2_l1_config() -> CacheConfig:
    """32 KB, 8-way L1 data cache (per core) of the X-Gene2."""
    return CacheConfig(size_bytes=32 * 1024, associativity=8)


def xgene2_l2_config() -> CacheConfig:
    """256 KB, 8-way shared L2 slice of the X-Gene2."""
    return CacheConfig(size_bytes=256 * 1024, associativity=8)

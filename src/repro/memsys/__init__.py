"""Memory-hierarchy substrate: access traces, cache geometry, trace simulation."""

from repro.memsys.access import AccessTrace, AccessType, MemoryAccess
from repro.memsys.cache import CacheConfig, xgene2_l1_config, xgene2_l2_config
from repro.memsys.hierarchy import HierarchyStats, MemoryHierarchy

__all__ = [
    "AccessTrace",
    "AccessType",
    "MemoryAccess",
    "CacheConfig",
    "xgene2_l1_config",
    "xgene2_l2_config",
    "HierarchyStats",
    "MemoryHierarchy",
]

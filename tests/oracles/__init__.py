"""Test-only reference implementations that the library is pinned against.

Each module holds the straightforward, per-object form of an optimised
library path.  Tests and benchmarks import them to assert bit-identical
results and to time the speedup; the shipped package never imports them.
"""

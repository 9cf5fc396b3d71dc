"""Counter-based randomness.

One 64-bit root seed addresses an unbounded family of independent uniform
draws through a SplitMix64-style finalizer.  Simulation uses the draw at
``(seed, round, neuron)``, so traces are reproducible bit-for-bit, neurons
may be updated in any order within a round, and trials parallelize without
shared generator state.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def unit(seed: int, stream: int, index: int) -> float:
    """Uniform draw in [0, 1) addressed by (seed, stream, index)."""
    h = _mix((seed & _MASK) + _GOLDEN)
    h = _mix(h ^ _mix((stream & _MASK) + _GOLDEN))
    h = _mix(h + ((index & _MASK) * _GOLDEN & _MASK))
    return (h >> 11) * (2.0**-53)
